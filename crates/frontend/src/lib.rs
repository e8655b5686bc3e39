//! Front-end predictors for the UBRC timing simulator.
//!
//! Implements the prediction structures of Table 1 of the paper:
//!
//! * [`Yags`] — a 12KB YAGS conditional branch predictor,
//! * [`ReturnAddressStack`] — a 64-entry return address stack,
//! * [`CascadingIndirect`] — a 32KB two-stage cascading indirect branch
//!   target predictor,
//! * [`DegreeOfUsePredictor`] — the 9KB degree-of-use predictor of Butts
//!   & Sohi (4K entries, 4-way set-associative, 2-bit confidence, 6-bit
//!   tag, 4-bit prediction), the information source for every use-based
//!   register-cache policy in `ubrc-core`.
//!
//! The BTB is perfect in the paper and therefore has no structure here;
//! the timing simulator answers "is there a branch in this fetch block,
//! and where does it go if taken" from its functional oracle, exactly as
//! a perfect BTB would.
//!
//! One substitution (documented in DESIGN.md): the original degree-of-use
//! predictor indexes with 6 bits of *future* control flow, available in
//! their fetch pipeline via predictor lookahead. This implementation uses
//! the 6 most recent bits of global branch history at fetch instead —
//! speculatively available at the same point and similarly correlated
//! with the consumer set.

#![warn(missing_docs)]

mod douse;
mod history;
mod indirect;
mod ras;
mod simple;
mod yags;

pub use douse::{DegreeOfUsePredictor, DouseConfig, DouseConfigError, DouseStats};
pub use history::GlobalHistory;
pub use indirect::CascadingIndirect;
pub use ras::ReturnAddressStack;
pub use simple::{Bimodal, DirectionPredictor, Gshare};
pub use yags::Yags;
