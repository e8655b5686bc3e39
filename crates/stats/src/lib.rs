//! Statistics utilities shared by the UBRC register-caching simulator.
//!
//! The timing simulator and the experiment harness need a small set of
//! measurement tools: integer histograms with percentile queries (register
//! lifetime phases, occupancy CDFs), time-weighted averages (cache
//! occupancy), geometric means, and plain-text table rendering for the
//! per-figure reports.
//!
//! Everything here is deterministic and allocation-light; the simulator
//! calls into these types on nearly every cycle.
//!
//! # Examples
//!
//! ```
//! use ubrc_stats::Histogram;
//!
//! let mut live = Histogram::new();
//! for n in [3u64, 5, 5, 9] {
//!     live.record(n);
//! }
//! assert_eq!(live.median(), Some(5));
//! assert_eq!(live.percentile(90.0), Some(9));
//! ```

#![warn(missing_docs)]

mod histogram;
mod json;
mod mean;
mod table;

pub use histogram::Histogram;
pub use json::Json;
pub use mean::{geomean, TimeWeighted};
pub use table::Table;
