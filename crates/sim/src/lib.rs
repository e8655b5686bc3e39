//! Cycle-level out-of-order timing simulator for the UBRC reproduction.
//!
//! Models the machine of Table 1 of Butts & Sohi (ISCA 2004) —
//! an 8-wide, deeply-pipelined out-of-order core with 512 physical
//! registers — with a pluggable register storage organization
//! ([`RegStorage`]): a multi-cycle monolithic register file, a
//! register cache over a backing file (the paper's framework, with all
//! insertion/replacement/indexing policies), or the two-level register
//! file baseline.
//!
//! A run is named by a config spec (see [`SimConfig`]'s `FromStr`:
//! a base such as `use-based` or `lru` plus `key=value` overrides) and
//! made by [`simulate`], or by [`Simulator::try_new_smt`] and
//! [`Simulator::run_checked`] when construction and the run are timed
//! or cancelled apart.
//!
//! # Examples
//!
//! ```
//! use ubrc_sim::{simulate, SimConfig};
//! use ubrc_workloads::{workload_by_name, Scale};
//!
//! let program = workload_by_name("crc", Scale::Tiny).unwrap().assemble().unwrap();
//! let config: SimConfig = "lru,ways=4".parse().unwrap();
//! let result = simulate(vec![program], config).unwrap();
//! assert!(result.ipc() > 0.1);
//! assert!(result.retired > 1000);
//! ```

#![warn(missing_docs)]

mod check;
mod config;
mod inject;
mod oracle;
mod pipeline;
#[cfg(test)]
mod smt_tests;
mod spec;
mod stage;
mod stats;
pub mod trace;

pub use check::{
    CheckConfig, ConfigError, DiagnosticDump, DivergenceReport, InvariantViolation, RetiredEvent,
    SimError,
};
pub use config::{
    BranchPredictorKind, FetchPolicy, FreelistPolicy, FuPools, RegStorage, SimConfig,
};
pub use inject::{FaultKind, FaultPlan, FaultPlanError, FaultSpec, PeriodicFault};
pub use pipeline::Simulator;
pub use stats::{LifetimeStats, SimResult};
pub use trace::{InstTrace, OperandPath, Timeline};

use ubrc_isa::Program;

/// Co-schedules one program per hardware thread on a single core (one
/// program is the classic single-threaded machine) and simulates until
/// every thread halts. With several programs the front end is
/// replicated per thread and the physical register file partitioned
/// evenly; the issue window, execute units, register storage, and
/// memory hierarchy are shared (see `DESIGN.md`, "SMT front end").
///
/// # Errors
///
/// A configuration [`Simulator::try_new_smt`] rejects comes back as
/// [`SimError::Config`]; otherwise the first [`SimError`] of the run.
pub fn simulate(programs: Vec<Program>, config: SimConfig) -> Result<SimResult, Box<SimError>> {
    Simulator::try_new_smt(programs, config)
        .map_err(|e| Box::new(SimError::Config(e)))?
        .run_checked()
}
