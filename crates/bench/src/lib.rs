//! Experiment harness for the UBRC reproduction.
//!
//! One entry point per table/figure of the paper's evaluation section
//! (see DESIGN.md for the full index). Each experiment runs the
//! benchmark suite under the relevant configurations and returns a
//! [`ubrc_stats::Table`] holding the same rows/series the paper
//! reports. The `experiments` binary prints them:
//!
//! ```text
//! cargo run --release -p ubrc-bench --bin experiments -- fig6
//! cargo run --release -p ubrc-bench --bin experiments -- all --scale small
//! ```

#![warn(missing_docs)]

pub mod experiments;
mod runner;
mod trajectory;

pub use runner::{run_cells, Cell, RunOptions, SuiteError, SuiteFailure};
pub use trajectory::{
    pipeline_trajectory, smt4_trajectory_configs, smt_trajectory_configs, soft_trajectory_configs,
    trajectory_configs, TrajectoryOutcome, SCHEMA as TRAJECTORY_SCHEMA,
};
