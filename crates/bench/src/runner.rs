//! Simulation runner: [`run_cells`] runs a batch of simulation cells on
//! a bounded pool of scoped worker threads and returns one outcome per
//! cell, in cell order.
//!
//! Callers build every cell they need up front and make one call, so at
//! most [`max_workers`] simulations run at once and each worker thread
//! carries its allocations from one cell to the next.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;
use ubrc_isa::Program;
use ubrc_sim::{simulate, CheckConfig, SimConfig, SimError, SimResult, Simulator};
use ubrc_workloads::{kernel_pairs, kernel_quads, suite, Scale, Workload};

/// A simulation cell failed: which cell, and how.
#[derive(Clone, Debug)]
pub struct SuiteError {
    /// Label of the failed cell (see [`Cell::label`]).
    pub workload: String,
    /// What went wrong.
    pub failure: SuiteFailure,
}

impl SuiteError {
    /// Human-readable description of the failure (without the kernel
    /// name).
    pub fn reason(&self) -> String {
        self.failure.to_string()
    }
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload `{}` failed: {}", self.workload, self.failure)
    }
}

impl std::error::Error for SuiteError {}

/// How a simulation cell failed.
#[derive(Clone, Debug)]
pub enum SuiteFailure {
    /// The workload program failed to assemble.
    Asm(ubrc_isa::AsmError),
    /// The checked simulator reported a structured error (divergence,
    /// invariant violation, watchdog deadlock, emulator fault).
    Sim(Box<SimError>),
    /// The cell exceeded its wall-clock budget and was cancelled.
    Timeout {
        /// The budget that was exceeded, in seconds.
        secs: u64,
    },
    /// The simulator panicked (a simulator bug the structured paths
    /// did not cover).
    Panic(String),
}

impl SuiteFailure {
    /// Short machine-readable tag for JSON reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SuiteFailure::Asm(_) => "asm",
            SuiteFailure::Sim(e) => match **e {
                SimError::Divergence(_) => "divergence",
                SimError::Invariant(_) => "invariant",
                SimError::Watchdog(_) => "watchdog",
                SimError::Emu(_) => "emu",
                SimError::Cancelled { .. } => "cancelled",
                SimError::Config(_) => "config",
            },
            SuiteFailure::Timeout { .. } => "timeout",
            SuiteFailure::Panic(_) => "panic",
        }
    }
}

impl fmt::Display for SuiteFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteFailure::Asm(e) => write!(f, "assembly failed: {e}"),
            SuiteFailure::Sim(e) => write!(f, "{e}"),
            SuiteFailure::Timeout { secs } => {
                write!(f, "timed out after {secs}s wall-clock")
            }
            SuiteFailure::Panic(m) => write!(f, "{m}"),
        }
    }
}

/// Per-run options for the runner, normally derived from the
/// environment (which is how the `experiments` binary's `--check` and
/// `--timeout` flags reach every cell without threading a parameter
/// through every experiment signature).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Enable full runtime checking ([`CheckConfig::full`]) on every
    /// cell, overriding the per-config setting.
    pub check: bool,
    /// Wall-clock budget per cell; a cell still running at the deadline
    /// is cancelled and reported as [`SuiteFailure::Timeout`].
    pub timeout: Option<Duration>,
}

impl RunOptions {
    /// Reads `UBRC_CHECK` (any non-empty value other than `0`) and
    /// `UBRC_TIMEOUT_SECS` (integer seconds).
    pub fn from_env() -> Self {
        let timeout = std::env::var("UBRC_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&s| s > 0)
            .map(Duration::from_secs);
        Self {
            check: std::env::var("UBRC_CHECK").is_ok_and(|v| !v.is_empty() && v != "0"),
            timeout,
        }
    }
}

/// Maximum simulations running at once (defaults to the machine's
/// available parallelism; override with `UBRC_BENCH_WORKERS`).
pub(crate) fn max_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("UBRC_BENCH_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(4)
            })
    })
}

/// One simulation: 1, 2 or 4 workloads co-scheduled on one core, one
/// hardware thread each, under `config`.
#[derive(Clone, Copy, Debug)]
pub struct Cell<'a> {
    /// The co-scheduled workloads, in hardware-thread order.
    pub workloads: &'a [Workload],
    /// The configuration the cell runs under.
    pub config: &'a SimConfig,
}

impl Cell<'_> {
    /// The cell's label: its kernel names joined by `+` (`qsort`,
    /// `qsort+bfs`, …), so a failure in a multi-thread cell is
    /// attributed to the co-schedule, never to a single member.
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        names.join("+")
    }
}

/// The kernel suite as co-schedules of `threads` kernels each: the 12
/// kernels alone, the 6 [`kernel_pairs`], or the 3 [`kernel_quads`].
///
/// # Panics
///
/// On any other thread count (the suite defines no such grouping).
pub(crate) fn kernel_groups(threads: usize, scale: Scale) -> Vec<Vec<Workload>> {
    match threads {
        1 => suite(scale).into_iter().map(|w| vec![w]).collect(),
        2 => kernel_pairs(scale)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .collect(),
        4 => kernel_quads(scale).into_iter().map(Vec::from).collect(),
        n => panic!("the kernel suite has no {n}-thread co-schedules"),
    }
}

/// Runs every cell and returns one outcome per cell, in cell order.
///
/// Cells run on `min(max_workers(), cells.len())` scoped threads that
/// take cell indices from a shared counter. Every failure mode —
/// assembly error, structured [`SimError`], wall-clock timeout,
/// residual panic — becomes that cell's [`SuiteError`] and the other
/// cells still run; callers that want to stop at a failure take the
/// first error in cell order.
pub fn run_cells(cells: &[Cell<'_>], opts: &RunOptions) -> Vec<Result<SimResult, SuiteError>> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<SimResult, SuiteError>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..max_workers().min(cells.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The counter only hands out indices; each
                        // result carries its index back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break done };
                        let outcome = run_cell(cell, opts).map_err(|failure| SuiteError {
                            workload: cell.label(),
                            failure,
                        });
                        done.push((i, outcome));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("runner workers catch panics"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "simulation panicked".to_string()
    }
}

/// Assembles every member of the cell and simulates it, with the
/// checking and deadline overrides from `opts` applied.
fn run_cell(cell: &Cell<'_>, opts: &RunOptions) -> Result<SimResult, SuiteFailure> {
    let mut programs = Vec::with_capacity(cell.workloads.len());
    for w in cell.workloads {
        programs.push(w.assemble().map_err(SuiteFailure::Asm)?);
    }
    let mut config = cell.config.clone();
    if opts.check {
        config.check = CheckConfig::full();
    }
    match opts.timeout {
        Some(budget) => run_with_deadline(programs, config, budget),
        None => catch_unwind(AssertUnwindSafe(|| simulate(programs, config)))
            .map_err(|p| SuiteFailure::Panic(panic_message(p)))?
            .map_err(SuiteFailure::Sim),
    }
}

/// Runs one simulation on a worker thread with a wall-clock deadline.
/// At the deadline the simulator's cancellation flag is raised (it
/// polls every 1024 cycles) and the cell is reported as a timeout; the
/// worker unwinds shortly after on its own.
fn run_with_deadline(
    programs: Vec<Program>,
    config: SimConfig,
    budget: Duration,
) -> Result<SimResult, SuiteFailure> {
    let cancel = Arc::new(AtomicBool::new(false));
    let flag = cancel.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let mut sim = Simulator::try_new_smt(programs, config)
                .map_err(|e| Box::new(SimError::Config(e)))?;
            sim.set_cancel(flag);
            sim.run_checked()
        }));
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(budget) {
        Ok(Ok(Ok(res))) => Ok(res),
        Ok(Ok(Err(e))) => Err(SuiteFailure::Sim(e)),
        Ok(Err(p)) => Err(SuiteFailure::Panic(panic_message(p))),
        Err(_) => {
            cancel.store(true, Ordering::Relaxed);
            Err(SuiteFailure::Timeout {
                secs: budget.as_secs(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells<'a>(groups: &'a [Vec<Workload>], config: &'a SimConfig) -> Vec<Cell<'a>> {
        groups
            .iter()
            .map(|g| Cell {
                workloads: g,
                config,
            })
            .collect()
    }

    #[test]
    fn mixed_thread_counts_come_back_in_cell_order() {
        let groups = [
            kernel_groups(1, Scale::Tiny).swap_remove(0),
            kernel_groups(2, Scale::Tiny).swap_remove(0),
            kernel_groups(4, Scale::Tiny).swap_remove(0),
        ];
        let cfg = SimConfig::paper_default();
        let cells = cells(&groups, &cfg);
        let labels: Vec<String> = cells.iter().map(Cell::label).collect();
        assert_eq!(
            labels,
            ["qsort", "qsort+bfs", "qsort+bfs+listchase+strsearch"]
        );
        let results = run_cells(&cells, &RunOptions::default());
        assert_eq!(results.len(), 3);
        for (r, threads) in results.iter().zip([1, 2, 4]) {
            let r = r.as_ref().expect("paper default runs");
            assert_eq!(r.thread_retired.len(), threads);
            assert!(r.retired > 0);
        }
    }

    #[test]
    fn a_rejected_config_fails_only_its_cells() {
        // An impossible configuration is rejected as a structured
        // ConfigError; the runner must say *which* cell died and keep
        // running the rest of the batch.
        let groups = kernel_groups(1, Scale::Tiny);
        let good = SimConfig::paper_default();
        let mut bad = SimConfig::paper_default();
        bad.phys_regs = 8; // fewer physical than architectural registers
        let mut batch = cells(&groups, &good);
        batch.extend(cells(&groups, &bad));
        let results = run_cells(&batch, &RunOptions::default());
        assert_eq!(results.len(), 24);
        for (r, w) in results[..12].iter().zip(&groups) {
            assert!(r.is_ok(), "{} should run", w[0].name);
        }
        for (r, w) in results[12..].iter().zip(&groups) {
            let err = r.as_ref().unwrap_err();
            assert_eq!(err.workload, w[0].name);
            assert_eq!(err.failure.kind(), "config");
            assert!(!err.reason().is_empty());
            assert!(
                matches!(&err.failure, SuiteFailure::Sim(e) if matches!(**e, SimError::Config(_)))
            );
        }
    }

    #[test]
    fn quad_failures_are_attributed_to_the_quad_label() {
        // A rejected configuration in a 4-thread cell must name the
        // whole quad on both the direct and the deadline paths.
        let groups = kernel_groups(4, Scale::Tiny);
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 514; // does not divide across 4 threads
        let batch = cells(&groups[..1], &cfg);
        for opts in [
            RunOptions::default(),
            RunOptions {
                timeout: Some(Duration::from_secs(120)),
                ..RunOptions::default()
            },
        ] {
            let err = run_cells(&batch, &opts).remove(0).unwrap_err();
            assert_eq!(err.workload, "qsort+bfs+listchase+strsearch");
            assert_eq!(err.failure.kind(), "config");
        }
    }

    #[test]
    fn timeout_cancels_a_running_cell() {
        // Default scale: the cell must still be running when the worker
        // reaches its 0ms deadline, even on a loaded machine. A timeout
        // in a 2-thread cell names the co-schedule.
        let groups = kernel_groups(2, Scale::Default);
        let cfg = SimConfig::paper_default();
        let opts = RunOptions {
            timeout: Some(Duration::from_millis(0)),
            ..RunOptions::default()
        };
        let err = run_cells(&cells(&groups[..1], &cfg), &opts)
            .remove(0)
            .unwrap_err();
        assert!(matches!(err.failure, SuiteFailure::Timeout { secs: 0 }));
        assert_eq!(err.failure.kind(), "timeout");
        assert_eq!(err.workload, "qsort+bfs");
        assert!(err.to_string().contains("qsort+bfs"));
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn checked_run_matches_unchecked() {
        // `--check` must be observation-only: identical SimResult.
        let w = ubrc_workloads::workload_by_name("crc", Scale::Tiny).unwrap();
        let cfg = SimConfig::paper_default();
        let cell = [Cell {
            workloads: std::slice::from_ref(&w),
            config: &cfg,
        }];
        let plain = run_cells(&cell, &RunOptions::default()).remove(0).unwrap();
        let opts = RunOptions {
            check: true,
            timeout: Some(Duration::from_secs(120)),
        };
        let checked = run_cells(&cell, &opts).remove(0).unwrap();
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.retired, checked.retired);
        assert_eq!(plain.replayed, checked.replayed);
        assert_eq!(plain.miss_events, checked.miss_events);
        assert_eq!(plain.operands_bypassed, checked.operands_bypassed);
    }
}
