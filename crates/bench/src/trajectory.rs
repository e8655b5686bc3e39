//! Machine-readable benchmark trajectory (`experiments --json`).
//!
//! `experiments --json` runs the kernel suite under a fixed matrix of
//! register-storage configurations and records, per configuration, the
//! harness wall time, the simulated instruction count, the simulation
//! throughput (simulated instructions per wall second), and the
//! geometric-mean IPC. Two runs' documents can be diffed per config
//! and per kernel without re-deriving anything from logs.
//!
//! The schema is documented in DESIGN.md (§Performance).

use crate::runner::{kernel_groups, max_workers, run_cells, Cell, RunOptions};
use std::time::Instant;
use ubrc_sim::{SimConfig, SimResult};
use ubrc_stats::{geomean, Json};
use ubrc_workloads::Scale;

/// Version tag embedded in the emitted document. `/2` added the
/// `soft-*` protection/recovery configurations (and a per-kernel retry
/// count, dropped again in `/6`); `/3` added the dynamically
/// partitioned 4-thread cells (`smt4-*-dyncap`) and the 2-thread
/// fetch-policy cells (`smt2-use-based-{rr,ic28}`); `/4` added the
/// dynamically way-partitioned 4-thread cells (`smt4-*-dynway`, at the
/// 64x8 geometry so whole ways can move) and a per-kernel `thread_ipc`
/// array on every co-scheduled cell (per-thread retired over cell
/// cycles, from `SimResult::thread_retired`); `/5` added an optional
/// per-config `profile` section of per-stage wall time, dropped again
/// in `/7` with the `--profile` flag that filled it; `/6` dropped the
/// per-kernel retry count (the runner never reruns a cell: the
/// simulator is deterministic).
pub const SCHEMA: &str = "ubrc-bench-pipeline/7";

/// The fixed configuration matrix the trajectory tracks, as `(name,
/// threads, spec)`: each config runs over the kernel suite's
/// `threads`-kernel co-schedules (the 12 kernels, the 6
/// [`ubrc_workloads::kernel_pairs`] or the 3
/// [`ubrc_workloads::kernel_quads`]), so a multi-thread config's `ipc`
/// columns are aggregate IPC.
///
/// - The paper's three caching schemes, the expected-hit-count scorer
///   and min-load indexing, plus the monolithic register-file
///   baselines.
/// - The use-based design point with full parity protection and
///   machine-check recovery: once fault-free (pinning the zero-overhead
///   claim: its numbers must match `use-based`) and once under each
///   class of periodic recoverable fault (pinning the cost of the
///   recovery machinery itself).
/// - 2-thread pairs, with the fetch-policy ablation (the default cells
///   fetch with ICOUNT.1.8).
/// - 4-thread quads under the {use-based, LRU} × {shared,
///   way-partitioned, occupancy-capped, dynamic-cap} matrix at 64x4 (so
///   the ways divide across the threads), plus dynamic-way at 64x8 (so
///   whole ways can move).
pub const TRAJECTORY: [(&str, usize, &str); 24] = [
    ("rf-1", 1, "rf-1"),
    ("rf-3", 1, "rf-3"),
    ("lru", 1, "lru"),
    ("non-bypass", 1, "non-bypass"),
    ("use-based", 1, "use-based"),
    ("ehc", 1, "ehc"),
    ("min-load", 1, "use-based,index=min-load"),
    ("soft-protected", 1, "use-based,protect=on"),
    (
        "soft-cache-p200",
        1,
        "use-based,protect=on,fault=cache-data:200:7",
    ),
    (
        "soft-backing-p400",
        1,
        "use-based,protect=on,fault=backing-word:400:9",
    ),
    ("smt2-use-based", 2, "use-based"),
    ("smt2-lru", 2, "lru"),
    ("smt2-use-based-rr", 2, "use-based,fetch=round-robin"),
    ("smt2-use-based-ic28", 2, "use-based,fetch=icount28"),
    ("smt4-use-based-shared", 4, "use-based,ways=4"),
    (
        "smt4-use-based-waypart",
        4,
        "use-based,ways=4,partition=waypart",
    ),
    (
        "smt4-use-based-occcap",
        4,
        "use-based,ways=4,partition=occcap",
    ),
    ("smt4-lru-shared", 4, "lru,ways=4"),
    ("smt4-lru-waypart", 4, "lru,ways=4,partition=waypart"),
    ("smt4-lru-occcap", 4, "lru,ways=4,partition=occcap"),
    (
        "smt4-use-based-dyncap",
        4,
        "use-based,ways=4,partition=dyncap",
    ),
    ("smt4-lru-dyncap", 4, "lru,ways=4,partition=dyncap"),
    (
        "smt4-use-based-dynway",
        4,
        "use-based,ways=8,partition=dynway",
    ),
    ("smt4-lru-dynway", 4, "lru,ways=8,partition=dynway"),
];

/// Outcome of a trajectory run: the (possibly partial) document plus
/// the number of failed cells. The document is always emitted — a
/// failing kernel is recorded in place as an error object — so a broken
/// configuration still leaves a usable partial trajectory on disk.
#[derive(Debug)]
pub struct TrajectoryOutcome {
    /// The `BENCH_pipeline.json` document.
    pub doc: Json,
    /// Number of simulation cells that failed across the whole matrix.
    pub failed: usize,
}

/// Runs the trajectory matrix and builds the `BENCH_pipeline.json`
/// document, degrading gracefully: failed cells become
/// `{"name", "error": {"kind", "message"}}` objects and are counted in
/// [`TrajectoryOutcome::failed`], while aggregate statistics cover the
/// cells that completed.
pub fn pipeline_trajectory(scale: Scale) -> TrajectoryOutcome {
    let matrix = TRAJECTORY
        .iter()
        .map(|&(name, threads, spec)| {
            let cfg = spec.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, threads, cfg)
        })
        .collect();
    trajectory_over(matrix, scale)
}

/// Runs each `(name, threads, config)` entry over the kernel suite's
/// `threads`-kernel co-schedules, one [`run_cells`] call per config so
/// each config's `wall_seconds` times that config alone.
fn trajectory_over(
    matrix: Vec<(&'static str, usize, SimConfig)>,
    scale: Scale,
) -> TrajectoryOutcome {
    let t_total = Instant::now();
    let opts = RunOptions::from_env();
    let mut configs = Vec::new();
    let mut total_insts: u64 = 0;
    let mut total_failed = 0usize;
    for (name, threads, cfg) in matrix {
        let t0 = Instant::now();
        let groups = kernel_groups(threads, scale);
        let cells: Vec<Cell<'_>> = groups
            .iter()
            .map(|g| Cell {
                workloads: g,
                config: &cfg,
            })
            .collect();
        let outcomes = run_cells(&cells, &opts);
        let wall = t0.elapsed().as_secs_f64();
        let ok: Vec<&SimResult> = outcomes.iter().flatten().collect();
        let failed = outcomes.len() - ok.len();
        total_failed += failed;
        let insts: u64 = ok.iter().map(|r| r.retired).sum();
        total_insts += insts;
        let ipcs: Vec<f64> = ok.iter().map(|r| r.ipc()).collect();
        let kernels = Json::arr(cells.iter().zip(&outcomes).map(|(cell, outcome)| {
            let name = ("name", Json::from(cell.label()));
            match outcome {
                Ok(r) => {
                    let mut fields = vec![
                        name,
                        ("cycles", Json::from(r.cycles)),
                        ("retired", Json::from(r.retired)),
                        ("ipc", Json::from(r.ipc())),
                    ];
                    if threads > 1 {
                        fields.push((
                            "thread_ipc",
                            Json::arr(
                                r.thread_retired
                                    .iter()
                                    .map(|&n| Json::from(n as f64 / r.cycles.max(1) as f64)),
                            ),
                        ));
                    }
                    Json::obj(fields)
                }
                Err(e) => Json::obj([
                    name,
                    (
                        "error",
                        Json::obj([
                            ("kind", Json::from(e.failure.kind())),
                            ("message", Json::from(e.reason())),
                        ]),
                    ),
                ]),
            }
        }));
        configs.push(Json::obj([
            ("name", Json::from(name)),
            ("wall_seconds", Json::from(wall)),
            ("instructions", Json::from(insts)),
            (
                "sim_insts_per_sec",
                Json::from(insts as f64 / wall.max(1e-9)),
            ),
            ("geomean_ipc", Json::from(geomean(&ipcs).unwrap_or(0.0))),
            ("failed", Json::from(failed)),
            ("kernels", kernels),
        ]));
    }
    let total_wall = t_total.elapsed().as_secs_f64();
    let doc = Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("scale", Json::from(format!("{scale:?}").to_lowercase())),
        ("workers", Json::from(max_workers())),
        ("total_wall_seconds", Json::from(total_wall)),
        (
            "total_sim_insts_per_sec",
            Json::from(total_insts as f64 / total_wall.max(1e-9)),
        ),
        ("failed", Json::from(total_failed)),
        ("configs", Json::arr(configs)),
    ]);
    TrajectoryOutcome {
        doc,
        failed: total_failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_document_has_the_published_schema() {
        let out = pipeline_trajectory(Scale::Tiny);
        assert_eq!(out.failed, 0);
        let s = out.doc.to_string();
        assert!(s.starts_with(&format!(r#"{{"schema":"{SCHEMA}""#)));
        for key in [
            r#""scale":"tiny""#,
            r#""workers":"#,
            r#""total_wall_seconds":"#,
            r#""total_sim_insts_per_sec":"#,
            r#""configs":["#,
            r#""name":"use-based""#,
            r#""name":"ehc""#,
            r#""name":"min-load""#,
            r#""name":"soft-protected""#,
            r#""name":"soft-cache-p200""#,
            r#""name":"soft-backing-p400""#,
            r#""name":"smt2-use-based""#,
            r#""name":"smt2-lru""#,
            r#""name":"smt2-use-based-rr""#,
            r#""name":"smt2-use-based-ic28""#,
            r#""name":"smt4-use-based-shared""#,
            r#""name":"smt4-use-based-waypart""#,
            r#""name":"smt4-use-based-occcap""#,
            r#""name":"smt4-lru-shared""#,
            r#""name":"smt4-lru-waypart""#,
            r#""name":"smt4-lru-occcap""#,
            r#""name":"smt4-use-based-dyncap""#,
            r#""name":"smt4-lru-dyncap""#,
            r#""name":"smt4-use-based-dynway""#,
            r#""name":"smt4-lru-dynway""#,
            r#""name":"qsort+bfs+listchase+strsearch""#,
            r#""thread_ipc":["#,
            r#""geomean_ipc":"#,
            r#""sim_insts_per_sec":"#,
            r#""kernels":["#,
        ] {
            assert!(s.contains(key), "missing `{key}` in {s}");
        }
    }

    #[test]
    fn trajectory_degrades_to_partial_results() {
        // One broken configuration in the matrix: its kernels become
        // error objects, the document still renders, and the failure
        // count is surfaced for the binary's non-zero exit.
        let mut broken = SimConfig::paper_default();
        broken.phys_regs = 8;
        let matrix = vec![
            ("good", 1, SimConfig::paper_default()),
            ("broken", 1, broken),
        ];
        let out = trajectory_over(matrix, Scale::Tiny);
        assert_eq!(out.failed, 12);
        let s = out.doc.to_string();
        assert!(s.contains(r#""name":"good""#));
        assert!(s.contains(r#""name":"broken""#));
        assert!(
            s.contains(r#""error":{"kind":"config""#),
            "missing error object in {s}"
        );
        assert!(s.contains(r#""failed":12"#));
    }
}
