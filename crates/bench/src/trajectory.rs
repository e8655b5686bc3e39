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

use crate::runner::{kernel_groups, max_workers, run_cells, Cell, RunOptions, SuiteError};
use std::time::Instant;
use ubrc_core::{CachePartition, IndexPolicy, ProtectionConfig, RegCacheConfig};
use ubrc_sim::{FaultKind, FaultPlan, RecoveryPolicy, RegStorage, SimConfig, SimResult};
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
/// cycles, from `SimResult::thread_retired`); `/5` added the optional
/// per-config `profile` section (per-stage wall-nanoseconds and call
/// counts summed over the config's kernels, present only when the run
/// was made with `--profile` / `UBRC_PROFILE`); `/6` dropped the
/// per-kernel retry count (the runner never reruns a cell: the
/// simulator is deterministic).
pub const SCHEMA: &str = "ubrc-bench-pipeline/6";

fn cached(cache: RegCacheConfig, index: IndexPolicy) -> SimConfig {
    SimConfig::table1(RegStorage::Cached {
        cache,
        index,
        backing_read: 2,
        backing_write: 2,
    })
}

/// The fixed configuration matrix the trajectory tracks: the paper's
/// three caching schemes plus the monolithic register-file baselines.
pub fn trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "rf-1",
            SimConfig::table1(RegStorage::Monolithic {
                read_latency: 1,
                write_latency: 1,
            }),
        ),
        (
            "rf-3",
            SimConfig::table1(RegStorage::Monolithic {
                read_latency: 3,
                write_latency: 3,
            }),
        ),
        (
            "lru",
            cached(RegCacheConfig::lru(64, 2), IndexPolicy::RoundRobin),
        ),
        (
            "non-bypass",
            cached(RegCacheConfig::non_bypass(64, 2), IndexPolicy::RoundRobin),
        ),
        (
            "use-based",
            cached(
                RegCacheConfig::use_based(64, 2),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "ehc",
            cached(
                RegCacheConfig::expected_hit_count(64, 2),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
        (
            "min-load",
            cached(RegCacheConfig::use_based(64, 2), IndexPolicy::MinLoad),
        ),
    ]
}

/// The soft-error configurations the trajectory tracks: the use-based
/// design point with full parity protection and machine-check recovery
/// enabled, once fault-free (pinning the zero-overhead claim: its
/// numbers must match `use-based`) and once under each class of
/// periodic recoverable fault (pinning the cost of the recovery
/// machinery itself).
pub fn soft_trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    let protected = |plan: Option<FaultPlan>| {
        let mut cache = RegCacheConfig::use_based(64, 2);
        cache.protection = ProtectionConfig::full();
        let mut cfg = cached(cache, IndexPolicy::FilteredRoundRobin);
        cfg.recovery = RecoveryPolicy::enabled();
        cfg.fault_plan = plan;
        cfg
    };
    vec![
        ("soft-protected", protected(None)),
        (
            "soft-cache-p200",
            protected(Some(FaultPlan::periodic(7, 200, FaultKind::FlipCacheData))),
        ),
        (
            "soft-backing-p400",
            protected(Some(FaultPlan::periodic(
                9,
                400,
                FaultKind::FlipBackingWord,
            ))),
        ),
    ]
}

/// The 2-thread SMT configurations the trajectory tracks: each cell
/// runs every [`ubrc_workloads::kernel_pairs`] pairing co-scheduled on
/// one core, so its `ipc` columns are aggregate (two-thread) IPC. The
/// `rr`/`ic28` cells pin the fetch-policy ablation (the default cells
/// fetch with ICOUNT.1.8).
pub fn smt_trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    let fetch = |mut cfg: SimConfig, policy: ubrc_sim::FetchPolicy| {
        cfg.fetch_policy = policy;
        cfg
    };
    let ub = || {
        cached(
            RegCacheConfig::use_based(64, 2),
            IndexPolicy::FilteredRoundRobin,
        )
    };
    vec![
        ("smt2-use-based", ub()),
        (
            "smt2-lru",
            cached(RegCacheConfig::lru(64, 2), IndexPolicy::RoundRobin),
        ),
        (
            "smt2-use-based-rr",
            fetch(ub(), ubrc_sim::FetchPolicy::RoundRobin),
        ),
        (
            "smt2-use-based-ic28",
            fetch(ub(), ubrc_sim::FetchPolicy::Icount28),
        ),
    ]
}

/// The 4-thread SMT configurations the trajectory tracks: each cell
/// runs every [`ubrc_workloads::kernel_quads`] grouping co-scheduled on
/// one core under the {use-based, LRU} × {shared, way-partitioned,
/// occupancy-capped, dynamic-cap} register-cache matrix (64-entry 4-way
/// geometry so the ways divide across the threads) plus dynamic-way at
/// 64x8 (so whole ways can move), so its `ipc` columns are aggregate
/// (four-thread) IPC.
pub fn smt4_trajectory_configs() -> Vec<(&'static str, SimConfig)> {
    type Scheme = (fn(usize, usize) -> RegCacheConfig, IndexPolicy);
    let ub: Scheme = (RegCacheConfig::use_based, IndexPolicy::FilteredRoundRobin);
    let lru: Scheme = (RegCacheConfig::lru, IndexPolicy::RoundRobin);
    let dyncap = CachePartition::DynamicCap {
        epoch_cycles: 128,
        min_cap: 4,
    };
    let dynway = CachePartition::DynamicWay { epoch_cycles: 128 };
    [
        ("smt4-use-based-shared", ub, CachePartition::Shared, 4),
        (
            "smt4-use-based-waypart",
            ub,
            CachePartition::WayPartition,
            4,
        ),
        ("smt4-use-based-occcap", ub, CachePartition::OccupancyCap, 4),
        ("smt4-lru-shared", lru, CachePartition::Shared, 4),
        ("smt4-lru-waypart", lru, CachePartition::WayPartition, 4),
        ("smt4-lru-occcap", lru, CachePartition::OccupancyCap, 4),
        ("smt4-use-based-dyncap", ub, dyncap, 4),
        ("smt4-lru-dyncap", lru, dyncap, 4),
        ("smt4-use-based-dynway", ub, dynway, 8),
        ("smt4-lru-dynway", lru, dynway, 8),
    ]
    .into_iter()
    .map(|(name, (scheme, index), partition, ways)| {
        let mut cache = scheme(64, ways);
        cache.partition = partition;
        (name, cached(cache, index))
    })
    .collect()
}

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
    let with_threads = |threads: usize, configs: Vec<(&'static str, SimConfig)>| {
        configs
            .into_iter()
            .map(move |(name, cfg)| (name, threads, cfg))
    };
    let matrix = with_threads(1, trajectory_configs())
        .chain(with_threads(1, soft_trajectory_configs()))
        .chain(with_threads(2, smt_trajectory_configs()))
        .chain(with_threads(4, smt4_trajectory_configs()))
        .collect();
    trajectory_over(matrix, scale)
}

/// Sums the per-stage self-profiles of a config's successful kernels
/// into one `profile` JSON section (stage order as the pipeline runs
/// them). `None` when no kernel carried a profile — i.e. the run was
/// made without `--profile` — so the section never appears empty.
fn aggregate_profile(outcomes: &[Result<SimResult, SuiteError>]) -> Option<Json> {
    let mut stages: Vec<(&'static str, u64, u64)> = Vec::new();
    for r in outcomes.iter().flatten() {
        let Some(p) = &r.profile else { continue };
        for s in &p.stages {
            match stages.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, nanos, calls)) => {
                    *nanos += s.nanos;
                    *calls += s.calls;
                }
                None => stages.push((s.name, s.nanos, s.calls)),
            }
        }
    }
    if stages.is_empty() {
        return None;
    }
    let total: u64 = stages.iter().map(|&(_, nanos, _)| nanos).sum();
    Some(Json::obj([
        ("total_nanos", Json::from(total)),
        (
            "stages",
            Json::arr(stages.into_iter().map(|(name, nanos, calls)| {
                Json::obj([
                    ("name", Json::from(name)),
                    ("nanos", Json::from(nanos)),
                    ("calls", Json::from(calls)),
                ])
            })),
        ),
    ]))
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
        let mut fields = vec![
            ("name", Json::from(name)),
            ("wall_seconds", Json::from(wall)),
            ("instructions", Json::from(insts)),
            (
                "sim_insts_per_sec",
                Json::from(insts as f64 / wall.max(1e-9)),
            ),
            ("geomean_ipc", Json::from(geomean(&ipcs).unwrap_or(0.0))),
            ("failed", Json::from(failed)),
        ];
        if let Some(profile) = aggregate_profile(&outcomes) {
            fields.push(("profile", profile));
        }
        fields.push(("kernels", kernels));
        configs.push(Json::obj(fields));
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
    fn profile_section_aggregates_per_stage_samples() {
        let w = ubrc_workloads::workload_by_name("crc", Scale::Tiny).unwrap();
        let cfg = SimConfig::paper_default();
        let cell = Cell {
            workloads: std::slice::from_ref(&w),
            config: &cfg,
        };
        let opts = RunOptions {
            profile: true,
            ..RunOptions::default()
        };
        let outcomes = run_cells(&[cell, cell], &opts);
        let profile = aggregate_profile(&outcomes).expect("profiled run has a section");
        let s = profile.to_string();
        assert!(s.contains(r#""total_nanos":"#), "missing total in {s}");
        for stage in ["inject", "issue", "rename", "fetch", "storage-tick"] {
            assert!(
                s.contains(&format!(r#""name":"{stage}""#)),
                "missing {stage} in {s}"
            );
        }
        // Two identical profiled kernels: every stage ran in both, so
        // each per-stage call count is even and positive.
        assert!(!s.contains(r#""calls":0"#), "stage with zero calls in {s}");
        // Without profiling there is no section at all.
        let plain = run_cells(&[cell], &RunOptions::default());
        assert!(aggregate_profile(&plain).is_none());
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
