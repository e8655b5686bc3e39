//! One experiment per table/figure of the paper (§5, Evaluation).
//!
//! Every function returns a [`Table`] whose rows mirror what the paper
//! plots. Absolute values differ from the paper (different ISA,
//! workloads, and scale — see DESIGN.md); the *shapes* are the
//! reproduction target and are recorded in EXPERIMENTS.md.

use crate::runner::{kernel_groups, run_cells, Cell, RunOptions, SuiteError};
use ubrc_sim::{SimConfig, SimResult};
use ubrc_stats::{geomean, Table};
use ubrc_workloads::{synthetic::SyntheticSpec, Scale, Workload};

/// The config a spec names (see `ubrc_sim::SimConfig`'s `FromStr`).
/// Every design point here is a fixed spec, so a rejected one is a
/// harness bug.
fn spec(spec: &str) -> SimConfig {
    spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"))
}

/// The three caching schemes the paper compares, at a given geometry
/// and backing-file latency, each under the indexing its spec base
/// pairs it with.
fn schemes(entries: usize, ways: usize, backing: u32) -> Vec<(&'static str, SimConfig)> {
    ["lru", "non-bypass", "use-based"]
        .map(|name| {
            let cfg = spec(&format!(
                "{name},entries={entries},ways={ways},backing={backing}"
            ));
            (name, cfg)
        })
        .into()
}

/// Table 1: the simulated machine configuration.
pub fn table1() -> Table {
    let c = SimConfig::paper_default();
    let mut t = Table::new(["parameter", "value"]);
    t.row(["fetch/issue/retire width", "8 / 8 / 8"]);
    t.row([
        "front-end depth (fetch+decode+rename+dispatch)".to_string(),
        format!("{} stages", c.frontend_stages),
    ]);
    t.row([
        "issue window / ROB / physical registers".to_string(),
        format!("{} / {} / {}", c.window_entries, c.rob_entries, c.phys_regs),
    ]);
    t.row([
        "min branch mis-speculation loop".to_string(),
        format!("{} cycles", c.min_branch_penalty),
    ]);
    t.row(["bypass stages".to_string(), format!("{}", c.bypass_stages)]);
    t.row([
        "int ALU/branch/int-mul/fp-ALU/fp-mul/load/store units".to_string(),
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            c.fu.int_alu,
            c.fu.branch,
            c.fu.int_mul,
            c.fu.fp_alu,
            c.fu.fp_mul,
            c.fu.load,
            c.fu.store
        ),
    ]);
    t.row([
        "L1 I/D caches".to_string(),
        format!(
            "{}KB {}-way {}B lines",
            c.memsys.l1.size_bytes >> 10,
            c.memsys.l1.ways,
            c.memsys.l1.line_bytes
        ),
    ]);
    t.row([
        "L2 cache".to_string(),
        format!(
            "{}MB {}-way, {}-cycle",
            c.memsys.l2.size_bytes >> 20,
            c.memsys.l2.ways,
            c.memsys.l2_latency
        ),
    ]);
    t.row([
        "memory latency".to_string(),
        format!("{} cycles", c.memsys.memory_latency),
    ]);
    t.row([
        "store buffer".to_string(),
        format!("{} entries, coalescing", c.memsys.store_buffer_entries),
    ]);
    t.row([
        "degree-of-use predictor".to_string(),
        format!(
            "{} entries, {}-way, 2-bit confidence",
            c.douse.sets * c.douse.ways,
            c.douse.ways
        ),
    ]);
    t
}

/// The successful runs of one configuration over a set of kernel
/// groups: `(label, result)` pairs in group order.
struct SuiteResult {
    runs: Vec<(String, SimResult)>,
}

impl SuiteResult {
    /// Geometric-mean IPC across the runs.
    fn geomean_ipc(&self) -> f64 {
        let ipcs: Vec<f64> = self.runs.iter().map(|(_, r)| r.ipc()).collect();
        geomean(&ipcs).unwrap_or(0.0)
    }

    /// Arithmetic mean of a per-run metric, skipping runs where the
    /// metric is undefined.
    fn mean_of<F>(&self, f: F) -> Option<f64>
    where
        F: Fn(&SimResult) -> Option<f64>,
    {
        let vals: Vec<f64> = self.runs.iter().filter_map(|(_, r)| f(r)).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Runs every config over every set of kernel groups — all cells in one
/// [`run_cells`] call — and returns one [`SuiteResult`] per (config,
/// set) pair, config-major.
///
/// # Errors
///
/// The [`SuiteError`] of the first failed cell, in cell order.
fn run_matrix(
    configs: &[SimConfig],
    sets: &[Vec<Vec<Workload>>],
    opts: &RunOptions,
) -> Result<Vec<SuiteResult>, SuiteError> {
    let cells: Vec<Cell<'_>> = configs
        .iter()
        .flat_map(|config| {
            sets.iter().flatten().map(move |g| Cell {
                workloads: g,
                config,
            })
        })
        .collect();
    let mut outcomes = cells.iter().zip(run_cells(&cells, opts));
    let mut out = Vec::with_capacity(configs.len() * sets.len());
    for _ in configs {
        for set in sets {
            let runs = outcomes
                .by_ref()
                .take(set.len())
                .map(|(cell, r)| Ok((cell.label(), r?)))
                .collect::<Result<_, SuiteError>>()?;
            out.push(SuiteResult { runs });
        }
    }
    Ok(out)
}

/// [`run_matrix`] over the single-thread kernel suite.
fn run_suites(
    configs: &[SimConfig],
    scale: Scale,
    opts: &RunOptions,
) -> Result<Vec<SuiteResult>, SuiteError> {
    run_matrix(configs, &[kernel_groups(1, scale)], opts)
}

/// [`run_suites`] over labelled configs: each label with its config's
/// results, in order.
fn run_labelled<L>(
    rows: impl IntoIterator<Item = (L, SimConfig)>,
    scale: Scale,
    opts: &RunOptions,
) -> Result<Vec<(L, SuiteResult)>, SuiteError> {
    let (labels, configs): (Vec<L>, Vec<SimConfig>) = rows.into_iter().unzip();
    Ok(labels
        .into_iter()
        .zip(run_suites(&configs, scale, opts)?)
        .collect())
}

/// A table cell holding a suite's geometric-mean IPC.
fn ipc(res: &SuiteResult) -> String {
    format!("{:.4}", res.geomean_ipc())
}

/// A table row: `label`, then the geometric-mean IPC of each suite.
fn ipc_row(t: &mut Table, label: String, res: &[SuiteResult]) {
    t.row(std::iter::once(label).chain(res.iter().map(ipc)));
}

/// The 1-, 2- and 3-cycle no-cache register files that close the fig6,
/// fig11 and fig12 tables.
const RF_FILES: [&str; 3] = ["rf-1", "rf-2", "rf-3"];

fn rf_rows(t: &mut Table, res: &[SuiteResult]) {
    for (lat, r) in (1..).zip(res) {
        t.row([format!("RF {lat}-cycle (no cache)"), ipc(r)]);
    }
}

/// Figure 1: median register lifetime phases (empty / live / dead), in
/// cycles, per benchmark plus the mean of the per-benchmark medians.
pub fn fig1(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut cfg = spec("use-based");
    cfg.collect_lifetimes = true;
    let res = run_suites(&[cfg], scale, opts)?.remove(0);
    let mut t = Table::new(["benchmark", "empty", "live", "dead"]);
    let (mut es, mut ls, mut ds) = (0.0, 0.0, 0.0);
    for (name, r) in &res.runs {
        let lt = r.lifetimes.as_ref().expect("lifetimes enabled");
        let (e, l, d) = (
            lt.empty.median().unwrap_or(0),
            lt.live.median().unwrap_or(0),
            lt.dead.median().unwrap_or(0),
        );
        es += e as f64;
        ls += l as f64;
        ds += d as f64;
        t.row([name.clone(), e.to_string(), l.to_string(), d.to_string()]);
    }
    let n = res.runs.len() as f64;
    t.row_f64("mean-of-medians", [es / n, ls / n, ds / n], 1);
    Ok(t)
}

/// Figure 2: cumulative distributions of allocated physical registers
/// vs. simultaneously live values (percentile points, aggregated over
/// the suite).
pub fn fig2(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut cfg = spec("use-based");
    cfg.collect_lifetimes = true;
    let res = run_suites(&[cfg], scale, opts)?.remove(0);
    let mut alloc = ubrc_stats::Histogram::new();
    let mut live = ubrc_stats::Histogram::new();
    for (_, r) in &res.runs {
        let lt = r.lifetimes.as_ref().expect("lifetimes enabled");
        alloc.merge(&lt.alloc_concurrency);
        live.merge(&lt.live_concurrency);
    }
    let mut t = Table::new(["percentile", "allocated-regs", "live-values"]);
    for p in [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
        t.row([
            format!("{p}"),
            alloc.percentile(p).unwrap_or(0).to_string(),
            live.percentile(p).unwrap_or(0).to_string(),
        ]);
    }
    t.row([
        "median live / median allocated".to_string(),
        String::new(),
        format!(
            "{:.2}",
            live.median().unwrap_or(0) as f64 / alloc.median().unwrap_or(1).max(1) as f64
        ),
    ]);
    Ok(t)
}

/// Figure 6: geometric-mean IPC vs. cache size and organization
/// (standard indexing, use-based policies), with the no-cache register
/// file baselines.
pub fn fig6(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let sizes = [16usize, 32, 48, 64, 80, 96, 128];
    let mut configs: Vec<SimConfig> = sizes
        .iter()
        .flat_map(|&n| {
            [1, 2, 4, n]
                .map(|ways| spec(&format!("use-based,entries={n},ways={ways},index=standard")))
        })
        .collect();
    configs.extend(RF_FILES.map(spec));
    let res = run_suites(&configs, scale, opts)?;
    let (grid, rf) = res.split_at(sizes.len() * 4);
    let mut t = Table::new(["entries", "direct", "2-way", "4-way", "full"]);
    for (n, row) in sizes.iter().zip(grid.chunks(4)) {
        ipc_row(&mut t, n.to_string(), row);
    }
    rf_rows(&mut t, rf);
    Ok(t)
}

/// Figure 7: decoupled indexing policies vs. associativity (64-entry
/// use-based cache).
pub fn fig7(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let policies = [
        ("preg (standard)", "standard"),
        ("round-robin", "round-robin"),
        ("minimum", "minimum"),
        ("filtered", "filtered"),
        ("min-load", "min-load"),
    ];
    let configs: Vec<SimConfig> = policies
        .iter()
        .flat_map(|&(_, index)| {
            [1, 2, 4].map(|ways| spec(&format!("use-based,ways={ways},index={index}")))
        })
        .collect();
    let res = run_suites(&configs, scale, opts)?;
    let mut t = Table::new(["policy", "direct", "2-way", "4-way"]);
    for ((name, _), row) in policies.iter().zip(res.chunks(3)) {
        ipc_row(&mut t, name.to_string(), row);
    }
    Ok(t)
}

fn miss_breakdown_row(label: &str, res: &SuiteResult, t: &mut Table) {
    // "Miss rates are per operand, not instruction" (Figure 8): the
    // denominator counts every source operand, bypassed ones included.
    let mean = |f: &dyn Fn(&ubrc_core::RegCacheStats) -> u64| -> f64 {
        let vals: Vec<f64> = res
            .runs
            .iter()
            .filter_map(|(_, r)| {
                let ops = r.operands_bypassed + r.operands_from_storage;
                r.regcache
                    .as_ref()
                    .map(|c| f(c) as f64 / ops.max(1) as f64 * 100.0)
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let nw = mean(&|c| c.misses_not_written);
    let cap = mean(&|c| c.misses_capacity);
    let conf = mean(&|c| c.misses_conflict);
    t.row_f64(label, [nw, cap, conf, nw + cap + conf], 2);
}

/// Figure 8: per-operand miss-rate breakdown (not-written / capacity /
/// conflict) for the three schemes under standard and filtered
/// round-robin indexing. 64-entry, 2-way.
pub fn fig8(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut rows = Vec::new();
    for name in ["lru", "non-bypass", "use-based"] {
        for (iname, index) in [("standard", "standard"), ("filtered-rr", "filtered")] {
            let cfg = spec(&format!("{name},index={index},classify=on"));
            rows.push((format!("{name}/{iname}"), cfg));
        }
    }
    let mut t = Table::new([
        "scheme+index",
        "not-written%",
        "capacity%",
        "conflict%",
        "total%",
    ]);
    for (label, res) in run_labelled(rows, scale, opts)? {
        miss_breakdown_row(&label, &res, &mut t);
    }
    Ok(t)
}

/// Figure 9: average access bandwidth (accesses per cycle) to the
/// register cache and the backing file.
pub fn fig9(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut t = Table::new([
        "scheme",
        "cache-read",
        "cache-write",
        "file-read",
        "file-write",
    ]);
    for (name, res) in run_labelled(schemes(64, 2, 2), scale, opts)? {
        t.row_f64(
            name,
            [
                res.mean_of(|r| r.cache_read_bw()).unwrap_or(0.0),
                res.mean_of(|r| r.cache_write_bw()).unwrap_or(0.0),
                res.mean_of(|r| r.file_read_bw()).unwrap_or(0.0),
                res.mean_of(|r| r.file_write_bw()).unwrap_or(0.0),
            ],
            3,
        );
    }
    Ok(t)
}

/// Figure 10: filtering effects — % of cached values never read, % of
/// initial writes filtered, % of retired values never cached.
pub fn fig10(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut t = Table::new([
        "scheme",
        "cached-never-read%",
        "writes-filtered%",
        "never-cached%",
    ]);
    for (name, res) in run_labelled(schemes(64, 2, 2), scale, opts)? {
        let pct = |f: &dyn Fn(&ubrc_core::RegCacheStats) -> Option<f64>| {
            res.mean_of(|r| r.regcache.as_ref().and_then(f).map(|v| v * 100.0))
                .unwrap_or(0.0)
        };
        t.row_f64(
            name,
            [
                pct(&|c| c.frac_cached_never_read()),
                pct(&|c| c.frac_writes_filtered()),
                pct(&|c| c.frac_never_cached()),
            ],
            2,
        );
    }
    Ok(t)
}

/// Table 2: comparison of register cache metrics.
pub fn table2(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut t = Table::new(["average", "lru", "non-bypass", "use-based"]);
    let mut cols: Vec<[f64; 4]> = Vec::new();
    for (_, res) in run_labelled(schemes(64, 2, 2), scale, opts)? {
        let m = |f: &dyn Fn(&ubrc_core::RegCacheStats, &SimResult) -> Option<f64>| {
            res.mean_of(|r| r.regcache.as_ref().and_then(|c| f(c, r)))
                .unwrap_or(0.0)
        };
        cols.push([
            m(&|c, _| c.reads_per_cached_value()),
            m(&|c, _| c.cache_count_per_value()),
            m(&|c, r| c.occupancy.average(r.cycles)),
            m(&|c, _| c.avg_entry_lifetime()),
        ]);
    }
    for (i, label) in [
        "reads per cached value",
        "times each value is cached",
        "cache occupancy (entries)",
        "cache entry lifetime (cycles)",
    ]
    .iter()
    .enumerate()
    {
        t.row_f64(label, cols.iter().map(|c| c[i]), 2);
    }
    Ok(t)
}

/// §3 characterization: fraction of operands supplied by bypass (the
/// paper reports 57%) and fraction of replacement victims with zero
/// remaining uses (the paper reports 84%), under the proposed design.
pub fn charstats(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let res = run_suites(&[spec("use-based")], scale, opts)?.remove(0);
    let mut t = Table::new(["benchmark", "bypass%", "zero-use-victims%"]);
    for (name, r) in &res.runs {
        let zero = r
            .regcache
            .as_ref()
            .map(|c| {
                if c.evictions == 0 {
                    100.0
                } else {
                    c.evictions_zero_use as f64 / c.evictions as f64 * 100.0
                }
            })
            .unwrap_or(0.0);
        t.row_f64(name, [r.bypass_fraction().unwrap_or(0.0) * 100.0, zero], 2);
    }
    t.row_f64(
        "mean",
        [
            res.mean_of(|r| r.bypass_fraction()).unwrap_or(0.0) * 100.0,
            res.mean_of(|r| {
                r.regcache.as_ref().map(|c| {
                    if c.evictions == 0 {
                        1.0
                    } else {
                        c.evictions_zero_use as f64 / c.evictions as f64
                    }
                })
            })
            .unwrap_or(0.0)
                * 100.0,
        ],
        2,
    );
    Ok(t)
}

/// Figure 11: geometric-mean IPC vs. cache/L1 size for the three
/// caching schemes (plus 4-way use-based) and the two-level file.
pub fn fig11(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let sizes = [16usize, 32, 48, 64, 96, 128];
    // The two-level L1 must exceed the architectural register count
    // ("at least one more register than the number of architected
    // registers", §5.5) — below that it cannot run at all.
    let two_level_fits = |n: usize| n + 32 > ubrc_isa::NUM_ARCH_REGS as usize + 4;
    let mut configs = Vec::new();
    for &n in &sizes {
        configs.extend(schemes(n, 2, 2).into_iter().map(|(_, cfg)| cfg));
        configs.push(spec(&format!("use-based,entries={n},ways=4")));
        if two_level_fits(n) {
            configs.push(spec(&format!("two-level,entries={}", n + 32)));
        }
    }
    configs.extend(RF_FILES.map(spec));
    let res = run_suites(&configs, scale, opts)?;
    let mut t = Table::new([
        "entries",
        "lru",
        "non-bypass",
        "use-based",
        "use-based-4way",
        "two-level(+32)",
    ]);
    let mut res = res.iter();
    for &n in &sizes {
        let mut row = vec![n.to_string()];
        row.extend(res.by_ref().take(4).map(ipc));
        row.push(if two_level_fits(n) {
            ipc(res.next().expect("one two-level suite per fitting size"))
        } else {
            "-".to_string()
        });
        t.row(row);
    }
    rf_rows(&mut t, res.as_slice());
    Ok(t)
}

/// Figure 12: geometric-mean IPC vs. backing-file (or two-level L2)
/// latency. 64-entry caches, 96-entry two-level L1.
pub fn fig12(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let latencies = 1u32..=6;
    let mut configs = Vec::new();
    for lat in latencies.clone() {
        configs.extend(schemes(64, 2, lat).into_iter().map(|(_, cfg)| cfg));
        configs.push(spec(&format!("two-level,backing={lat}")));
    }
    configs.extend(RF_FILES.map(spec));
    let res = run_suites(&configs, scale, opts)?;
    let (grid, rf) = res.split_at(configs.len() - RF_FILES.len());
    let mut t = Table::new([
        "backing-latency",
        "lru",
        "non-bypass",
        "use-based",
        "two-level",
    ]);
    for (lat, row) in latencies.zip(grid.chunks(4)) {
        ipc_row(&mut t, lat.to_string(), row);
    }
    rf_rows(&mut t, rf);
    Ok(t)
}

/// §5.3 tuning: the maximum use count (pinning limit) sweep.
pub fn maxuse(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows =
        [1u8, 2, 3, 5, 6, 7, 9, 12, 15].map(|max| (max, spec(&format!("use-based,max-use={max}"))));
    let mut t = Table::new(["max-use-count", "geomean-ipc", "miss-rate%"]);
    for (max, res) in run_labelled(rows, scale, opts)? {
        let miss = res
            .mean_of(|r| r.regcache.as_ref().and_then(|c| c.miss_rate()))
            .unwrap_or(0.0);
        t.row_f64(&max.to_string(), [res.geomean_ipc(), miss * 100.0], 4);
    }
    Ok(t)
}

/// §5.3 tuning: unknown-default × fill-default grid.
pub fn defaults(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let configs: Vec<SimConfig> = (0u8..=3)
        .flat_map(|unknown| {
            (0u8..=2).map(move |fill| spec(&format!("use-based,unknown={unknown},fill={fill}")))
        })
        .collect();
    let res = run_suites(&configs, scale, opts)?;
    let mut t = Table::new(["unknown\\fill", "fill=0", "fill=1", "fill=2"]);
    for (unknown, row) in (0u8..=3).zip(res.chunks(3)) {
        ipc_row(&mut t, format!("unknown={unknown}"), row);
    }
    Ok(t)
}

/// §5.5 ablation: two-level L1↔L2 transfer bandwidth.
pub fn twolevel_bw(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows = [1u32, 2, 4, 8].map(|bw| (bw, spec(&format!("two-level,transfers={bw}"))));
    let mut t = Table::new(["transfers/cycle", "geomean-ipc", "rename-stalls"]);
    for (bw, res) in run_labelled(rows, scale, opts)? {
        let stalls: u64 = res.runs.iter().map(|(_, r)| r.dispatch_stall_pregs).sum();
        t.row([bw.to_string(), ipc(&res), stalls.to_string()]);
    }
    Ok(t)
}

/// §3.3: degree-of-use predictor accuracy and coverage per benchmark.
pub fn douse_accuracy(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let res = run_suites(&[spec("use-based")], scale, opts)?.remove(0);
    let mut t = Table::new(["benchmark", "accuracy%", "coverage%"]);
    for (name, r) in &res.runs {
        t.row_f64(
            name,
            [
                r.douse.accuracy().unwrap_or(0.0) * 100.0,
                r.douse.coverage().unwrap_or(0.0) * 100.0,
            ],
            2,
        );
    }
    t.row_f64(
        "mean",
        [
            res.mean_of(|r| r.douse.accuracy()).unwrap_or(0.0) * 100.0,
            res.mean_of(|r| r.douse.coverage()).unwrap_or(0.0) * 100.0,
        ],
        2,
    );
    Ok(t)
}

/// §4.2 ablation: filtered round-robin parameters (high-use degree
/// threshold × per-set skip threshold).
pub fn filtered_params(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let degrees = [3u8, 5, 7];
    let configs: Vec<SimConfig> = degrees
        .iter()
        .flat_map(|&degree| {
            (0u32..=2).map(move |skip| spec(&format!("use-based,filter={degree}:{skip}")))
        })
        .collect();
    let res = run_suites(&configs, scale, opts)?;
    let mut t = Table::new(["high-use>", "skip>0", "skip>1", "skip>2"]);
    for (degree, row) in degrees.iter().zip(res.chunks(3)) {
        ipc_row(&mut t, degree.to_string(), row);
    }
    Ok(t)
}

/// Extension (motivated by §1's citation of Ahuja et al. on incomplete
/// bypassing): how the bypass-network depth interacts with each
/// register storage organization.
pub fn bypass_depth(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let depths = [1u32, 2, 3];
    let configs: Vec<SimConfig> = depths
        .iter()
        .flat_map(|&stages| {
            ["use-based", "rf-1", "rf-3"].map(|base| spec(&format!("{base},bypass={stages}")))
        })
        .collect();
    let res = run_suites(&configs, scale, opts)?;
    let mut t = Table::new(["bypass-stages", "use-based", "RF-1", "RF-3"]);
    for (stages, row) in depths.iter().zip(res.chunks(3)) {
        ipc_row(&mut t, stages.to_string(), row);
    }
    Ok(t)
}

/// §4.1: decoupled indexing "trivially enables the use of
/// non-power-of-two-sized caches" — sweep odd sizes around the design
/// point (standard indexing cannot express these set counts cleanly;
/// the assigner handles them natively).
pub fn odd_sizes(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows = [40usize, 48, 56, 64, 72, 88].map(|n| (n, spec(&format!("use-based,entries={n}"))));
    let mut t = Table::new(["entries(2-way)", "sets", "geomean-ipc"]);
    for (n, res) in run_labelled(rows, scale, opts)? {
        t.row([n.to_string(), (n / 2).to_string(), ipc(&res)]);
    }
    Ok(t)
}

/// §3.4 robustness: performance when the degree-of-use information is
/// degraded — predictor disabled (unknown default only), hair-trigger
/// confidence (noisy predictions), and the paper's configuration.
pub fn robustness(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let variants = [
        ("paper default (2-bit confidence)", "use-based"),
        // A threshold above the confidence ceiling means the predictor
        // never supplies a prediction.
        (
            "no predictor (unknown default only)",
            "use-based,douse-conf=255",
        ),
        (
            "zero-confidence (noisy predictions)",
            "use-based,douse-conf=0",
        ),
    ]
    .map(|(name, s)| (name, spec(s)));
    let mut t = Table::new(["degree-information", "geomean-ipc", "miss/operand %"]);
    for (name, res) in run_labelled(variants, scale, opts)? {
        let miss = res.mean_of(|r| r.miss_rate_per_operand()).unwrap_or(0.0);
        t.row_f64(name, [res.geomean_ipc(), miss * 100.0], 4);
    }
    Ok(t)
}

/// Extension: cost of load-hit speculation (the 21264 mechanism the
/// paper reuses for register-cache misses) vs. an oracle scheduler.
pub fn loadspec(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows = [
        ("hit-speculation (default)", "on"),
        ("oracle wakeup", "off"),
    ]
    .map(|(name, on)| (name, spec(&format!("use-based,load-spec={on}"))));
    let mut t = Table::new(["load scheduling", "geomean-ipc", "mis-speculations"]);
    for (name, res) in run_labelled(rows, scale, opts)? {
        let misses: u64 = res.runs.iter().map(|(_, r)| r.load_miss_speculations).sum();
        t.row([name.to_string(), ipc(&res), misses.to_string()]);
    }
    Ok(t)
}

/// Extension: degree-of-use predictor capacity sweep (the paper uses
/// the 4K-entry predictor of Butts & Sohi MICRO 2002; smaller tables
/// lose coverage and leave more values on the unknown default).
pub fn douse_size(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows =
        [16usize, 64, 256, 1024].map(|sets| (sets, spec(&format!("use-based,douse-sets={sets}"))));
    let mut t = Table::new(["entries(4-way)", "geomean-ipc", "accuracy%", "coverage%"]);
    for (sets, res) in run_labelled(rows, scale, opts)? {
        t.row_f64(
            &format!("{}", sets * 4),
            [
                res.geomean_ipc(),
                res.mean_of(|r| r.douse.accuracy()).unwrap_or(0.0) * 100.0,
                res.mean_of(|r| r.douse.coverage()).unwrap_or(0.0) * 100.0,
            ],
            3,
        );
    }
    Ok(t)
}

/// Extension: cost of store→load ordering through the LSQ (the
/// Table 1 machine has 128-entry load/store queues; disabling the
/// model shows how much memory-dependence serialization costs).
pub fn lsq(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows = [("modeled (default)", "on"), ("ignored", "off")]
        .map(|(name, on)| (name, spec(&format!("use-based,lsq={on}"))));
    let mut t = Table::new(["store->load ordering", "geomean-ipc", "lsq-stall-slots"]);
    for (name, res) in run_labelled(rows, scale, opts)? {
        let stalls: u64 = res.runs.iter().map(|(_, r)| r.store_forward_stalls).sum();
        t.row([name.to_string(), ipc(&res), stalls.to_string()]);
    }
    Ok(t)
}

/// Extension: the extended (FP/mixed) kernels under each register
/// storage organization — the paper evaluates SPECint only; this checks
/// the conclusions hold beyond integer code.
pub fn extended(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut configs: Vec<SimConfig> = schemes(64, 2, 2).into_iter().map(|(_, c)| c).collect();
    configs.push(spec("rf-3"));
    let kernels = ubrc_workloads::extended_suite(scale)
        .into_iter()
        .map(|w| vec![w])
        .collect();
    let res = run_matrix(&configs, &[kernels], opts)?;
    let mut t = Table::new(["kernel", "lru", "non-bypass", "use-based", "RF-3"]);
    for (i, (name, _)) in res[0].runs.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(res.iter().map(|r| format!("{:.4}", r.runs[i].1.ipc())));
        t.row(row);
    }
    Ok(t)
}

/// §2.2 ablation: "a single read port suffices" for the backing file —
/// sweep the port count and show the flat curve.
pub fn backing_ports(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows = [1usize, 2, 4].map(|ports| (ports, spec(&format!("use-based,ports={ports}"))));
    let mut t = Table::new(["read-ports", "geomean-ipc", "contention-cycles"]);
    for (ports, res) in run_labelled(rows, scale, opts)? {
        let contention: u64 = res
            .runs
            .iter()
            .filter_map(|(_, r)| r.backing.map(|b| b.port_contention_cycles))
            .sum();
        t.row([ports.to_string(), ipc(&res), contention.to_string()]);
    }
    Ok(t)
}

/// Front-end ablation: the register cache under different conditional
/// branch predictors (the mis-speculation loop interacts with the
/// cache's replay loop).
pub fn predictors(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows = [
        ("not-taken", "not-taken"),
        ("bimodal 4KB", "bimodal"),
        ("gshare 4KB", "gshare"),
        ("yags 12KB (paper)", "yags"),
    ]
    .map(|(name, kind)| (name, spec(&format!("use-based,predictor={kind}"))));
    let mut t = Table::new(["predictor", "geomean-ipc", "mispredict%"]);
    for (name, res) in run_labelled(rows, scale, opts)? {
        let mr = res.mean_of(|r| r.branch_mispredict_rate()).unwrap_or(0.0);
        t.row_f64(name, [res.geomean_ipc(), mr * 100.0], 4);
    }
    Ok(t)
}

/// Extension: miss rate of the three schemes under synthetic programs
/// with controlled degree-of-use distributions (not in the paper; shows
/// directly that use-based management keys on the distribution).
pub fn synthetic_sweep(_scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let specs = [
        ("single-use-heavy", SyntheticSpec::single_use_heavy(11)),
        ("high-use", SyntheticSpec::high_use(11)),
        ("dead-value-heavy", SyntheticSpec::dead_value_heavy(11)),
    ];
    let configs: Vec<SimConfig> = schemes(64, 2, 2).into_iter().map(|(_, c)| c).collect();
    let programs = specs.iter().map(|(_, spec)| vec![spec.build()]).collect();
    let res = run_matrix(&configs, &[programs], opts)?;
    let mut t = Table::new([
        "distribution",
        "lru-miss%",
        "non-bypass-miss%",
        "use-based-miss%",
    ]);
    for (i, (name, _)) in specs.iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(res.iter().map(|r| {
            let miss = r.runs[i]
                .1
                .regcache
                .as_ref()
                .and_then(|c| c.miss_rate())
                .unwrap_or(0.0);
            format!("{:.2}", miss * 100.0)
        }));
        t.row(row);
    }
    Ok(t)
}

/// Extension: replacement-policy comparison at the design point
/// (64-entry, 2-way, filtered round-robin indexing). `expected-hit-count`
/// ([`ubrc_core::ReplacementPolicy::ExpectedHitCount`]) is identical to
/// use-based fewest-remaining-uses except that fill-installed entries
/// are floored at one expected hit — the miss that forced the fill is
/// evidence the degree prediction undercounted (after Vakil Ghahani et
/// al., "Making Belady-Inspired Replacement Policies More Effective
/// Using Expected Hit Count").
pub fn ehc(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let rows = [
        ("lru", "lru,index=filtered"),
        ("fewest-uses (paper)", "use-based"),
        ("expected-hit-count", "ehc"),
    ]
    .map(|(name, base)| (name, spec(base)));
    let mut t = Table::new(["replacement", "geomean-ipc", "miss/operand %"]);
    for (name, res) in run_labelled(rows, scale, opts)? {
        let miss = res.mean_of(|r| r.miss_rate_per_operand()).unwrap_or(0.0);
        t.row_f64(name, [res.geomean_ipc(), miss * 100.0], 4);
    }
    Ok(t)
}

/// Extension: SMT co-scheduling. Each [`ubrc_workloads::kernel_pairs`]
/// pairing runs on one 2-thread core (replicated front end,
/// partitioned register file, shared issue/execute/cache — see
/// DESIGN.md, "SMT front end") and the aggregate IPC is compared with
/// the single-thread suite geomean under the same storage scheme. Two
/// threads double the pressure on the shared register cache without
/// doubling its capacity, so the fewest-uses-vs-LRU gap should *widen*
/// relative to the 1-thread column.
pub fn smt(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let variants = [
        ("use-based", spec("use-based")),
        ("lru", spec("lru")),
        ("no-cache (RF 3-cycle)", spec("rf-3")),
    ];
    let (names, configs): (Vec<&str>, Vec<SimConfig>) = variants.into_iter().unzip();
    let res = run_matrix(
        &configs,
        &[kernel_groups(1, scale), kernel_groups(2, scale)],
        opts,
    )?;
    let mut t = Table::new(["scheme", "1T-geomean-ipc", "2T-geomean-ipc", "2T/1T"]);
    for (name, pair) in names.into_iter().zip(res.chunks(2)) {
        let (one, two) = (pair[0].geomean_ipc(), pair[1].geomean_ipc());
        t.row_f64(name, [one, two, two / one], 4);
    }
    Ok(t)
}

/// SMT fairness: the harmonic mean of per-thread speedups versus the
/// shared-cache baseline, over every (quad, thread) pair. Each
/// thread's IPC is its retired count over the cell's shared cycles
/// (the per-kernel `thread_ipc` the trajectory also records); its
/// speedup is that IPC over the same thread's IPC in the baseline run
/// of the same quad. The harmonic mean punishes schemes that buy
/// aggregate IPC by starving one thread, so a partition that helps
/// everyone evenly scores near its `vs-shared` ratio while an unfair
/// one scores visibly lower. The baseline scores exactly 1.
fn fairness_vs_shared(baseline: &SuiteResult, run: &SuiteResult) -> f64 {
    let mut inv_sum = 0.0;
    let mut n = 0usize;
    for ((_, b), (_, r)) in baseline.runs.iter().zip(&run.runs) {
        for (&bt, &rt) in b.thread_retired.iter().zip(&r.thread_retired) {
            let base_ipc = bt as f64 / b.cycles.max(1) as f64;
            let ipc = rt as f64 / r.cycles.max(1) as f64;
            if base_ipc > 0.0 && ipc > 0.0 {
                inv_sum += base_ipc / ipc;
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / inv_sum
    }
}

/// The 4-thread partition matrix behind [`smt4`], [`ucp`] and
/// [`dynway`]: each [`ubrc_workloads::kernel_quads`] grouping runs on
/// one 4-thread core, and the aggregate IPC is reported for both
/// replacement schemes (use-based, LRU) at 64 entries × `ways` under
/// each `(label, spec keys)` partition. The first partition is the
/// `vs-shared` baseline, and
/// the `fairness-hmean` column (see [`fairness_vs_shared`]) sits
/// alongside the aggregate ratio.
fn partition_matrix(
    scale: Scale,
    opts: &RunOptions,
    ways: usize,
    partitions: &[(&str, &str)],
) -> Result<Table, SuiteError> {
    let schemes = ["use-based", "lru"];
    let mut configs = Vec::new();
    for scheme in schemes {
        for (_, keys) in partitions {
            configs.push(spec(&format!("{scheme},ways={ways},{keys}")));
        }
    }
    let res = run_matrix(&configs, &[kernel_groups(4, scale)], opts)?;
    let mut t = Table::new([
        "scheme",
        "partition",
        "4T-geomean-ipc",
        "vs-shared",
        "fairness-hmean",
    ]);
    for (scheme, rows) in schemes.iter().zip(res.chunks(partitions.len())) {
        let baseline = &rows[0];
        for ((pname, _), r) in partitions.iter().zip(rows) {
            let ipc = r.geomean_ipc();
            t.row([
                scheme.to_string(),
                pname.to_string(),
                format!("{ipc:.4}"),
                format!("{:.4}", ipc / baseline.geomean_ipc()),
                format!("{:.4}", fairness_vs_shared(baseline, r)),
            ]);
        }
    }
    Ok(t)
}

/// Extension: 4-thread SMT register-cache partitioning, {use-based,
/// LRU} × {shared, way-partitioned, occupancy-capped}. The geometry is
/// 64 entries x 4 ways so `WayPartition` gives each thread exactly one
/// way per set. A shared cache lets a register-hungry thread crowd out
/// its siblings; the partition policies trade that interference against
/// lower effective capacity per thread, and the `vs-shared` column
/// shows which effect wins for each replacement scheme.
pub fn smt4(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    partition_matrix(
        scale,
        opts,
        4,
        &[
            ("shared", "partition=shared"),
            ("way-partition", "partition=waypart"),
            ("occupancy-cap", "partition=occcap"),
        ],
    )
}

/// Extension: soft-error detection and recovery. Sweeps a periodic
/// recoverable-fault stream — one fault class per row, at one armed
/// fault per `period` cycles — against the parity layer that covers it,
/// with machine-check recovery enabled, and reports the IPC degradation
/// curve plus the recovery cost over the kernel suite: total
/// recoveries, the machine-check subset, and the median/p99 of the
/// per-recovery latency distribution (merged across kernels). The two
/// fault-free rows pin the zero-overhead claim: `protected` must match
/// `unprotected` exactly.
pub fn soft(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let mut rows: Vec<(String, SimConfig)> = vec![
        ("unprotected".into(), spec("use-based")),
        ("protected, fault-free".into(), spec("use-based,protect=on")),
    ];
    for kind in ["cache-data", "use-counter", "backing-word"] {
        for period in [400, 100] {
            let cfg = spec(&format!("use-based,protect=on,fault={kind}:{period}:11"));
            rows.push((format!("{kind} 1/{period}cyc"), cfg));
        }
    }
    let mut t = Table::new([
        "config",
        "geomean-ipc",
        "recoveries",
        "machine-checks",
        "p50-latency",
        "p99-latency",
    ]);
    for (name, res) in run_labelled(rows, scale, opts)? {
        let mut latency = ubrc_stats::Histogram::new();
        let (mut recoveries, mut machine_checks) = (0u64, 0u64);
        for (_, r) in &res.runs {
            recoveries += r.recoveries;
            machine_checks += r.machine_checks();
            latency.merge(&r.recovery_latency);
        }
        let pct = |p: f64| {
            latency
                .percentile(p)
                .map_or("-".to_string(), |v| v.to_string())
        };
        t.row([
            name,
            ipc(&res),
            recoveries.to_string(),
            machine_checks.to_string(),
            pct(50.0),
            pct(99.0),
        ]);
    }
    Ok(t)
}

/// Tentpole extension: utility-driven dynamic register-cache
/// partitioning (after Qureshi & Patt's UCP, MICRO 2006, transplanted
/// to the register cache). The 4-thread partition matrix of [`smt4`]
/// gains a `dynamic-cap` row: per-thread shadow-tag utility monitors
/// feed a lookahead partitioner that recomputes the occupancy quotas
/// every 128 cycles (floor 4 entries/thread), so the cache tracks
/// each quad's phase behavior instead of freezing the even split.
/// Static occupancy capping pays for isolation with capacity
/// (`vs-shared` < 1); the dynamic row should close most of that gap by
/// granting quota where the monitors see marginal hits.
pub fn ucp(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    partition_matrix(
        scale,
        opts,
        4,
        &[
            ("shared", "partition=shared"),
            ("occupancy-cap", "partition=occcap"),
            ("dynamic-cap", "partition=dyncap"),
        ],
    )
}

/// Tentpole extension: UMON-guided dynamic *way* partitioning
/// ([`ubrc_core::CachePartition::DynamicWay`]). The [`smt4`] matrix
/// re-runs at 64 entries x 8 ways — wide enough that four threads start
/// with two ways each and the lookahead partitioner has whole ways to
/// move — comparing the static split (`way-partition`), entry-granular
/// dynamic quotas (`dynamic-cap`), way-granular reassignment
/// (`dynamic-way`, epoch 128), and the same partition under adaptive
/// epoch pacing (`dynamic-way adaptive`, epochs stretch 32..512 when
/// consecutive repartitions agree). Way reassignment keeps the
/// hard-isolation property of `WayPartition` (no set ever mixes
/// threads) while tracking phase behavior, so its row should land
/// between `dynamic-cap` and the static split's isolation tax.
pub fn dynway(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    partition_matrix(
        scale,
        opts,
        8,
        &[
            ("shared", "partition=shared"),
            ("way-partition", "partition=waypart"),
            ("dynamic-cap", "partition=dyncap"),
            ("dynamic-way", "partition=dynway"),
            ("dynamic-way adaptive", "partition=dynway,adapt=on"),
        ],
    )
}

/// Extension: the SMT fetch-policy × freelist matrix. Each fetch
/// chooser ({ICOUNT, round-robin, ICOUNT.2.8}) runs against both
/// rename-register organizations (statically partitioned freelists vs.
/// a shared pool capped at 96 live registers per thread) over the
/// 2-thread pair suite and the 4-thread quad suite, under the paper's
/// use-based cache. ICOUNT's advantage should grow with thread count
/// (round-robin lets a stalled thread hold fetch slots), while the
/// shared pool trades isolation for rename headroom.
pub fn fetchpol(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let policies = [
        ("icount (paper)", "icount"),
        ("round-robin", "round-robin"),
        ("icount.2.8", "icount28"),
    ];
    let freelists = [
        ("partitioned", "partitioned"),
        ("shared cap=96", "shared:96"),
    ];
    let mut rows = Vec::new();
    for (fname, fetch) in policies {
        for (flname, freelist) in freelists {
            let cfg = spec(&format!("use-based,fetch={fetch},freelist={freelist}"));
            rows.push(((fname, flname), cfg));
        }
    }
    let (names, configs): (Vec<(&str, &str)>, Vec<SimConfig>) = rows.into_iter().unzip();
    let res = run_matrix(
        &configs,
        &[kernel_groups(2, scale), kernel_groups(4, scale)],
        opts,
    )?;
    let mut t = Table::new([
        "fetch-policy",
        "freelist",
        "2T-geomean-ipc",
        "4T-geomean-ipc",
    ]);
    for ((fname, flname), two_four) in names.into_iter().zip(res.chunks(2)) {
        t.row([
            fname.to_string(),
            flname.to_string(),
            ipc(&two_four[0]),
            ipc(&two_four[1]),
        ]);
    }
    Ok(t)
}

/// Extension: the expected-hit-count replacement scorer swept across
/// cache geometry, against fewest-uses and against the related
/// fill-floor knob. `expected-hit-count` floors fill-installed entries
/// at one expected hit in the *scorer*; `fill-default=1` writes the
/// same floor into the use counter itself (which also delays the
/// entry's eviction once it becomes replaceable). Sweeping entries ×
/// associativity shows where the distinction matters: the scorer-side
/// floor should help most where fills are frequent (small caches) and
/// wash out as capacity grows.
pub fn ehc_sweep(scale: Scale, opts: &RunOptions) -> Result<Table, SuiteError> {
    let geometries: Vec<(usize, usize)> = [32usize, 64, 96]
        .into_iter()
        .flat_map(|entries| [2usize, 4].map(|ways| (entries, ways)))
        .collect();
    let mut configs = Vec::new();
    for &(entries, ways) in &geometries {
        let geometry = format!("entries={entries},ways={ways}");
        configs.push(spec(&format!("use-based,{geometry}")));
        configs.push(spec(&format!("use-based,{geometry},fill=1")));
        configs.push(spec(&format!("ehc,{geometry}")));
    }
    let res = run_suites(&configs, scale, opts)?;
    let mut t = Table::new([
        "entries",
        "ways",
        "fewest-uses",
        "fill-default=1",
        "expected-hit-count",
    ]);
    for ((entries, ways), row) in geometries.iter().zip(res.chunks(3)) {
        let mut cells = vec![entries.to_string(), ways.to_string()];
        cells.extend(row.iter().map(ipc));
        t.row(cells);
    }
    Ok(t)
}

/// Every experiment, as `(id, description, runner)` triples, in paper
/// order. The harness binary and the smoke tests iterate this. A
/// failing run reports the offending workload via [`SuiteError`]
/// instead of unwinding through the harness.
pub type ExperimentFn = fn(Scale, &RunOptions) -> Result<Table, SuiteError>;

/// The experiment registry.
pub fn registry() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    fn table1_entry(_: Scale, _: &RunOptions) -> Result<Table, SuiteError> {
        Ok(table1())
    }
    vec![
        ("table1", "simulated machine configuration", table1_entry),
        ("fig1", "median register lifetime phases", fig1),
        ("fig2", "allocated vs live register CDFs", fig2),
        ("fig6", "cache size and organization sweep", fig6),
        ("fig7", "decoupled indexing policies", fig7),
        ("fig8", "miss-rate breakdown by type", fig8),
        ("fig9", "access bandwidth", fig9),
        ("fig10", "filtering effects", fig10),
        ("table2", "register cache metrics", table2),
        ("fig11", "performance vs cache/L1 size", fig11),
        ("fig12", "performance vs backing-file latency", fig12),
        ("maxuse", "max use count sweep (§5.3)", maxuse),
        ("defaults", "unknown/fill default grid (§5.3)", defaults),
        (
            "twolevel-bw",
            "two-level transfer bandwidth (§5.5)",
            twolevel_bw,
        ),
        (
            "douse",
            "degree-of-use predictor accuracy (§3.3)",
            douse_accuracy,
        ),
        (
            "charstats",
            "bypass fraction and zero-use victims (§3)",
            charstats,
        ),
        (
            "filtered-params",
            "filtered round-robin parameters (§4.2)",
            filtered_params,
        ),
        (
            "synthetic",
            "synthetic degree-distribution sweep (extension)",
            synthetic_sweep,
        ),
        (
            "bypass",
            "bypass-network depth ablation (extension)",
            bypass_depth,
        ),
        ("oddsizes", "non-power-of-two cache sizes (§4.1)", odd_sizes),
        (
            "robustness",
            "degraded degree information (§3.4)",
            robustness,
        ),
        (
            "predictors",
            "branch predictor ablation (extension)",
            predictors,
        ),
        (
            "ports",
            "backing-file read port count (§2.2)",
            backing_ports,
        ),
        (
            "extended",
            "FP/mixed kernels under each organization (extension)",
            extended,
        ),
        ("lsq", "store-to-load ordering cost (extension)", lsq),
        (
            "ehc",
            "expected-hit-count replacement scorer (extension)",
            ehc,
        ),
        (
            "douse-size",
            "degree-of-use predictor capacity (extension)",
            douse_size,
        ),
        (
            "loadspec",
            "load-hit speculation vs oracle wakeup (extension)",
            loadspec,
        ),
        (
            "smt",
            "2-thread SMT kernel-pair co-scheduling (extension)",
            smt,
        ),
        (
            "smt4",
            "4-thread SMT register-cache partitioning (extension)",
            smt4,
        ),
        (
            "soft",
            "soft-error detection and recovery (extension)",
            soft,
        ),
        (
            "ucp",
            "utility-driven dynamic cache partitioning (extension)",
            ucp,
        ),
        (
            "dynway",
            "UMON-guided dynamic way partitioning (extension)",
            dynway,
        ),
        (
            "fetchpol",
            "SMT fetch-policy x freelist matrix (extension)",
            fetchpol,
        ),
        (
            "ehc-sweep",
            "expected-hit-count geometry sweep (extension)",
            ehc_sweep,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_matrix_splits_results_per_config_and_set() {
        let configs = [SimConfig::paper_default(), spec("rf-3")];
        let sets = [kernel_groups(1, Scale::Tiny), kernel_groups(4, Scale::Tiny)];
        let res = run_matrix(&configs, &sets, &RunOptions::default()).unwrap();
        assert_eq!(res.len(), 4);
        for per_config in res.chunks(2) {
            let (suite, quads) = (&per_config[0], &per_config[1]);
            assert_eq!(suite.runs.len(), 12);
            assert_eq!(suite.runs[0].0, "qsort");
            let labels: Vec<&str> = quads.runs.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(
                labels,
                [
                    "qsort+bfs+listchase+strsearch",
                    "hash+rle+matmul+bitops",
                    "crc+fpmix+fib+dispatch"
                ]
            );
            assert!(per_config.iter().all(|r| r.geomean_ipc() > 0.1));
        }
        // The monolithic file has no register cache, so `mean_of` skips
        // every one of its runs.
        let miss = |r: &SuiteResult| r.mean_of(|s| s.regcache.as_ref().and_then(|c| c.miss_rate()));
        assert!(miss(&res[0]).unwrap() > 0.0);
        assert!(miss(&res[2]).is_none());
    }

    #[test]
    fn run_matrix_fails_with_the_first_error_in_cell_order() {
        let mut bad = SimConfig::paper_default();
        bad.phys_regs = 8; // fewer physical than architectural registers
        let configs = [SimConfig::paper_default(), bad];
        let err = run_suites(&configs, Scale::Tiny, &RunOptions::default())
            .err()
            .expect("the second config is rejected");
        assert_eq!(err.workload, "qsort");
        assert_eq!(err.failure.kind(), "config");
    }
}
