//! Golden cycle-accuracy snapshots.
//!
//! The hot-loop refactors in `ubrc-sim` must be *cycle-accurate
//! neutral*: every scheduling change is an implementation detail, so
//! every `SimResult` has to stay bit-identical to the model that
//! produced `tests/golden_snapshots.txt`. This test runs the full
//! Tiny-scale kernel suite under all four original [`IndexPolicy`]
//! variants crossed with both replacement designs (use-based / LRU)
//! and compares cycles, retirement, replays, and the per-class miss
//! counts against the stored goldens. Trailing blocks pin later
//! extensions without disturbing the original 96-row matrix:
//! `filtered-ehc` rows for the expected-hit-count replacement scorer,
//! `minload-*` rows for the occupancy-based set assigner, `smt2-*` and
//! `smt4-*` rows for the SMT core, `soft-*` rows for the parity
//! protection / machine-check recovery layer (fault-free and under
//! deterministic injected fault streams), `smt4-*-dyncap` rows for
//! utility-driven dynamic cache partitioning, `smt2-usebased-rr` /
//! `smt2-usebased-ic28` rows for the SMT fetch-policy ablation, and
//! `dynway-*` rows for UMON-guided dynamic way partitioning (fixed and
//! adaptive epochs) plus the feedback-driven insertion threshold.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! UBRC_BLESS=1 cargo test --release --test golden_snapshots
//! ```
//!
//! To regenerate only the rows whose config starts with a prefix
//! (e.g. a new trailing block) while keeping every other row verbatim:
//!
//! ```text
//! UBRC_BLESS_ONLY=smt2 cargo test --release --test golden_snapshots
//! ```
//!
//! and justify the diff of `golden_snapshots.txt` in the PR.

use ubrc::core::{
    CachePartition, EpochAdapt, IndexPolicy, InsertionPolicy, ProtectionConfig, RegCacheConfig,
};
use ubrc::sim::{
    simulate_smt, simulate_workload, FaultKind, FaultPlan, FetchPolicy, RecoveryPolicy, RegStorage,
    SimConfig,
};
use ubrc::workloads::{kernel_pairs, kernel_quads, suite, Scale, Workload};

const GOLDEN: &str = include_str!("golden_snapshots.txt");

const INDEX_POLICIES: [(&str, IndexPolicy); 4] = [
    ("standard", IndexPolicy::Standard),
    ("roundrobin", IndexPolicy::RoundRobin),
    ("minimum", IndexPolicy::Minimum),
    ("filtered", IndexPolicy::FilteredRoundRobin),
];

/// One snapshot row: identity, timing, and miss classification.
#[derive(Debug, PartialEq, Eq)]
struct Snap {
    kernel: String,
    config: String,
    cycles: u64,
    retired: u64,
    replayed: u64,
    reads: u64,
    read_hits: u64,
    read_misses: u64,
    misses_not_written: u64,
    misses_capacity: u64,
    misses_conflict: u64,
}

impl Snap {
    fn to_line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {}",
            self.kernel,
            self.config,
            self.cycles,
            self.retired,
            self.replayed,
            self.reads,
            self.read_hits,
            self.read_misses,
            self.misses_not_written,
            self.misses_capacity,
            self.misses_conflict,
        )
    }

    fn parse(line: &str) -> Option<Snap> {
        let mut f = line.split_whitespace();
        let kernel = f.next()?.to_string();
        let config = f.next()?.to_string();
        let mut n = || f.next()?.parse().ok();
        Some(Snap {
            kernel,
            config,
            cycles: n()?,
            retired: n()?,
            replayed: n()?,
            reads: n()?,
            read_hits: n()?,
            read_misses: n()?,
            misses_not_written: n()?,
            misses_capacity: n()?,
            misses_conflict: n()?,
        })
    }
}

fn cache_variants() -> Vec<(&'static str, RegCacheConfig)> {
    let mut ub = RegCacheConfig::use_based(64, 2);
    let mut lru = RegCacheConfig::lru(64, 2);
    // Miss classification must survive the refactor too.
    ub.classify_misses = true;
    lru.classify_misses = true;
    vec![("usebased", ub), ("lru", lru)]
}

fn cached_cfg(cache: RegCacheConfig, index: IndexPolicy, check: bool) -> SimConfig {
    let mut cfg = SimConfig::table1(RegStorage::Cached {
        cache,
        index,
        backing_read: 2,
        backing_write: 2,
    });
    if check {
        cfg.check = ubrc::sim::CheckConfig::full();
    }
    cfg
}

fn snap_fields(kernel: String, config: String, r: &ubrc::sim::SimResult) -> Snap {
    let c = r.regcache.as_ref().expect("cached run has cache stats");
    Snap {
        kernel,
        config,
        cycles: r.cycles,
        retired: r.retired,
        replayed: r.replayed,
        reads: c.reads,
        read_hits: c.read_hits,
        read_misses: c.read_misses,
        misses_not_written: c.misses_not_written,
        misses_capacity: c.misses_capacity,
        misses_conflict: c.misses_conflict,
    }
}

fn snap_one(
    w: &Workload,
    config: String,
    cache: RegCacheConfig,
    index: IndexPolicy,
    check: bool,
) -> Snap {
    let r = simulate_workload(w, cached_cfg(cache, index, check));
    snap_fields(w.name.to_string(), config, &r)
}

/// A 2-thread SMT row: a kernel pair co-scheduled on one core. The
/// `retired` column is the aggregate over both threads; the cache
/// columns cover the single shared register cache.
fn snap_pair(
    a: &Workload,
    b: &Workload,
    config: String,
    cache: RegCacheConfig,
    index: IndexPolicy,
    check: bool,
) -> Snap {
    let programs = vec![
        a.assemble().expect("kernel assembles"),
        b.assemble().expect("kernel assembles"),
    ];
    let r = simulate_smt(programs, cached_cfg(cache, index, check));
    assert_eq!(r.thread_retired.len(), 2);
    snap_fields(format!("{}+{}", a.name, b.name), config, &r)
}

/// A 4-thread SMT row: a kernel quad co-scheduled on one core under a
/// cache-partition policy. Aggregate retirement, shared-cache columns.
fn snap_quad(
    quad: &[Workload; 4],
    config: String,
    cache: RegCacheConfig,
    index: IndexPolicy,
    check: bool,
) -> Snap {
    let programs = quad
        .iter()
        .map(|w| w.assemble().expect("kernel assembles"))
        .collect();
    let r = simulate_smt(programs, cached_cfg(cache, index, check));
    assert_eq!(r.thread_retired.len(), 4);
    let names: Vec<&str> = quad.iter().map(|w| w.name).collect();
    snap_fields(names.join("+"), config, &r)
}

/// One cell of the snapshot matrix: its identity plus how to simulate
/// it. Keeping production behind a closure lets the subset-bless path
/// (`UBRC_BLESS_ONLY`) skip the simulations it is not regenerating.
struct Cell {
    kernel: String,
    config: String,
    run: Box<dyn Fn(bool) -> Snap>,
}

fn cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    // The original 96-row matrix (12 kernels x 4 policies x 2 designs).
    for w in suite(Scale::Tiny) {
        for (idx_name, index) in INDEX_POLICIES {
            for (cache_name, cache) in cache_variants() {
                let w = w.clone();
                let config = format!("{idx_name}-{cache_name}");
                cells.push(Cell {
                    kernel: w.name.to_string(),
                    config: config.clone(),
                    run: Box::new(move |check| snap_one(&w, config.clone(), cache, index, check)),
                });
            }
        }
    }
    // Trailing blocks are appended *after* the original matrix so the
    // pre-existing rows stay byte-identical across refactors.
    // Expected-hit-count replacement scorer:
    for w in suite(Scale::Tiny) {
        let mut ehc = RegCacheConfig::expected_hit_count(64, 2);
        ehc.classify_misses = true;
        cells.push(Cell {
            kernel: w.name.to_string(),
            config: "filtered-ehc".to_string(),
            run: Box::new(move |check| {
                snap_one(
                    &w,
                    "filtered-ehc".to_string(),
                    ehc,
                    IndexPolicy::FilteredRoundRobin,
                    check,
                )
            }),
        });
    }
    // Min-load (occupancy-based) set assignment:
    for w in suite(Scale::Tiny) {
        let mut ub = RegCacheConfig::use_based(64, 2);
        ub.classify_misses = true;
        cells.push(Cell {
            kernel: w.name.to_string(),
            config: "minload-usebased".to_string(),
            run: Box::new(move |check| {
                snap_one(
                    &w,
                    "minload-usebased".to_string(),
                    ub,
                    IndexPolicy::MinLoad,
                    check,
                )
            }),
        });
    }
    // 2-thread SMT kernel pairs, use-based vs LRU at the same geometry
    // (the pairing each scheme ships with in the experiments):
    for (a, b) in kernel_pairs(Scale::Tiny) {
        for (cache_name, cache, index) in [
            (
                "usebased",
                cache_variants()[0].1,
                IndexPolicy::FilteredRoundRobin,
            ),
            ("lru", cache_variants()[1].1, IndexPolicy::RoundRobin),
        ] {
            let (a, b) = (a.clone(), b.clone());
            let config = format!("smt2-{cache_name}");
            cells.push(Cell {
                kernel: format!("{}+{}", a.name, b.name),
                config: config.clone(),
                run: Box::new(move |check| snap_pair(&a, &b, config.clone(), cache, index, check)),
            });
        }
    }
    // 4-thread SMT kernel quads: the {use-based, LRU} x {shared,
    // way-partitioned, occupancy-capped} register-cache matrix at a
    // 64-entry 4-way geometry (so WayPartition gives each thread one
    // way per set).
    for quad in kernel_quads(Scale::Tiny) {
        for (scheme, index) in [
            ("usebased", IndexPolicy::FilteredRoundRobin),
            ("lru", IndexPolicy::RoundRobin),
        ] {
            for (part_name, part) in [
                ("shared", CachePartition::Shared),
                ("waypart", CachePartition::WayPartition),
                ("occcap", CachePartition::OccupancyCap),
            ] {
                let mut cache = if scheme == "usebased" {
                    RegCacheConfig::use_based(64, 4)
                } else {
                    RegCacheConfig::lru(64, 4)
                };
                cache.classify_misses = true;
                cache.partition = part;
                let quad = quad.clone();
                let names: Vec<&str> = quad.iter().map(|w| w.name).collect();
                let config = format!("smt4-{scheme}-{part_name}");
                cells.push(Cell {
                    kernel: names.join("+"),
                    config: config.clone(),
                    run: Box::new(move |check| {
                        snap_quad(&quad, config.clone(), cache, index, check)
                    }),
                });
            }
        }
    }
    // Soft-error protection and recovery: `soft-protected` pins the
    // zero-overhead claim (full parity + machine-check recovery
    // enabled, no faults injected — the timing must be identical to a
    // plain use-based run), while the faulted rows pin the recovery
    // timing model itself under deterministic periodic fault streams:
    // cache-data faults re-fill, backing-word faults squash and replay.
    for w in suite(Scale::Tiny) {
        for (config, plan) in [
            ("soft-protected", None),
            (
                "soft-cachefault",
                Some(FaultPlan::periodic(13, 150, FaultKind::FlipCacheData)),
            ),
            (
                "soft-backingfault",
                Some(FaultPlan::periodic(17, 300, FaultKind::FlipBackingWord)),
            ),
        ] {
            let w = w.clone();
            cells.push(Cell {
                kernel: w.name.to_string(),
                config: config.to_string(),
                run: Box::new(move |check| {
                    let mut cache = RegCacheConfig::use_based(64, 2);
                    cache.classify_misses = true;
                    cache.protection = ProtectionConfig::full();
                    let mut cfg = cached_cfg(cache, IndexPolicy::FilteredRoundRobin, check);
                    cfg.recovery = RecoveryPolicy::enabled();
                    cfg.fault_plan = plan.clone();
                    let r = simulate_workload(&w, cfg);
                    snap_fields(w.name.to_string(), config.to_string(), &r)
                }),
            });
        }
    }
    // Utility-driven dynamic cache partitioning: the 4-thread quads
    // under `CachePartition::DynamicCap` (epochs of 128 cycles, floor 4
    // entries/thread — the `ucp` experiment's design point). Pins both
    // the utility-monitor sampling and the lookahead partitioner: any
    // change to epoch accounting, monitor geometry, or quota
    // arithmetic shows up here as timing drift.
    for quad in kernel_quads(Scale::Tiny) {
        for (scheme, index) in [
            ("usebased", IndexPolicy::FilteredRoundRobin),
            ("lru", IndexPolicy::RoundRobin),
        ] {
            let mut cache = if scheme == "usebased" {
                RegCacheConfig::use_based(64, 4)
            } else {
                RegCacheConfig::lru(64, 4)
            };
            cache.classify_misses = true;
            cache.partition = CachePartition::DynamicCap {
                epoch_cycles: 128,
                min_cap: 4,
            };
            let quad = quad.clone();
            let names: Vec<&str> = quad.iter().map(|w| w.name).collect();
            let config = format!("smt4-{scheme}-dyncap");
            cells.push(Cell {
                kernel: names.join("+"),
                config: config.clone(),
                run: Box::new(move |check| snap_quad(&quad, config.clone(), cache, index, check)),
            });
        }
    }
    // SMT fetch-policy ablation: the kernel pairs under round-robin and
    // ICOUNT.2.8 fetch (the existing smt2 rows fetch with the default
    // ICOUNT.1.8), pinning the thread-selection logic.
    for (a, b) in kernel_pairs(Scale::Tiny) {
        for (policy_name, policy) in [
            ("rr", FetchPolicy::RoundRobin),
            ("ic28", FetchPolicy::Icount28),
        ] {
            let (a, b) = (a.clone(), b.clone());
            let cache = cache_variants()[0].1;
            let config = format!("smt2-usebased-{policy_name}");
            cells.push(Cell {
                kernel: format!("{}+{}", a.name, b.name),
                config: config.clone(),
                run: Box::new(move |check| {
                    let programs = vec![
                        a.assemble().expect("kernel assembles"),
                        b.assemble().expect("kernel assembles"),
                    ];
                    let mut cfg = cached_cfg(cache, IndexPolicy::FilteredRoundRobin, check);
                    cfg.fetch_policy = policy;
                    let r = simulate_smt(programs, cfg);
                    assert_eq!(r.thread_retired.len(), 2);
                    snap_fields(format!("{}+{}", a.name, b.name), config.clone(), &r)
                }),
            });
        }
    }
    // Dynamic way partitioning (`CachePartition::DynamicWay`): the
    // quads at a 64-entry 8-way geometry (four threads start with two
    // ways each, so the UMON-guided way partitioner has whole ways to
    // move), once on the fixed 128-cycle epoch grid per scheme and once
    // under adaptive epoch pacing (32..512 cycles, hysteresis band 2).
    // Any change to way-reassignment order, migrant placement, or the
    // pacer's lengthen/shorten arithmetic shows up here as drift.
    for quad in kernel_quads(Scale::Tiny) {
        for (scheme, index) in [
            ("usebased", IndexPolicy::FilteredRoundRobin),
            ("lru", IndexPolicy::RoundRobin),
        ] {
            let mut cache = if scheme == "usebased" {
                RegCacheConfig::use_based(64, 8)
            } else {
                RegCacheConfig::lru(64, 8)
            };
            cache.classify_misses = true;
            cache.partition = CachePartition::DynamicWay { epoch_cycles: 128 };
            let quad = quad.clone();
            let names: Vec<&str> = quad.iter().map(|w| w.name).collect();
            let config = format!("dynway-{scheme}");
            cells.push(Cell {
                kernel: names.join("+"),
                config: config.clone(),
                run: Box::new(move |check| snap_quad(&quad, config.clone(), cache, index, check)),
            });
        }
        let mut adaptive = RegCacheConfig::use_based(64, 8);
        adaptive.classify_misses = true;
        adaptive.partition = CachePartition::DynamicWay { epoch_cycles: 128 };
        adaptive.epoch_adapt = Some(EpochAdapt {
            min_cycles: 32,
            max_cycles: 512,
            band: 2,
        });
        let quad = quad.clone();
        let names: Vec<&str> = quad.iter().map(|w| w.name).collect();
        cells.push(Cell {
            kernel: names.join("+"),
            config: "dynway-usebased-adapt".to_string(),
            run: Box::new(move |check| {
                snap_quad(
                    &quad,
                    "dynway-usebased-adapt".to_string(),
                    adaptive,
                    IndexPolicy::FilteredRoundRobin,
                    check,
                )
            }),
        });
    }
    // Feedback-driven insertion: `AdaptiveUseThreshold` consumes the
    // dynamic partitioner's per-epoch quota feedback to tighten or
    // relax each thread's insertion threshold. One deterministic row
    // per quad pins the threshold walk.
    for quad in kernel_quads(Scale::Tiny) {
        let mut cache = RegCacheConfig::use_based(64, 4);
        cache.classify_misses = true;
        cache.partition = CachePartition::DynamicCap {
            epoch_cycles: 128,
            min_cap: 4,
        };
        cache.insertion = InsertionPolicy::AdaptiveUseThreshold;
        let quad = quad.clone();
        let names: Vec<&str> = quad.iter().map(|w| w.name).collect();
        cells.push(Cell {
            kernel: names.join("+"),
            config: "dynway-adaptthresh".to_string(),
            run: Box::new(move |check| {
                snap_quad(
                    &quad,
                    "dynway-adaptthresh".to_string(),
                    cache,
                    IndexPolicy::FilteredRoundRobin,
                    check,
                )
            }),
        });
    }
    cells
}

fn capture(check: bool) -> Vec<Snap> {
    cells().iter().map(|c| (c.run)(check)).collect()
}

fn parse_golden() -> Vec<Snap> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| Snap::parse(l).unwrap_or_else(|| panic!("malformed golden line: {l}")))
        .collect()
}

const HEADER: &str = "# kernel config cycles retired replayed reads read_hits \
                      read_misses misses_not_written misses_capacity misses_conflict\n";

fn write_goldens(snaps: &[Snap]) {
    let mut out = String::from(HEADER);
    for s in snaps {
        out.push_str(&s.to_line());
        out.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_snapshots.txt");
    std::fs::write(path, out).expect("write goldens");
}

/// `UBRC_BLESS_ONLY=<prefix>[,<prefix>...]`: re-simulate only the
/// cells whose config starts with one of the prefixes; every other row
/// is carried over verbatim from the existing golden file (and must
/// already exist there). Rows are written in canonical cell order, so
/// this can both update a block in place and append a brand-new
/// trailing block.
fn bless_subset(prefixes: &str) {
    let prefixes: Vec<&str> = prefixes.split(',').filter(|p| !p.is_empty()).collect();
    let existing = parse_golden();
    let lookup = |kernel: &str, config: &str| {
        existing
            .iter()
            .find(|s| s.kernel == kernel && s.config == config)
    };
    let mut out = Vec::new();
    let mut regenerated = 0usize;
    for cell in cells() {
        if prefixes.iter().any(|p| cell.config.starts_with(p)) {
            out.push((cell.run)(false));
            regenerated += 1;
        } else {
            let s = lookup(&cell.kernel, &cell.config).unwrap_or_else(|| {
                panic!(
                    "row {}/{} is outside the blessed subset but missing from \
                     the golden file; run a full UBRC_BLESS=1 instead",
                    cell.kernel, cell.config
                )
            });
            out.push(Snap::parse(&s.to_line()).expect("round-trip"));
        }
    }
    assert!(regenerated > 0, "prefixes {prefixes:?} matched no cells");
    write_goldens(&out);
}

#[test]
fn sim_results_match_golden_snapshots() {
    if let Some(prefix) = std::env::var_os("UBRC_BLESS_ONLY") {
        bless_subset(prefix.to_str().expect("utf-8 prefix"));
        return;
    }
    if std::env::var_os("UBRC_BLESS").is_some() {
        write_goldens(&capture(false));
        return;
    }

    let actual = capture(false);
    let golden = parse_golden();
    assert_eq!(
        golden.len(),
        actual.len(),
        "snapshot count changed; rebless if intentional"
    );
    for (g, a) in golden.iter().zip(&actual) {
        assert_eq!(
            g, a,
            "cycle-accuracy drift at {}/{} — the timing model changed; \
             rebless only if that is intentional",
            a.kernel, a.config
        );
    }
}

/// The runtime checker (lockstep oracle + per-cycle invariants) must be
/// observation-only: the same cells, checked, must reproduce the
/// goldens bit for bit. This covers the SMT rows too: one oracle per
/// thread, plus the partitioned-freelist invariants.
#[test]
fn checked_sim_results_match_golden_snapshots() {
    if std::env::var_os("UBRC_BLESS").is_some() || std::env::var_os("UBRC_BLESS_ONLY").is_some() {
        return; // blessing is handled by the unchecked capture
    }
    let actual = capture(true);
    let golden = parse_golden();
    assert_eq!(golden.len(), actual.len());
    for (g, a) in golden.iter().zip(&actual) {
        assert_eq!(
            g, a,
            "checked run diverged from goldens at {}/{} — the checker \
             perturbed the timing model (it must be observation-only)",
            a.kernel, a.config
        );
    }
}
