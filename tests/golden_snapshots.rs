//! Golden cycle-accuracy snapshots.
//!
//! The hot-loop refactors in `ubrc-sim` must be *cycle-accurate
//! neutral*: every scheduling change is an implementation detail, so
//! every `SimResult` has to stay bit-identical to the model that
//! produced `tests/golden_snapshots.txt`. Each row runs one Tiny-scale
//! kernel, kernel pair or kernel quad under one named config (see
//! [`BLOCKS`]) and compares cycles, retirement, replays, and the
//! per-class miss counts against the stored goldens. A drifting row
//! names the `simulate` command that reproduces it.
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

use ubrc::sim::{simulate, CheckConfig, SimConfig};
use ubrc::workloads::{kernel_pairs, kernel_quads, suite, Scale, Workload};

const GOLDEN: &str = include_str!("golden_snapshots.txt");

/// Every golden config: blocks of `(row name, spec)` entries, each block
/// over the Tiny suite's `threads`-kernel co-schedules (the 12 kernels,
/// the 6 pairs or the 3 quads). A block runs group-major — every entry
/// on one group, then the next group — and the blocks run in order,
/// which is the row order of the golden file. A new block goes at the
/// end, so existing rows stay byte-identical.
const BLOCKS: [(usize, &[(&str, &str)]); 12] = [
    // The original 96-row matrix: four index policies crossed with both
    // replacement designs.
    (
        1,
        &[
            ("standard-usebased", "use-based,index=standard,classify=on"),
            ("standard-lru", "lru,index=standard,classify=on"),
            (
                "roundrobin-usebased",
                "use-based,index=round-robin,classify=on",
            ),
            ("roundrobin-lru", "lru,index=round-robin,classify=on"),
            ("minimum-usebased", "use-based,index=minimum,classify=on"),
            ("minimum-lru", "lru,index=minimum,classify=on"),
            ("filtered-usebased", "use-based,index=filtered,classify=on"),
            ("filtered-lru", "lru,index=filtered,classify=on"),
        ],
    ),
    // The expected-hit-count replacement scorer.
    (1, &[("filtered-ehc", "ehc,classify=on")]),
    // Min-load (occupancy-based) set assignment.
    (
        1,
        &[("minload-usebased", "use-based,index=min-load,classify=on")],
    ),
    // The 2-thread SMT core: use-based vs LRU, each under the indexing
    // it ships with in the experiments.
    (
        2,
        &[
            ("smt2-usebased", "use-based,classify=on"),
            ("smt2-lru", "lru,classify=on"),
        ],
    ),
    // 4-thread quads: {use-based, LRU} x {shared, way-partitioned,
    // occupancy-capped} at 64x4, so WayPartition gives each thread one
    // way per set.
    (
        4,
        &[
            ("smt4-usebased-shared", "use-based,ways=4,classify=on"),
            (
                "smt4-usebased-waypart",
                "use-based,ways=4,partition=waypart,classify=on",
            ),
            (
                "smt4-usebased-occcap",
                "use-based,ways=4,partition=occcap,classify=on",
            ),
            ("smt4-lru-shared", "lru,ways=4,classify=on"),
            (
                "smt4-lru-waypart",
                "lru,ways=4,partition=waypart,classify=on",
            ),
            ("smt4-lru-occcap", "lru,ways=4,partition=occcap,classify=on"),
        ],
    ),
    // Soft-error protection and recovery: `soft-protected` pins the
    // zero-overhead claim (parity and machine-check recovery on, no
    // faults: the timing must equal a plain use-based run), while the
    // faulted rows pin the recovery timing model under deterministic
    // periodic fault streams: cache-data faults re-fill, backing-word
    // faults squash and replay.
    (
        1,
        &[
            ("soft-protected", "use-based,classify=on,protect=on"),
            (
                "soft-cachefault",
                "use-based,classify=on,protect=on,fault=cache-data:150:13",
            ),
            (
                "soft-backingfault",
                "use-based,classify=on,protect=on,fault=backing-word:300:17",
            ),
        ],
    ),
    // Utility-driven dynamic cache partitioning (the `ucp` experiment's
    // design point). Pins the utility-monitor sampling and the
    // lookahead partitioner: any change to epoch accounting, monitor
    // geometry, or quota arithmetic shows up as drift.
    (
        4,
        &[
            (
                "smt4-usebased-dyncap",
                "use-based,ways=4,partition=dyncap,classify=on",
            ),
            ("smt4-lru-dyncap", "lru,ways=4,partition=dyncap,classify=on"),
        ],
    ),
    // SMT fetch-policy ablation (the smt2 rows above fetch with the
    // default ICOUNT.1.8), pinning the thread-selection logic.
    (
        2,
        &[
            (
                "smt2-usebased-rr",
                "use-based,fetch=round-robin,classify=on",
            ),
            ("smt2-usebased-ic28", "use-based,fetch=icount28,classify=on"),
        ],
    ),
    // Dynamic way partitioning at 64x8 (four threads start with two ways
    // each, so the partitioner has whole ways to move), on the fixed
    // epoch grid per scheme and under adaptive epoch pacing. Any change
    // to way-reassignment order, migrant placement, or the pacer's
    // lengthen/shorten arithmetic shows up as drift.
    (
        4,
        &[
            (
                "dynway-usebased",
                "use-based,ways=8,partition=dynway,classify=on",
            ),
            ("dynway-lru", "lru,ways=8,partition=dynway,classify=on"),
            (
                "dynway-usebased-adapt",
                "use-based,ways=8,partition=dynway,adapt=on,classify=on",
            ),
        ],
    ),
    // The storages without a register cache, which still rename, retire
    // and release registers through the same path: the 3-cycle monolithic
    // file and the two-level file. Their cache columns are 0.
    (1, &[("rf3", "rf-3"), ("twolevel", "two-level")]),
    // One shared physical-register pool capped at 96 live registers per
    // thread (the `fetchpol` experiment's shared freelist), on the pairs
    // and the quads: pins rename's cap and dry-pool stalls and the
    // register numbers the pool hands out.
    (
        2,
        &[(
            "smt2-usebased-pool96",
            "use-based,freelist=shared:96,classify=on",
        )],
    ),
    (
        4,
        &[(
            "smt4-usebased-pool96",
            "use-based,freelist=shared:96,classify=on",
        )],
    ),
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

/// One row of the golden matrix: its identity, its spec, and the
/// kernels it co-schedules.
struct Cell {
    kernel: String,
    config: &'static str,
    spec: &'static str,
    group: Vec<Workload>,
}

impl Cell {
    fn run(&self, check: bool) -> Snap {
        let mut cfg: SimConfig = self.spec.parse().expect("golden spec parses");
        if check {
            cfg.check = CheckConfig::full();
        }
        let programs = self
            .group
            .iter()
            .map(|w| w.assemble().expect("kernel assembles"))
            .collect();
        let r = simulate(programs, cfg).unwrap_or_else(|e| panic!("{}: {e}", self.reproducer()));
        assert_eq!(r.thread_retired.len(), self.group.len());
        // SMT rows: aggregate retirement, shared-cache columns. A run
        // without a register cache reports zeros.
        let c = r.regcache.unwrap_or_default();
        Snap {
            kernel: self.kernel.clone(),
            config: self.config.to_string(),
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

    /// The one-line command that reruns this row.
    fn reproducer(&self) -> String {
        format!(
            "simulate {} --scale tiny --config '{}'",
            self.kernel, self.spec
        )
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (threads, entries) in BLOCKS {
        let groups: Vec<Vec<Workload>> = match threads {
            1 => suite(Scale::Tiny).into_iter().map(|w| vec![w]).collect(),
            2 => kernel_pairs(Scale::Tiny)
                .into_iter()
                .map(|(a, b)| vec![a, b])
                .collect(),
            _ => kernel_quads(Scale::Tiny)
                .into_iter()
                .map(Vec::from)
                .collect(),
        };
        for group in groups {
            let names: Vec<&str> = group.iter().map(|w| w.name).collect();
            for &(config, spec) in entries {
                cells.push(Cell {
                    kernel: names.join("+"),
                    config,
                    spec,
                    group: group.clone(),
                });
            }
        }
    }
    cells
}

/// Runs every cell, checked or not, against its golden row; a drifting
/// row fails with `what` and the command that reproduces it.
fn assert_cells_match_goldens(check: bool, what: &str) {
    let golden = parse_golden();
    let cells = cells();
    assert_eq!(
        golden.len(),
        cells.len(),
        "snapshot count changed; rebless if intentional"
    );
    for (g, cell) in golden.iter().zip(&cells) {
        assert_eq!(
            g,
            &cell.run(check),
            "{}/{}: {what}; reproduce with `{}`",
            cell.kernel,
            cell.config,
            cell.reproducer()
        );
    }
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
            out.push(cell.run(false));
            regenerated += 1;
        } else {
            let s = lookup(&cell.kernel, cell.config).unwrap_or_else(|| {
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
        let snaps: Vec<Snap> = cells().iter().map(|c| c.run(false)).collect();
        write_goldens(&snaps);
        return;
    }
    assert_cells_match_goldens(
        false,
        "cycle-accuracy drift — the timing model changed; rebless only if that is intentional",
    );
}

/// The runtime checker (lockstep oracle + per-cycle invariants) must be
/// observation-only: the same cells, checked, must reproduce the
/// goldens bit for bit. This covers the SMT rows too: one oracle per
/// thread, plus the register-pool invariants.
#[test]
fn checked_sim_results_match_golden_snapshots() {
    if std::env::var_os("UBRC_BLESS").is_some() || std::env::var_os("UBRC_BLESS_ONLY").is_some() {
        return; // blessing is handled by the unchecked capture
    }
    assert_cells_match_goldens(
        true,
        "checked run diverged from goldens — the checker perturbed the \
         timing model (it must be observation-only)",
    );
}
