//! SMT-specific tests: per-thread squash isolation, register-slice
//! exhaustion without cross-thread stealing, ICOUNT fetch-chooser
//! determinism, typed construction-path errors, and 4-thread scaling
//! across the cache-partition and fetch-policy matrix. These need
//! `pub(crate)` access to pipeline internals, so they live inside the
//! crate rather than under `tests/`.

use crate::check::{CheckConfig, ConfigError, SimError};
use crate::config::{FetchPolicy, FreelistPolicy, RegStorage, SimConfig};
use crate::inject::{FaultKind, FaultPlan, FaultSpec};
use crate::stage::Storage;
use crate::{SimResult, Simulator};
use ubrc_core::{CacheConfigError, CachePartition, RegCacheConfig};
use ubrc_frontend::DouseConfigError;
use ubrc_isa::Program;
use ubrc_memsys::MemSysConfigError;
use ubrc_workloads::{workload_by_name, Scale};

fn programs(names: &[&str]) -> Vec<Program> {
    names
        .iter()
        .map(|n| {
            let w = workload_by_name(n, Scale::Tiny).expect("kernel exists");
            w.assemble().expect("kernel assembles")
        })
        .collect()
}

fn spec(spec: &str) -> SimConfig {
    spec.parse().unwrap_or_else(|e| panic!("{e}"))
}

fn sim(names: &[&str], cfg: SimConfig) -> Simulator {
    Simulator::try_new_smt(programs(names), cfg).expect("config accepted")
}

fn run(names: &[&str], cfg: SimConfig) -> SimResult {
    crate::simulate(programs(names), cfg).expect("clean run")
}

fn rejected(names: &[&str], cfg: SimConfig) -> ConfigError {
    Simulator::try_new_smt(programs(names), cfg)
        .err()
        .expect("config must be rejected")
}

/// The `use-based` base with its cache swapped for `cache`.
fn cached(cache: RegCacheConfig) -> SimConfig {
    let mut cfg = spec("use-based");
    if let RegStorage::Cached { cache: c, .. } = &mut cfg.storage {
        *c = cache;
    }
    cfg
}

/// Every thread's rename map and free list stay inside its static
/// `phys_regs / nthreads` slice of a partitioned register file.
fn assert_slices_contained(sim: &Simulator) {
    let n = (sim.core.config.phys_regs / sim.core.threads.len()) as u16;
    for (tid, t) in sim.core.threads.iter().enumerate() {
        let own = tid as u16 * n..(tid as u16 + 1) * n;
        assert!(
            t.map.iter().all(|p| own.contains(p)),
            "map entry outside thread {tid}'s slice"
        );
        assert!(
            sim.core.pool.free[tid].iter().all(|p| own.contains(p)),
            "free-list entry outside thread {tid}'s slice"
        );
    }
}

/// Whether the thread is on a wrong path whose mispredicted branch has
/// renamed, so its squash has something to unwind. Only the renamed
/// prefix of the window has sequence numbers.
fn branch_renamed(t: &crate::stage::ThreadState) -> bool {
    t.wrong_path
        .is_some_and(|seq| t.rob().any(|i| i.seq == seq))
}

/// Squashing thread 0's wrong path must not disturb thread 1's front
/// end: its rename map, free list, ROB contents, sequence counter, and
/// fetch latch are all byte-identical across the squash, and every
/// register thread 0 freed lands back in thread 0's own slice.
#[test]
fn squash_on_one_thread_leaves_the_other_untouched() {
    let mut sim = sim(&["bfs", "crc"], SimConfig::paper_default());
    while sim.core.now < 200_000 {
        let t0 = &sim.core.threads[0];
        if branch_renamed(t0) && sim.core.threads[1].seq > 0 {
            break;
        }
        sim.core.cycle();
        assert!(sim.core.error.is_none(), "clean run expected");
    }
    let branch_seq = sim.core.threads[0]
        .wrong_path
        .expect("bfs must go wrong-path within the budget");

    let t1 = &sim.core.threads[1];
    let snap_map = t1.map.clone();
    let snap_freelist = sim.core.pool.free[1].clone();
    let snap_rob: Vec<u64> = t1.rob().map(|i| i.seq).collect();
    let snap_latch = t1.latch_len();
    let snap_seq = t1.seq;

    let now = sim.core.now;
    sim.core.squash_wrong_path(0, branch_seq, now);

    let t1 = &sim.core.threads[1];
    assert_eq!(t1.map, snap_map, "thread 1 map changed by thread 0 squash");
    assert_eq!(
        sim.core.pool.free[1], snap_freelist,
        "thread 1 free list changed"
    );
    let rob_after: Vec<u64> = t1.rob().map(|i| i.seq).collect();
    assert_eq!(rob_after, snap_rob, "thread 1 ROB changed");
    assert_eq!(t1.latch_len(), snap_latch);
    assert_eq!(t1.seq, snap_seq);

    let t0 = &sim.core.threads[0];
    assert!(t0.wrong_path.is_none());
    assert!(t0.rob().all(|i| i.seq <= branch_seq));
    assert_slices_contained(&sim);
}

/// With a deliberately tight register file (8 rename registers per
/// thread) each thread's free list runs dry constantly. Exhaustion must
/// stall that thread's dispatch — never steal from the other
/// thread's slice — and both programs still retire exactly as many
/// instructions as they do running alone.
#[test]
fn freelist_exhaustion_stalls_without_stealing() {
    let solo = |name: &str| {
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = 72;
        run(&[name], cfg).retired
    };
    let expect = [solo("bfs"), solo("hash")];

    let mut cfg = SimConfig::paper_default();
    cfg.phys_regs = 144; // two partitions of 72: 64 arch + 8 rename regs
    let mut sim = sim(&["bfs", "hash"], cfg);
    while !sim.core.halted() && sim.core.now < 2_000_000 {
        sim.core.cycle();
        assert!(sim.core.error.is_none(), "clean run expected");
        assert_slices_contained(&sim);
    }
    assert!(sim.core.halted(), "both threads must run to completion");
    assert!(
        sim.core.result.dispatch_stall_pregs > 0,
        "a 8-rename-reg partition must hit freelist exhaustion"
    );
    let retired: Vec<u64> = sim.core.threads.iter().map(|t| t.retired).collect();
    assert_eq!(
        retired,
        expect.to_vec(),
        "SMT co-scheduling changed a thread's committed instruction count"
    );
}

/// The ICOUNT fetch chooser is a pure function of architectural and
/// pipeline state — no seed, no host randomness — so two identical
/// 2-thread runs replay cycle-for-cycle.
#[test]
fn icount_scheduling_is_deterministic() {
    let once = || run(&["listchase", "strsearch"], SimConfig::paper_default());
    let a = once();
    let b = once();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.thread_retired, b.thread_retired);
    assert_eq!(a.replayed, b.replayed);
    assert_eq!(a.miss_events, b.miss_events);
    assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
    assert_eq!(a.wrong_path_squashed, b.wrong_path_squashed);
    assert_eq!(a.operands_bypassed, b.operands_bypassed);
    assert_eq!(a.thread_retired.len(), 2);
    assert!(a.thread_retired.iter().all(|&r| r > 0));
}

/// A fully-checked 2-thread run — per-thread retirement oracles plus
/// the invariant checker's partition-containment and per-thread
/// lockstep validation — completes cleanly and is observation-only
/// (same timing as the unchecked run).
#[test]
fn checked_smt_run_is_clean_and_observation_only() {
    let plain = run(&["qsort", "rle"], SimConfig::paper_default());
    let mut cfg = SimConfig::paper_default();
    cfg.check = CheckConfig::full();
    let checked = run(&["qsort", "rle"], cfg);
    assert_eq!(plain.cycles, checked.cycles);
    assert_eq!(plain.retired, checked.retired);
    assert_eq!(plain.thread_retired, checked.thread_retired);
}

// --- Typed construction-path errors -------------------------------------
//
// Every rejected `(programs, config)` combination must come back from
// `try_new_smt` as the matching `ConfigError` variant instead of a bare
// panic, and `simulate` must return it as `SimError::Config`.

#[test]
fn no_programs_is_rejected() {
    let err = rejected(&[], SimConfig::paper_default());
    assert_eq!(err, ConfigError::NoPrograms);
}

/// A machine with any of these at zero could never retire; each is
/// rejected by name instead of running into the watchdog.
#[test]
fn zero_widths_are_rejected() {
    type Zero = fn(&mut SimConfig);
    let rows: [(&str, Zero); 14] = [
        ("fetch_width", |c| c.fetch_width = 0),
        ("issue_width", |c| c.issue_width = 0),
        ("retire_width", |c| c.retire_width = 0),
        ("max_stores_per_retire", |c| c.max_stores_per_retire = 0),
        ("window_entries", |c| c.window_entries = 0),
        ("rob_entries", |c| c.rob_entries = 0),
        ("fu.int_alu", |c| c.fu.int_alu = 0),
        ("fu.branch", |c| c.fu.branch = 0),
        ("fu.int_mul", |c| c.fu.int_mul = 0),
        ("fu.fp_alu", |c| c.fu.fp_alu = 0),
        ("fu.fp_mul", |c| c.fu.fp_mul = 0),
        ("fu.load", |c| c.fu.load = 0),
        ("fu.store", |c| c.fu.store = 0),
        ("backing_read_ports", |c| c.backing_read_ports = 0),
    ];
    for (field, zero) in rows {
        let mut cfg = SimConfig::paper_default();
        zero(&mut cfg);
        assert_eq!(
            rejected(&["crc"], cfg),
            ConfigError::ZeroWidth { field },
            "{field}"
        );
    }
}

/// Only filtered round-robin indexing reads the filter parameters, so
/// setting them under another index, or without a register cache, is
/// rejected instead of running exactly as if they were absent.
#[test]
fn filter_params_without_filtered_index_are_rejected() {
    for config in ["lru,filter=0:0", "use-based,index=standard,filter=0:0"] {
        let err = rejected(&["crc"], spec(config));
        assert_eq!(err, ConfigError::FilterWithoutFilteredIndex);
        let message = err.to_string();
        assert!(
            message.contains("`filter=DEGREE:SKIP`") && message.contains("`index=filtered`"),
            "{message}"
        );
    }
    let mut mono = spec("rf-1");
    mono.filter_params = Some((3, 1));
    assert_eq!(
        rejected(&["crc"], mono),
        ConfigError::FilterWithoutFilteredIndex
    );
    let tuned = run(&["crc"], spec("lru,index=filtered,filter=0:0"));
    assert!(tuned.retired > 0);
}

/// Register ids are 16-bit and `u16::MAX` marks an unused operand, so
/// 65,535 registers is the largest file: one more is rejected instead
/// of wrapping into a smaller machine.
#[test]
fn phys_regs_beyond_16_bit_ids_are_rejected() {
    for phys_regs in [65_536, 70_000] {
        let mut cfg = SimConfig::paper_default();
        cfg.phys_regs = phys_regs;
        assert_eq!(
            rejected(&["crc"], cfg),
            ConfigError::TooManyPhysRegs {
                phys_regs,
                max: 65_535
            }
        );
    }
    let mut cfg = SimConfig::paper_default();
    cfg.phys_regs = 65_535;
    let r = run(&["crc"], cfg);
    assert_eq!(r.retired, run(&["crc"], SimConfig::paper_default()).retired);
}

#[test]
fn zero_two_level_transfer_width_is_rejected() {
    let mut cfg = spec("two-level");
    if let RegStorage::TwoLevel(tl) = &mut cfg.storage {
        tl.transfers_per_cycle = 0;
    }
    let err = rejected(&["crc"], cfg);
    assert_eq!(
        err,
        ConfigError::ZeroWidth {
            field: "transfers_per_cycle"
        }
    );
}

#[test]
fn uneven_partition_is_rejected() {
    let mut cfg = SimConfig::paper_default();
    cfg.phys_regs = 513;
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(
        err,
        ConfigError::UnevenPartition {
            phys_regs: 513,
            nthreads: 2
        }
    );
}

#[test]
fn partition_smaller_than_arch_state_is_rejected() {
    let mut cfg = SimConfig::paper_default();
    cfg.phys_regs = 8;
    let err = rejected(&["crc"], cfg);
    let narch = ubrc_isa::NUM_ARCH_REGS as usize;
    assert_eq!(
        err,
        ConfigError::PartitionTooSmall {
            partition: 8,
            arch_regs: narch
        }
    );
    // The message must be actionable: it names both numbers and the fix.
    let msg = err.to_string();
    assert!(
        msg.contains('8') && msg.contains(&narch.to_string()),
        "{msg}"
    );
    assert!(msg.contains("raise phys_regs"), "{msg}");
}

#[test]
fn two_level_storage_rejects_multiple_threads() {
    let cfg = spec("two-level");
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(err, ConfigError::TwoLevelSmt { nthreads: 2 });
}

#[test]
fn undersized_two_level_l1_is_rejected() {
    let narch = ubrc_isa::NUM_ARCH_REGS as usize;
    let cfg = spec(&format!("two-level,entries={narch}"));
    let err = rejected(&["crc"], cfg);
    assert_eq!(
        err,
        ConfigError::L1TooSmall {
            l1_entries: narch,
            required: narch + 1
        }
    );
    // The old bare assert said only "L1 too small"; the typed error
    // must state the actual minimum.
    assert!(err.to_string().contains(&(narch + 1).to_string()));
}

#[test]
fn way_partition_with_indivisible_ways_is_rejected() {
    let cfg = spec("use-based,entries=48,ways=3,partition=waypart");
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::WaysIndivisible {
            partition: "WayPartition",
            ways: 3,
            nthreads: 2
        })
    );
}

#[test]
fn occupancy_cap_with_too_few_entries_is_rejected() {
    let cfg = spec("use-based,entries=1,ways=1,partition=occcap");
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::TooFewEntries {
            partition: "OccupancyCap",
            entries: 1,
            nthreads: 2
        })
    );
}

#[test]
fn shared_freelist_cap_at_or_below_arch_state_is_rejected() {
    let narch = ubrc_isa::NUM_ARCH_REGS as usize;
    let mut cfg = SimConfig::paper_default();
    cfg.freelist = FreelistPolicy::Shared { cap: narch };
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(
        err,
        ConfigError::SharedFreelistCapTooSmall {
            cap: narch,
            arch_regs: narch
        }
    );
}

#[test]
fn shared_freelist_with_partitioned_cache_is_rejected() {
    let mut cfg = spec("use-based,partition=waypart");
    cfg.freelist = FreelistPolicy::Shared { cap: 128 };
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(err, ConfigError::SharedFreelistWithPartitionedCache);
}

/// A cache with no whole number of sets is rejected on every thread
/// count, instead of panicking in the geometry or assigner setup.
#[test]
fn cache_geometry_without_whole_sets_is_rejected() {
    for (geometry, entries, ways) in [
        ("ways=3", 64, 3),
        ("ways=0", 64, 0),
        ("entries=0", 0, 2),
        ("entries=2,ways=4", 2, 4),
    ] {
        for names in [&QUAD[..1], &QUAD[..2], &QUAD] {
            let err = rejected(names, spec(&format!("use-based,{geometry}")));
            assert_eq!(
                err,
                ConfigError::Cache(CacheConfigError::Geometry { entries, ways })
            );
        }
    }
    let msg = rejected(&["crc"], spec("lru,ways=3")).to_string();
    assert!(msg.contains("64 entries and 3 ways"), "{msg}");
}

#[test]
fn zero_douse_sets_are_rejected() {
    let mut cfg = SimConfig::paper_default();
    cfg.douse.sets = 0;
    let err = rejected(&["crc"], cfg);
    assert_eq!(err, ConfigError::Douse(DouseConfigError::Sets { sets: 0 }));
    assert!(err.to_string().contains("sets must be a power of two"));
    // Only the register cache builds a predictor, so only it checks one.
    for base in ["rf-3", "two-level"] {
        let mut cfg = spec(base);
        cfg.douse.sets = 0;
        assert!(
            Simulator::try_new_smt(programs(&["crc"]), cfg).is_ok(),
            "{base}"
        );
    }
}

#[test]
fn zero_douse_ways_are_rejected() {
    let mut cfg = SimConfig::paper_default();
    cfg.douse.ways = 0;
    let err = rejected(&["crc"], cfg);
    assert_eq!(err, ConfigError::Douse(DouseConfigError::ZeroWays));
}

#[test]
fn zero_l1_ways_are_rejected() {
    let mut cfg = SimConfig::paper_default();
    cfg.memsys.l1.ways = 0;
    let err = rejected(&["crc"], cfg);
    assert_eq!(
        err,
        ConfigError::MemSys(MemSysConfigError::Ways {
            size_bytes: 32 << 10,
            line_bytes: 64,
            ways: 0
        })
    );
    assert!(err.to_string().contains("capacity must divide into ways"));
}

#[test]
fn simulate_returns_a_rejected_config_as_sim_error() {
    let mut cfg = SimConfig::paper_default();
    cfg.phys_regs = 8;
    let err = crate::simulate(programs(&["crc"]), cfg).unwrap_err();
    assert!(matches!(
        *err,
        SimError::Config(ConfigError::PartitionTooSmall { partition: 8, .. })
    ));
    assert!(err
        .to_string()
        .starts_with("invalid simulator configuration"));
}

// --- 4-thread scaling ---------------------------------------------------

const QUAD: [&str; 4] = ["qsort", "bfs", "listchase", "strsearch"];

/// Runs `cfg` on the quad unchecked and fully checked; the checked run
/// must be observation-only (bit-identical headline results).
fn assert_checked_matches_unchecked(cfg: SimConfig) {
    let plain = run(&QUAD, cfg.clone());
    let mut checked_cfg = cfg;
    checked_cfg.check = CheckConfig::full();
    let checked = run(&QUAD, checked_cfg);
    assert_eq!(plain.cycles, checked.cycles);
    assert_eq!(plain.retired, checked.retired);
    assert_eq!(plain.thread_retired, checked.thread_retired);
    assert_eq!(plain.replayed, checked.replayed);
    assert_eq!(plain.miss_events, checked.miss_events);
    assert_eq!(plain.operands_bypassed, checked.operands_bypassed);
    assert_eq!(plain.thread_retired.len(), 4);
    assert!(plain.thread_retired.iter().all(|&r| r > 0));
}

/// Four threads over a partitioned register file: every thread's map and
/// free list stay inside its own slice for the whole run, and all
/// four programs retire to completion.
#[test]
fn four_threads_keep_partition_containment_to_completion() {
    let mut sim = sim(&QUAD, SimConfig::paper_default());
    while !sim.core.halted() && sim.core.now < 4_000_000 {
        sim.core.cycle();
        assert!(sim.core.error.is_none(), "clean run expected");
        if sim.core.now.is_multiple_of(1024) {
            assert_slices_contained(&sim);
        }
    }
    assert!(sim.core.halted(), "all four threads must run to completion");
    assert_eq!(sim.core.threads.len(), 4);
    assert!(sim.core.threads.iter().all(|t| t.retired > 0));
}

/// Squashing thread 0's wrong path in a 4-thread core leaves all three
/// peers byte-identical, not just the one neighbour the 2-thread test
/// covers.
#[test]
fn four_thread_squash_leaves_all_peers_untouched() {
    let mut sim = sim(&["bfs", "crc", "hash", "rle"], SimConfig::paper_default());
    while sim.core.now < 400_000 {
        let t0 = &sim.core.threads[0];
        if branch_renamed(t0) && sim.core.threads[1..].iter().all(|t| t.seq > 0) {
            break;
        }
        sim.core.cycle();
        assert!(sim.core.error.is_none(), "clean run expected");
    }
    let branch_seq = sim.core.threads[0]
        .wrong_path
        .expect("bfs must go wrong-path within the budget");

    let snaps: Vec<_> = (1..4)
        .map(|tid| {
            let t = &sim.core.threads[tid];
            (
                t.map.clone(),
                sim.core.pool.free[tid].clone(),
                t.rob().map(|i| i.seq).collect::<Vec<_>>(),
                t.latch_len(),
                t.seq,
            )
        })
        .collect();

    let now = sim.core.now;
    sim.core.squash_wrong_path(0, branch_seq, now);

    for (tid, (map, freelist, rob, latch, seq)) in snaps.iter().enumerate() {
        let t = &sim.core.threads[tid + 1];
        assert_eq!(&t.map, map, "thread {} map changed", tid + 1);
        assert_eq!(
            &sim.core.pool.free[tid + 1],
            freelist,
            "thread {} free list changed",
            tid + 1
        );
        let rob_after: Vec<u64> = t.rob().map(|i| i.seq).collect();
        assert_eq!(&rob_after, rob, "thread {} ROB changed", tid + 1);
        assert_eq!(t.latch_len(), *latch);
        assert_eq!(t.seq, *seq);
    }
    let t0 = &sim.core.threads[0];
    assert!(t0.wrong_path.is_none());
    assert!(t0.rob().all(|i| i.seq <= branch_seq));
}

/// 4-thread way partitioning: checked ≡ unchecked, and the checker's
/// way-containment cross-check stays silent for the whole run.
#[test]
fn way_partitioned_quad_is_checked_clean_and_observation_only() {
    assert_checked_matches_unchecked(spec("use-based,ways=4,partition=waypart"));
}

/// 4-thread occupancy capping: checked ≡ unchecked under the
/// per-thread occupancy cross-check.
#[test]
fn occupancy_capped_quad_is_checked_clean_and_observation_only() {
    assert_checked_matches_unchecked(spec("use-based,partition=occcap"));
}

/// Round-robin fetch across 4 threads: checked ≡ unchecked.
#[test]
fn round_robin_quad_is_checked_clean_and_observation_only() {
    assert_checked_matches_unchecked(spec("use-based,fetch=round-robin"));
}

/// ICOUNT.2.8 (two fetch slots per cycle) across 4 threads:
/// checked ≡ unchecked.
#[test]
fn icount28_quad_is_checked_clean_and_observation_only() {
    assert_checked_matches_unchecked(spec("use-based,fetch=icount28"));
}

/// A shared rename pool with per-thread caps: checked ≡ unchecked under
/// the shared-pool accounting invariants, and the cap binds at least
/// once (the configuration leaves only 256 pool registers for 4
/// threads).
#[test]
fn shared_freelist_quad_is_checked_clean_and_observation_only() {
    let mut cfg = SimConfig::paper_default();
    cfg.freelist = FreelistPolicy::Shared { cap: 96 };
    assert_checked_matches_unchecked(cfg);
}

/// Under a shared pool, the per-thread live-register count never
/// exceeds the configured cap at any cycle.
#[test]
fn shared_freelist_cap_binds_and_is_never_exceeded() {
    let mut cfg = SimConfig::paper_default();
    // Tight cap: 64 arch + 8 rename registers per thread.
    cfg.freelist = FreelistPolicy::Shared { cap: 72 };
    let mut sim = sim(&["bfs", "hash"], cfg);
    let mut capped_stalls = false;
    while !sim.core.halted() && sim.core.now < 4_000_000 {
        sim.core.cycle();
        assert!(sim.core.error.is_none(), "clean run expected");
        let pool = &sim.core.pool;
        assert_eq!(pool.free.len(), 1, "one list under a shared pool");
        for (tid, &live) in pool.live.iter().enumerate() {
            assert!(live <= pool.cap, "thread {tid} exceeded the live cap");
        }
        if sim.core.result.dispatch_stall_pregs > 0 {
            capped_stalls = true;
        }
    }
    assert!(sim.core.halted(), "both threads must run to completion");
    assert!(capped_stalls, "a 8-rename-register cap must stall dispatch");
}

/// Under a shared pool a register's thread is its dynamic owner, not
/// its static `phys_regs / nthreads` slice: p100 lies in thread 1's
/// architectural block (p64-p127), so a corrupted use counter there is
/// thread 1's.
#[test]
fn checker_names_the_owner_of_a_shared_pool_register() {
    let mut cfg = SimConfig::paper_default();
    cfg.freelist = FreelistPolicy::Shared { cap: 128 };
    cfg.check = CheckConfig::full();
    let mut sim = sim(&["crc", "rle"], cfg);
    let Storage::Cached(c) = &mut sim.core.storage else {
        panic!("the paper default is a cached core");
    };
    assert!(sim.core.pool.held[100], "p100 holds a live value");
    c.tracker.corrupt_counter(ubrc_core::PhysReg(100));
    let err = sim
        .run_checked()
        .expect_err("the corrupted counter is caught");
    let SimError::Invariant(v) = *err else {
        panic!("expected an invariant violation, got {err}");
    };
    assert_eq!(v.invariant, "use-counter", "{v}");
    assert_eq!(v.cycle, 0, "{v}");
    assert_eq!(v.thread, Some(1), "{v}");
}

/// A rename that allocates a register but skips `UseTracker::init`, in
/// miniature: the mirror is set from a prediction the tracker's word
/// never saw. The checker derives the mirror from the prediction, so
/// the stale word is a `use-counter` violation of the holder's thread.
#[test]
fn checker_catches_a_tracker_word_that_missed_its_init() {
    let mut cfg = SimConfig::paper_default();
    cfg.check = CheckConfig::full();
    let mut sim = sim(&["crc", "rle"], cfg);
    // Thread 1's r1 holds initial state: no uses owed, unpinned.
    let p = sim.core.threads[1].map[1];
    assert!(sim.core.pool.held[p as usize]);
    let ck = sim.core.checker.as_mut().expect("checked run");
    ck.on_init(p, Some(3), 1, 7);
    let err = sim.run_checked().expect_err("the stale word is caught");
    let SimError::Invariant(v) = *err else {
        panic!("expected an invariant violation, got {err}");
    };
    assert_eq!(v.invariant, "use-counter", "{v}");
    assert_eq!(v.cycle, 0, "{v}");
    assert_eq!(v.thread, Some(1), "{v}");
}

/// A checked, protected qsort with one `FlipUseCounter` armed at
/// `at_cycle`, aimed at `target` or at the seeded draw.
fn counter_fault_sim(target: Option<u16>, at_cycle: u64) -> Simulator {
    let mut cfg = spec("use-based,protect=on");
    cfg.check = CheckConfig::full();
    cfg.fault_plan = Some(FaultPlan {
        seed: 7,
        faults: vec![FaultSpec {
            at_cycle,
            kind: FaultKind::FlipUseCounter,
            target,
        }],
        periodic: None,
    });
    sim(&["qsort"], cfg)
}

/// A fault on a use counter needs a live value: aimed at a register on
/// the free list, it stays armed until rename allocates the register
/// and lands in the first cycle the pool holds it.
#[test]
fn targeted_counter_fault_waits_for_rename_to_allocate_its_register() {
    let free = &sim(&["qsort"], spec("use-based")).core.pool.free[0];
    let t = free[free.len() - 20]; // the 20th register rename allocates
    let mut sim = counter_fault_sim(Some(t), 0);
    let mut free_cycles = 0;
    loop {
        let (now, held) = (sim.core.now, sim.core.pool.held[t as usize]);
        sim.core.inject_stage(now);
        let armed = !sim.core.injector.as_ref().unwrap().armed.is_empty();
        assert_eq!(armed, !held, "cycle {now}: p{t} held={held}");
        if held {
            let Storage::Cached(c) = &sim.core.storage else {
                unreachable!()
            };
            assert!(!c.tracker.parity_ok(ubrc_core::PhysReg(t)));
            break;
        }
        free_cycles += 1;
        sim.core.cycle();
    }
    assert!(free_cycles > 1, "p{t} was free for {free_cycles} cycles");
    sim.run_checked().expect("the checker waits for the scrub");
}

/// The seeded draw lands a use-counter fault on a register the pool
/// holds, one register per fault.
#[test]
fn untargeted_counter_fault_lands_on_a_held_register() {
    let mut sim = counter_fault_sim(None, 40);
    while sim.core.now < 40 {
        sim.core.cycle();
    }
    sim.core.inject_stage(40);
    assert!(sim.core.injector.as_ref().unwrap().armed.is_empty());
    let Storage::Cached(c) = &sim.core.storage else {
        unreachable!()
    };
    let flipped: Vec<u16> = (0..sim.core.config.phys_regs as u16)
        .filter(|&p| !c.tracker.parity_ok(ubrc_core::PhysReg(p)))
        .collect();
    assert_eq!(flipped.len(), 1, "{flipped:?}");
    assert!(sim.core.pool.held[flipped[0] as usize], "{flipped:?}");
    sim.run_checked().expect("the checker waits for the scrub");
}

/// The `armed-slot` invariant: a stray armed bit on an issued slot, and
/// a cleared bit on a slot with a finite deadline, are each reported
/// against the thread whose window holds the slot.
#[test]
fn checker_reports_armed_bits_that_disagree_with_deadlines() {
    let mut cfg = SimConfig::paper_default();
    cfg.check = CheckConfig::full();
    let mut sim = sim(&["qsort", "rle"], cfg);
    // Window positions of thread 1's first issued and first armed slot.
    let slots = |t: &crate::stage::ThreadState| {
        let pos = |want: fn(u64) -> bool| {
            let i = t.sched.iter().position(|s| want(s.wake))?;
            Some(t.retired + i as u64)
        };
        Some((
            pos(|w| w == crate::stage::SCHED_ISSUED)?,
            pos(|w| w < crate::stage::SCHED_PARKED)?,
        ))
    };
    let (issued, armed) = loop {
        sim.core.cycle();
        assert!(sim.core.check_invariants().is_none(), "clean before");
        if let Some(found) = slots(&sim.core.threads[1]) {
            break found;
        }
        assert!(sim.core.now < 10_000, "thread 1 never held both slots");
    };
    let expect_violation = |sim: &Simulator| {
        let v = sim.core.check_invariants().expect("the bit is caught");
        assert_eq!(v.invariant, "armed-slot", "{v}");
        assert_eq!(v.thread, Some(1), "{v}");
    };
    sim.core.threads[1].armed.arm(issued);
    expect_violation(&sim);
    sim.core.threads[1].armed.disarm(issued);
    assert!(sim.core.check_invariants().is_none(), "restored");
    sim.core.threads[1].armed.disarm(armed);
    expect_violation(&sim);
}

/// The window's shape invariants: a renamed boundary that outruns the
/// issue slots breaks `sched-rob-lockstep`, and an unrenamed tail past
/// the latch's capacity, or an oracle record queue shorter than the
/// window, breaks `fetch-latch`, each reported against its thread.
#[test]
fn checker_reports_a_window_out_of_shape() {
    let mut cfg = SimConfig::paper_default();
    cfg.check = CheckConfig::full();
    let mut sim = sim(&["qsort", "rle"], cfg);
    while sim.core.threads[1].latch_len() == 0 {
        sim.core.cycle();
        assert!(sim.core.check_invariants().is_none(), "clean before");
        assert!(sim.core.now < 10_000, "thread 1 never fetched");
    }
    let expect_violation = |sim: &Simulator, invariant: &str, detail: &str| {
        let v = sim.core.check_invariants().expect("the shape is caught");
        assert_eq!(v.invariant, invariant, "{v}");
        assert_eq!(v.thread, Some(1), "{v}");
        assert!(v.detail.contains(detail), "{v}");
    };
    sim.core.threads[1].renamed += 1;
    expect_violation(&sim, "sched-rob-lockstep", "renamed of");
    sim.core.threads[1].renamed -= 1;

    let record = sim.core.threads[1]
        .oracle
        .as_mut()
        .expect("full checking keeps records")
        .records
        .pop_back()
        .expect("one per window entry");
    expect_violation(&sim, "fetch-latch", "oracle records");
    let t = &mut sim.core.threads[1];
    t.oracle.as_mut().expect("kept").records.push_back(record);
    assert!(sim.core.check_invariants().is_none(), "restored");

    let cap = sim.core.latch_cap();
    let t = &mut sim.core.threads[1];
    let tail = t.window.back().expect("fetched").clone();
    while t.latch_len() <= cap {
        t.window.push_back(tail.clone());
        t.oracle.as_mut().expect("kept").records.push_back(record);
    }
    expect_violation(&sim, "fetch-latch", "unrenamed entries exceed");
}

// --- Dynamic cache repartitioning ---------------------------------------

fn dyncap_cache() -> RegCacheConfig {
    let mut cache = RegCacheConfig::use_based(64, 4);
    cache.partition = CachePartition::DynamicCap {
        epoch_cycles: 2048,
        min_cap: 4,
    };
    cache
}

/// 4-thread dynamic capping: checked ≡ unchecked under the per-cycle
/// dynamic-cap containment and cap-sum-conservation cross-checks.
#[test]
fn dynamic_capped_quad_is_checked_clean_and_observation_only() {
    assert_checked_matches_unchecked(cached(dyncap_cache()));
}

/// A dynamically-capped quad run actually exercises the feedback loop:
/// epoch boundaries fire, every recorded repartition conserves the
/// total entry count, and the timeline's boundary cycles land exactly
/// on epoch multiples.
#[test]
fn dynamic_cap_epochs_fire_and_conserve_the_cache() {
    let result = run(&QUAD, cached(dyncap_cache()));
    assert!(
        result.epochs > 0,
        "the quad must outlive one 2048-cycle epoch"
    );
    assert_eq!(result.epoch_timeline.len() as u64, result.epochs);
    let caps = &result
        .epoch_timeline
        .last()
        .expect("DynamicCap reports its quotas")
        .caps;
    assert_eq!(caps.len(), 4);
    assert_eq!(
        caps.iter().sum::<usize>(),
        64,
        "quotas must cover the cache"
    );
    for rec in &result.epoch_timeline {
        assert_eq!(rec.cycle % 2048, 0, "boundary off the epoch grid");
        assert_eq!(rec.caps.iter().sum::<usize>(), 64);
        assert!(rec.caps.iter().all(|&c| c >= 1), "a thread lost its quota");
        assert_eq!(rec.hits.len(), 4);
        assert_eq!(rec.misses.len(), 4);
    }
}

/// The epoch controller is driven purely by the cycle counter and
/// deterministic utility counters — no RNG, no host state — so two
/// identical dynamically-capped runs replay bit-identically, including
/// the full quota timeline.
#[test]
fn dynamic_cap_runs_are_deterministic() {
    let once = || run(&QUAD, cached(dyncap_cache()));
    let a = once();
    let b = once();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.thread_retired, b.thread_retired);
    assert_eq!(a.miss_events, b.miss_events);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.epoch_timeline, b.epoch_timeline);
    assert!(
        a.epochs > 0,
        "determinism must be shown on a live feedback loop"
    );
}

/// A machine-check squash mid-epoch frees a batch of the victim
/// thread's registers behind the epoch controller's back. The utility
/// monitors and occupancy books must absorb that (squash frees route
/// through the same `free` path the monitors watch), so a faulted run
/// stays checker-clean through every squash and every later epoch
/// boundary. Periodic backing-word faults on a tiny dynamically-capped
/// cache guarantee machine checks land between boundaries.
#[test]
fn machine_check_squashes_mid_epoch_keep_dynamic_caps_consistent() {
    let mut cache = RegCacheConfig::use_based(16, 2);
    cache.partition = CachePartition::DynamicCap {
        epoch_cycles: 512,
        min_cap: 2,
    };
    cache.protect = true;
    let mut cfg = cached(cache);
    cfg.check = CheckConfig::full();
    cfg.fault_plan = Some(crate::inject::FaultPlan::periodic(
        29,
        40,
        crate::inject::FaultKind::FlipBackingWord,
    ));
    let r = crate::simulate(programs(&QUAD), cfg)
        .expect("faulted dynamically-capped run recovers cleanly");
    assert!(
        r.machine_checks() > 0,
        "no backing fault reached a miss read"
    );
    assert!(
        r.epochs > 0,
        "squashes must interleave with epoch boundaries"
    );
    let caps = &r
        .epoch_timeline
        .last()
        .expect("DynamicCap reports its quotas")
        .caps;
    assert_eq!(caps.iter().sum::<usize>(), 16, "squashes leaked quota");
    assert!(r.thread_retired.iter().all(|&t| t > 0));
}

#[test]
fn dynamic_cap_zero_epoch_is_rejected() {
    let mut cache = RegCacheConfig::use_based(64, 4);
    cache.partition = CachePartition::DynamicCap {
        epoch_cycles: 0,
        min_cap: 1,
    };
    let err = rejected(&["crc", "rle"], cached(cache));
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::ZeroEpoch {
            partition: "DynamicCap"
        })
    );
}

#[test]
fn dynamic_cap_with_too_few_entries_is_rejected() {
    let mut cache = RegCacheConfig::use_based(1, 1);
    cache.partition = CachePartition::DynamicCap {
        epoch_cycles: 2048,
        min_cap: 1,
    };
    let err = rejected(&["crc", "rle"], cached(cache));
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::TooFewEntries {
            partition: "DynamicCap",
            entries: 1,
            nthreads: 2
        })
    );
}

#[test]
fn dynamic_cap_min_cap_too_large_is_rejected() {
    let mut cache = RegCacheConfig::use_based(64, 4);
    cache.partition = CachePartition::DynamicCap {
        epoch_cycles: 2048,
        min_cap: 40,
    };
    let err = rejected(&["crc", "rle"], cached(cache));
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::MinCapTooLarge {
            min_cap: 40,
            nthreads: 2,
            entries: 64
        })
    );
    // The message names all three numbers.
    let msg = err.to_string();
    assert!(msg.contains("40") && msg.contains("64"), "{msg}");
}

/// Dynamic capping assumes static register ownership, exactly like the
/// other partitioned-cache modes: a shared rename pool is rejected by
/// the existing partition/freelist compatibility check.
#[test]
fn dynamic_cap_with_shared_freelist_is_rejected() {
    let mut cfg = cached(dyncap_cache());
    cfg.freelist = FreelistPolicy::Shared { cap: 128 };
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(err, ConfigError::SharedFreelistWithPartitionedCache);
}

// --- Dynamic way reassignment -------------------------------------------

fn dynway_cache() -> RegCacheConfig {
    let mut cache = RegCacheConfig::use_based(64, 8);
    cache.partition = CachePartition::DynamicWay { epoch_cycles: 2048 };
    cache
}

/// 4-thread dynamic way reassignment: checked ≡ unchecked under the
/// per-cycle way-containment (against the epoch-varying ownership) and
/// way-sum-conservation cross-checks.
#[test]
fn dynamic_way_quad_is_checked_clean_and_observation_only() {
    assert_checked_matches_unchecked(cached(dynway_cache()));
}

/// A dynamically-way-partitioned quad run exercises the feedback loop:
/// epoch boundaries fire, every recorded way map conserves the
/// associativity with every thread keeping at least one way, and the
/// recorded entry quotas are exactly the way counts in entry
/// equivalents.
#[test]
fn dynamic_way_epochs_fire_and_conserve_the_ways() {
    let result = run(&QUAD, cached(dynway_cache()));
    assert!(
        result.epochs > 0,
        "the quad must outlive one 2048-cycle epoch"
    );
    assert_eq!(result.epoch_timeline.len() as u64, result.epochs);
    let sets = 64 / 8;
    for rec in &result.epoch_timeline {
        assert_eq!(rec.cycle % 2048, 0, "boundary off the epoch grid");
        assert_eq!(rec.ways.iter().sum::<usize>(), 8, "ways not conserved");
        assert!(rec.ways.iter().all(|&c| c >= 1), "a thread lost its ways");
        let caps: Vec<usize> = rec.ways.iter().map(|&c| c * sets).collect();
        assert_eq!(rec.caps, caps, "caps must mirror the way map");
        assert_eq!(rec.hits.len(), 4);
        assert_eq!(rec.misses.len(), 4);
    }
}

/// Way reassignment is driven purely by the cycle counter and the
/// deterministic utility monitors, so two identical runs replay
/// bit-identically, including the full way-map timeline.
#[test]
fn dynamic_way_runs_are_deterministic() {
    let once = || run(&QUAD, cached(dynway_cache()));
    let a = once();
    let b = once();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.thread_retired, b.thread_retired);
    assert_eq!(a.miss_events, b.miss_events);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.epoch_timeline, b.epoch_timeline);
    assert!(
        a.epochs > 0,
        "determinism must be shown on a live feedback loop"
    );
}

/// Adaptive epoch pacing (lengthen on agreement, shorten on change) is
/// a pure function of the repartition history, so it replays
/// bit-identically too — and its variable-length epochs actually leave
/// the fixed grid.
#[test]
fn adaptive_epoch_runs_are_deterministic() {
    let adaptive = || {
        let mut cache = RegCacheConfig::use_based(64, 8);
        cache.partition = CachePartition::DynamicWay { epoch_cycles: 512 };
        cache.epoch_adapt = Some(ubrc_core::EpochAdapt {
            min_cycles: 128,
            max_cycles: 4096,
            band: 2,
        });
        cached(cache)
    };
    let once = || run(&QUAD, adaptive());
    let a = once();
    let b = once();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.thread_retired, b.thread_retired);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.epoch_timeline, b.epoch_timeline);
    assert!(a.epochs > 0, "adaptive epochs must fire");
    // Strictly increasing boundary cycles, each a valid multiple of
    // nothing in particular — the pacer owns the schedule.
    for w in a.epoch_timeline.windows(2) {
        assert!(w[0].cycle < w[1].cycle, "boundaries must advance");
    }
}

/// A machine-check squash mid-epoch frees a batch of the victim
/// thread's registers behind the way controller's back, and recovery
/// replays through freshly reassigned ways. The run must stay
/// checker-clean (way containment, way-sum conservation) through every
/// squash and boundary.
#[test]
fn machine_check_squashes_mid_way_reassignment_stay_consistent() {
    let mut cache = RegCacheConfig::use_based(16, 4);
    cache.partition = CachePartition::DynamicWay { epoch_cycles: 512 };
    cache.protect = true;
    let mut cfg = cached(cache);
    cfg.check = CheckConfig::full();
    cfg.fault_plan = Some(crate::inject::FaultPlan::periodic(
        29,
        40,
        crate::inject::FaultKind::FlipBackingWord,
    ));
    let r = crate::simulate(programs(&QUAD), cfg)
        .expect("faulted dynamically-way-partitioned run recovers cleanly");
    assert!(
        r.machine_checks() > 0,
        "no backing fault reached a miss read"
    );
    assert!(
        r.epochs > 0,
        "squashes must interleave with way reassignment"
    );
    for rec in &r.epoch_timeline {
        assert_eq!(rec.ways.iter().sum::<usize>(), 4, "squashes leaked ways");
    }
    assert!(r.thread_retired.iter().all(|&t| t > 0));
}

#[test]
fn dynamic_way_zero_epoch_is_rejected() {
    let mut cache = RegCacheConfig::use_based(64, 8);
    cache.partition = CachePartition::DynamicWay { epoch_cycles: 0 };
    let err = rejected(&["crc", "rle"], cached(cache));
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::ZeroEpoch {
            partition: "DynamicWay"
        })
    );
}

#[test]
fn dynamic_way_with_indivisible_ways_is_rejected() {
    let mut cache = RegCacheConfig::use_based(48, 3);
    cache.partition = CachePartition::DynamicWay { epoch_cycles: 2048 };
    let err = rejected(&["crc", "rle"], cached(cache));
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::WaysIndivisible {
            partition: "DynamicWay",
            ways: 3,
            nthreads: 2
        })
    );
}

#[test]
fn dynamic_way_with_shared_freelist_is_rejected() {
    let mut cfg = cached(dynway_cache());
    cfg.freelist = FreelistPolicy::Shared { cap: 128 };
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(err, ConfigError::SharedFreelistWithPartitionedCache);
}

#[test]
fn epoch_adapt_with_empty_range_is_rejected() {
    let mut cache = dynway_cache();
    cache.epoch_adapt = Some(ubrc_core::EpochAdapt {
        min_cycles: 1024,
        max_cycles: 64,
        band: 2,
    });
    let err = rejected(&["crc", "rle"], cached(cache));
    assert_eq!(
        err,
        ConfigError::Cache(CacheConfigError::EpochAdaptRange {
            min_cycles: 1024,
            max_cycles: 64
        })
    );
}

#[test]
fn epoch_adapt_on_static_partition_is_rejected() {
    let cfg = spec("use-based,ways=4,partition=waypart,adapt=on");
    let err = rejected(&["crc", "rle"], cfg);
    assert_eq!(err, ConfigError::Cache(CacheConfigError::EpochAdaptStatic));
}

/// The fetch-policy choosers are all deterministic: identical runs
/// replay bit-identically under every policy.
#[test]
fn all_fetch_policies_are_deterministic() {
    for policy in [
        FetchPolicy::Icount,
        FetchPolicy::RoundRobin,
        FetchPolicy::Icount28,
    ] {
        let once = || {
            let mut cfg = SimConfig::paper_default();
            cfg.fetch_policy = policy;
            run(&["listchase", "strsearch"], cfg)
        };
        let a = once();
        let b = once();
        assert_eq!(a.cycles, b.cycles, "{policy:?} replay diverged");
        assert_eq!(a.retired, b.retired);
        assert_eq!(a.thread_retired, b.thread_retired);
        assert_eq!(a.miss_events, b.miss_events);
    }
}
