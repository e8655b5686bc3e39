//! Property tests for the robustness-critical bookkeeping: remaining-use
//! counters must saturate instead of underflowing, pinned counters must
//! never move, and no operation sequence may drive a cache set past its
//! associativity or break the cache's internal audit.

use proptest::prelude::*;
use ubrc_core::{CachePartition, PhysReg, RegCacheConfig, RegisterCache, UseTracker};

const NPREGS: usize = 32;
const MAX_USE: u8 = 7;

/// One randomly-chosen tracker or cache operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Init {
        preg: u8,
        degree: Option<u8>,
    },
    Consume {
        preg: u8,
    },
    Write {
        preg: u8,
        remaining: u8,
        pinned: bool,
    },
    Read {
        preg: u8,
    },
    Fill {
        preg: u8,
    },
    Free {
        preg: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let preg = 0u8..NPREGS as u8;
    prop_oneof![
        (preg.clone(), proptest::option::of(0u8..12))
            .prop_map(|(preg, degree)| Op::Init { preg, degree }),
        preg.clone().prop_map(|preg| Op::Consume { preg }),
        (preg.clone(), 0u8..=MAX_USE, any::<bool>()).prop_map(|(preg, remaining, pinned)| {
            Op::Write {
                preg,
                remaining,
                pinned,
            }
        }),
        preg.clone().prop_map(|preg| Op::Read { preg }),
        preg.clone().prop_map(|preg| Op::Fill { preg }),
        preg.prop_map(|preg| Op::Free { preg }),
    ]
}

/// The value lifecycle the pipeline guarantees: a register is produced
/// before it is written, written once per value, filled only after its
/// write, and freed before it is produced again (re-allocating a live
/// register frees it first, exactly as the rename free-list does).
struct Lifecycle {
    live: [bool; NPREGS],
    written: [bool; NPREGS],
}

impl Lifecycle {
    fn new() -> Self {
        Self {
            live: [false; NPREGS],
            written: [false; NPREGS],
        }
    }

    /// Applies `op` to every cache in `caches`, each register in the
    /// set `preg % nsets`, unless the lifecycle rules it out.
    fn apply(&mut self, caches: &mut [RegisterCache], op: Op, nsets: usize, now: u64) {
        let i = match op {
            Op::Init { preg, .. }
            | Op::Consume { preg }
            | Op::Write { preg, .. }
            | Op::Read { preg }
            | Op::Fill { preg }
            | Op::Free { preg } => preg as usize,
        };
        let (p, set) = (PhysReg(i as u16), (i % nsets) as u16);
        let (live, written) = (self.live[i], self.written[i]);
        for cache in caches.iter_mut() {
            match op {
                Op::Init { .. } => {
                    if live {
                        cache.free(p, set, now);
                    }
                    cache.produce(p);
                }
                Op::Write {
                    remaining, pinned, ..
                } if live && !written => {
                    cache.write(p, set, remaining, pinned, 0, now);
                }
                Op::Read { .. } | Op::Consume { .. } if live => {
                    cache.read(p, set, now);
                }
                Op::Fill { .. } if live && written => cache.fill(p, set, now),
                Op::Free { .. } if live => cache.free(p, set, now),
                _ => {}
            }
        }
        match op {
            Op::Init { .. } => (self.live[i], self.written[i]) = (true, false),
            Op::Write { .. } if live => self.written[i] = true,
            Op::Free { .. } => self.live[i] = false,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn static_partitions_are_dynamic_ones_without_epochs(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        // Before its first epoch boundary a dynamic partition enforces
        // the even split its static twin enforces forever, so on
        // geometries whose entries and ways divide by the thread count
        // the two make the same decision on every operation.
        let pairs = [
            (CachePartition::OccupancyCap, CachePartition::DynamicCap {
                epoch_cycles: 8,
                min_cap: 1,
            }, 16, 2, 4),
            (CachePartition::WayPartition, CachePartition::DynamicWay { epoch_cycles: 8 }, 16, 4, 2),
        ];
        for (fixed, dynamic, entries, ways, nthreads) in pairs {
            let build = |partition| {
                let mut cfg = RegCacheConfig::use_based(entries, ways);
                cfg.partition = partition;
                RegisterCache::new_smt(cfg, NPREGS, nthreads)
            };
            let mut caches = [build(fixed), build(dynamic)];
            let mut lifecycle = Lifecycle::new();
            for (now, &op) in ops.iter().enumerate() {
                lifecycle.apply(&mut caches, op, entries / ways, now as u64 + 1);
            }
            let [a, b] = &caches;
            prop_assert_eq!(
                format!("{:?}", a.stats()),
                format!("{:?}", b.stats()),
                "{:?} and {:?} counted differently",
                fixed,
                dynamic
            );
            prop_assert_eq!(a.entries().collect::<Vec<_>>(), b.entries().collect::<Vec<_>>());
        }
    }

    #[test]
    fn use_counters_saturate_and_never_underflow(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut t = UseTracker::new(NPREGS);
        // Reference model: what a live value's counter must read after
        // each op; `None` for a freed register, whose word means
        // nothing until the next init and which nothing consumes.
        let mut model: Vec<Option<(u8, bool)>> = vec![None; NPREGS];
        for op in ops {
            match op {
                Op::Init { preg, degree } => {
                    let p = PhysReg(preg as u16);
                    t.init(p, degree, 1, MAX_USE);
                    let d = degree.unwrap_or(1);
                    model[preg as usize] = Some((d.min(MAX_USE), d >= MAX_USE));
                }
                Op::Consume { preg } | Op::Read { preg } => {
                    if let Some((r, pinned)) = &mut model[preg as usize] {
                        t.consume(PhysReg(preg as u16));
                        if !*pinned {
                            *r = r.saturating_sub(1);
                        }
                    }
                }
                Op::Free { preg } => model[preg as usize] = None,
                Op::Write { .. } | Op::Fill { .. } => {}
            }
            for (i, m) in model.iter().enumerate() {
                let (p, Some((r, pinned))) = (PhysReg(i as u16), m) else {
                    continue;
                };
                prop_assert_eq!(t.remaining(p), *r, "p{} counter drifted", i);
                prop_assert_eq!(t.is_pinned(p), *pinned);
                prop_assert!(t.remaining(p) <= MAX_USE, "p{} counter overflow", i);
            }
        }
    }

    #[test]
    fn cache_sets_never_exceed_associativity(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        // 8 sets x 2 ways; each preg keeps the fixed set assignment the
        // pipeline's index assigner would give it for its lifetime, and
        // the ops respect the produce-once/write-once value lifecycle
        // the pipeline guarantees.
        let cfg = RegCacheConfig::use_based(16, 2);
        let ways = cfg.ways;
        let nsets = cfg.entries / cfg.ways;
        let mut caches = [RegisterCache::new(cfg, NPREGS)];
        let mut lifecycle = Lifecycle::new();
        for op in ops {
            lifecycle.apply(&mut caches, op, nsets, 0);
            let cache = &caches[0];
            prop_assert!(cache.audit().is_ok(), "audit failed: {:?}", cache.audit());
            let mut per_set = vec![0usize; nsets];
            for e in cache.entries() {
                per_set[e.set as usize] += 1;
                prop_assert!(
                    e.pinned || e.uses <= MAX_USE,
                    "{} counter {} out of range",
                    e.preg,
                    e.uses
                );
            }
            for (s, &n) in per_set.iter().enumerate() {
                prop_assert!(n <= ways, "set {s} holds {n} entries for {ways} ways");
            }
        }
    }

    #[test]
    fn corrupt_metadata_is_always_caught_by_audit(
        writes in proptest::collection::vec((0u8..NPREGS as u8, 1u8..=MAX_USE), 1..20),
        nth in any::<usize>(),
    ) {
        let cfg = RegCacheConfig::use_based(16, 2);
        let nsets = cfg.entries / cfg.ways;
        let mut cache = RegisterCache::new(cfg, NPREGS);
        let mut seen = [false; NPREGS];
        for (preg, remaining) in writes {
            if std::mem::replace(&mut seen[preg as usize], true) {
                continue; // each value is produced and written once
            }
            let set = (preg as usize % nsets) as u16;
            cache.produce(PhysReg(preg as u16));
            cache.write(PhysReg(preg as u16), set, remaining, false, 0, 0);
        }
        prop_assert!(cache.audit().is_ok());
        // The injector's metadata corruption must never pass the audit.
        prop_assert!(cache.corrupt_metadata(nth).is_some());
        prop_assert!(cache.audit().is_err());
    }

    #[test]
    fn occupancy_cap_is_never_exceeded(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        // 4 hardware threads over a 16-entry 2-way cache under
        // OccupancyCap: no operation sequence may push any thread past
        // its cap of entries/nthreads = 4 live entries, and the cache's
        // own audit (which cross-checks the same bound) stays green.
        let mut cfg = RegCacheConfig::use_based(16, 2);
        cfg.partition = CachePartition::OccupancyCap;
        let nthreads = 4;
        let nsets = cfg.entries / cfg.ways;
        let mut cache = RegisterCache::new_smt(cfg, NPREGS, nthreads);
        let cap = cache.current_cap(0).expect("OccupancyCap mode has a cap");
        prop_assert_eq!(cap, 4);
        let mut lifecycle = Lifecycle::new();
        let mut now = 0u64;
        for op in ops {
            now += 1;
            lifecycle.apply(std::slice::from_mut(&mut cache), op, nsets, now);
            prop_assert!(cache.audit().is_ok(), "audit failed: {:?}", cache.audit());
            let mut per_thread = vec![0usize; nthreads];
            for e in cache.entries() {
                per_thread[e.tid as usize] += 1;
            }
            for (t, &n) in per_thread.iter().enumerate() {
                prop_assert!(n <= cap, "thread {t} holds {n} entries for a cap of {cap}");
            }
        }
    }

    #[test]
    fn dynamic_cap_never_violates_containment_or_conservation(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        // 4 hardware threads over a 16-entry 2-way cache under
        // DynamicCap with an epoch boundary forced every 8 operations:
        // across arbitrary lifecycle sequences interleaved with
        // repartitioning, every thread's occupancy stays at or below
        // its current quota, the quotas always sum to exactly the
        // cache size (no entry is ever orphaned or double-granted),
        // and the cache's own audit stays green.
        let mut cfg = RegCacheConfig::use_based(16, 2);
        cfg.partition = CachePartition::DynamicCap {
            epoch_cycles: 8,
            min_cap: 1,
        };
        let nthreads = 4;
        let nsets = cfg.entries / cfg.ways;
        let entries = cfg.entries;
        let mut cache = RegisterCache::new_smt(cfg, NPREGS, nthreads);
        let mut lifecycle = Lifecycle::new();
        let mut now = 0u64;
        for op in ops {
            now += 1;
            lifecycle.apply(std::slice::from_mut(&mut cache), op, nsets, now);
            if now.is_multiple_of(8) {
                let fb = cache.epoch_boundary(now);
                prop_assert_eq!(fb.caps.iter().sum::<usize>(), entries);
                prop_assert_eq!(
                    fb.caps.as_slice(),
                    cache.dynamic_caps().expect("DynamicCap mode"),
                    "feedback and installed quotas diverged"
                );
            }
            prop_assert!(cache.audit().is_ok(), "audit failed: {:?}", cache.audit());
            let caps = cache.dynamic_caps().expect("DynamicCap mode").to_vec();
            prop_assert_eq!(caps.iter().sum::<usize>(), entries, "quota sum drifted");
            let mut per_thread = vec![0usize; nthreads];
            for e in cache.entries() {
                per_thread[e.tid as usize] += 1;
            }
            for (t, &n) in per_thread.iter().enumerate() {
                prop_assert!(
                    n <= caps[t],
                    "thread {} holds {} entries for a quota of {}",
                    t, n, caps[t]
                );
            }
        }
    }

    #[test]
    fn dynamic_way_never_violates_ownership_or_conservation(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        // 2 hardware threads over a 16-entry 4-way cache under
        // DynamicWay with an epoch boundary forced every 8 operations:
        // across arbitrary lifecycle sequences interleaved with whole-
        // way reassignment, every resident entry sits in a way its
        // thread currently owns, the way counts always sum to exactly
        // the associativity with every thread keeping at least one way,
        // and the cache's own audit stays green.
        let mut cfg = RegCacheConfig::use_based(16, 4);
        cfg.partition = CachePartition::DynamicWay { epoch_cycles: 8 };
        let nthreads = 2;
        let nsets = cfg.entries / cfg.ways;
        let ways = cfg.ways;
        let mut cache = RegisterCache::new_smt(cfg, NPREGS, nthreads);
        let mut lifecycle = Lifecycle::new();
        let mut now = 0u64;
        for op in ops {
            now += 1;
            lifecycle.apply(std::slice::from_mut(&mut cache), op, nsets, now);
            if now.is_multiple_of(8) {
                let fb = cache.epoch_boundary(now);
                prop_assert_eq!(fb.ways.iter().sum::<usize>(), ways);
                prop_assert_eq!(
                    fb.ways.as_slice(),
                    cache.way_counts().expect("DynamicWay mode"),
                    "feedback and installed way counts diverged"
                );
            }
            prop_assert!(cache.audit().is_ok(), "audit failed: {:?}", cache.audit());
            let counts = cache.way_counts().expect("DynamicWay mode").to_vec();
            prop_assert_eq!(counts.iter().sum::<usize>(), ways, "way sum drifted");
            prop_assert!(counts.iter().all(|&c| c >= 1), "a thread owns zero ways");
            for e in cache.entries() {
                let owner = cache
                    .way_owner(e.way as usize)
                    .expect("DynamicWay owns every way");
                prop_assert_eq!(
                    owner, e.tid as usize,
                    "thread {}'s entry sits in way {} owned by thread {}",
                    e.tid, e.way, owner
                );
            }
        }
    }
}
