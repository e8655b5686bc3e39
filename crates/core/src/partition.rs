//! SMT partitioning state of the register cache.
//!
//! [`CachePartition`] is the *configuration-level* name of a
//! partitioning policy — `Copy`, `Eq`, cheap to put in sweep matrices.
//! [`PartitionState`] is its run-time state, built once at cache
//! construction by [`PartitionState::new`] from a configuration
//! [`RegCacheConfig::validate`] has accepted. The five policies need
//! three states — shared ways, per-thread entry caps, per-thread way
//! blocks — because a static partition is its dynamic twin without an
//! epoch pacer: `OccupancyCap` is `DynamicCap` whose caps never move,
//! and `WayPartition` is `DynamicWay` whose blocks never move. The state
//! is consulted by plain `match`es at three decision points:
//!
//! 1. **Insertion** ([`PartitionState::admit`] +
//!    [`PartitionState::victim_ways`]): may this thread place freely,
//!    and into which ways of the target set? An inadmissible insert (a
//!    thread at its occupancy quota) falls back to evicting one of the
//!    thread's *own* entries in the set, or is dropped.
//! 2. **Epoch pacing** ([`PartitionState::epoch_due`] +
//!    [`PartitionState::epoch_boundary`]): the dynamic partitions decide
//!    when a boundary fires and return an [`EpochPlan`] — new entry
//!    quotas or a new way map — which the cache then enforces (trimming
//!    over-quota threads, draining reassigned ways).
//! 3. **Audit** ([`PartitionState::audit`]): self-consistency of the
//!    quota state, folded into the cache's structural audit.
//!
//! Adding a partition policy is adding a [`CachePartition`] variant with
//! its feasibility rules in [`RegCacheConfig::validate`], and its state
//! and match arms here.

use crate::monitor::UtilityMonitor;
use crate::policy::{CachePartition, EpochAdapt, RegCacheConfig};
use std::ops::Range;

/// Read-only epoch-boundary inputs handed to
/// [`PartitionState::epoch_boundary`].
///
/// The cache gathers these from its own state so the partition stays
/// free of entry-array knowledge: the shadow-tag monitors (utility
/// curves), the pinned footprints (quota floors), and the geometry.
#[derive(Debug)]
pub(crate) struct EpochContext<'a> {
    /// The shadow-tag utility monitors feeding the partitioner.
    pub(crate) monitor: &'a UtilityMonitor,
    /// Valid pinned entries per thread (quota floors: pinned entries
    /// are never evicted by a repartition).
    pub(crate) pinned: &'a [usize],
    /// The largest pinned-entry count any single set holds per thread
    /// (way-granularity floors: a thread's new way block must fit its
    /// pinned entries in every set).
    pub(crate) pinned_per_set_max: &'a [usize],
    /// Total cache entries.
    pub(crate) entries: usize,
    /// Cache associativity.
    pub(crate) ways: usize,
    /// Cache set count (= entries the ownership of one way is worth).
    pub(crate) sets: usize,
}

/// A dynamic partition's repartition decision, enforced by the cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum EpochPlan {
    /// New per-thread occupancy quotas (summing to the entry count);
    /// the cache trims each over-quota thread by evicting its own
    /// unpinned entries, lowest replacement score first.
    Caps(Vec<usize>),
    /// New per-thread way counts (summing to the associativity, laid
    /// out as contiguous blocks in thread order); the cache drains
    /// reassigned ways — evicting the losing thread's unpinned entries
    /// and migrating its pinned entries into its remaining block.
    Ways(Vec<usize>),
}

/// The run-time state of a [`CachePartition`] (see the module docs).
///
/// Every method is a deterministic function of this state and its
/// inputs — the golden-snapshot matrix pins the resulting timing.
#[derive(Clone, Debug)]
pub(crate) enum PartitionState {
    /// [`CachePartition::Shared`] (and every single-thread cache): all
    /// ways compete freely, no quotas, no epochs.
    Shared { ways: usize },
    /// [`CachePartition::OccupancyCap`] and
    /// [`CachePartition::DynamicCap`]: shared ways, thread `t` holds at
    /// most `caps[t]` live entries. With a `pacer` the caps are
    /// recomputed from the utility monitors every epoch, raising each
    /// toward `min_cap` first.
    Caps {
        ways: usize,
        caps: Vec<usize>,
        min_cap: usize,
        pacer: Option<EpochPacer>,
    },
    /// [`CachePartition::WayPartition`] and
    /// [`CachePartition::DynamicWay`]: contiguous per-thread way blocks
    /// in thread order; thread `t` owns `counts[t]` ways, starting at
    /// the prefix sum of `counts[..t]`. With a `pacer` the blocks are
    /// reassigned from the utility monitors every epoch.
    Ways {
        counts: Vec<usize>,
        pacer: Option<EpochPacer>,
    },
}

impl PartitionState {
    /// Builds the state implementing `config.partition` for an
    /// `nthreads`-thread cache; `config` must pass
    /// [`RegCacheConfig::validate`] for `nthreads`. With one thread
    /// every policy degenerates to [`PartitionState::Shared`]
    /// (partitioning is inert), preserving the single-thread golden
    /// contract.
    pub(crate) fn new(config: &RegCacheConfig, nthreads: usize) -> Self {
        let (entries, ways) = (config.entries, config.ways);
        let pacer = |epoch_cycles| Some(EpochPacer::new(epoch_cycles, config.epoch_adapt));
        if nthreads <= 1 {
            return PartitionState::Shared { ways };
        }
        match config.partition {
            CachePartition::Shared => PartitionState::Shared { ways },
            CachePartition::WayPartition => PartitionState::Ways {
                counts: vec![ways / nthreads; nthreads],
                pacer: None,
            },
            CachePartition::OccupancyCap => PartitionState::Caps {
                ways,
                caps: vec![entries / nthreads; nthreads],
                min_cap: 0,
                pacer: None,
            },
            CachePartition::DynamicCap {
                epoch_cycles,
                min_cap,
            } => PartitionState::Caps {
                ways,
                // Initial quotas: the even OccupancyCap split, remainder
                // to the lower-numbered threads so the quotas sum to
                // `entries` exactly.
                caps: (0..nthreads)
                    .map(|t| entries / nthreads + usize::from(t < entries % nthreads))
                    .collect(),
                min_cap,
                pacer: pacer(epoch_cycles),
            },
            CachePartition::DynamicWay { epoch_cycles } => PartitionState::Ways {
                counts: vec![ways / nthreads; nthreads],
                pacer: pacer(epoch_cycles),
            },
        }
    }

    /// May `tid` place a new entry freely (into
    /// [`PartitionState::victim_ways`])? `false` means the thread is at
    /// its occupancy quota: the cache falls back to evicting one of the
    /// thread's own entries in the target set, dropping the insertion
    /// if it has none there.
    #[inline]
    pub(crate) fn admit(&self, tid: usize, occupancy: &[usize]) -> bool {
        match self {
            PartitionState::Caps { caps, .. } => occupancy[tid] < caps[tid],
            _ => true,
        }
    }

    /// The candidate ways (relative to the set base) an admitted
    /// insertion by `tid` may fill or evict from.
    #[inline]
    pub(crate) fn victim_ways(&self, tid: usize) -> Range<usize> {
        match self {
            PartitionState::Shared { ways } | PartitionState::Caps { ways, .. } => 0..*ways,
            PartitionState::Ways { counts, .. } => {
                let lo = counts[..tid].iter().sum();
                lo..lo + counts[tid]
            }
        }
    }

    /// The occupancy cap currently binding `tid` (`None` for
    /// way-partitioned and shared caches).
    #[inline]
    pub(crate) fn cap(&self, tid: usize) -> Option<usize> {
        match self {
            PartitionState::Caps { caps, .. } => Some(caps[tid]),
            _ => None,
        }
    }

    /// The full dynamic entry-quota vector
    /// ([`CachePartition::DynamicCap`] only; always sums to the entry
    /// count).
    pub(crate) fn caps(&self) -> Option<&[usize]> {
        match self {
            PartitionState::Caps {
                caps,
                pacer: Some(_),
                ..
            } => Some(caps),
            _ => None,
        }
    }

    /// The per-thread way counts ([`CachePartition::DynamicWay`] only;
    /// always sums to the associativity).
    pub(crate) fn way_counts(&self) -> Option<&[usize]> {
        match self {
            PartitionState::Ways {
                counts,
                pacer: Some(_),
            } => Some(counts),
            _ => None,
        }
    }

    /// The thread owning `way` (in every set), when ways are owned at
    /// all (`None` for shared and occupancy-capped caches).
    #[inline]
    pub(crate) fn way_owner(&self, way: usize) -> Option<usize> {
        match self {
            PartitionState::Ways { counts, .. } => {
                let mut end = 0;
                counts.iter().position(|&c| {
                    end += c;
                    way < end
                })
            }
            _ => None,
        }
    }

    /// True when an epoch boundary must fire at cycle `now` (static
    /// partitions never fire).
    #[inline]
    pub(crate) fn epoch_due(&self, now: u64) -> bool {
        match self {
            PartitionState::Caps {
                pacer: Some(pacer), ..
            }
            | PartitionState::Ways {
                pacer: Some(pacer), ..
            } => pacer.due(now),
            _ => false,
        }
    }

    /// Closes an epoch: recomputes the quota state from the monitored
    /// utility curves and returns the plan for the cache to enforce.
    ///
    /// # Panics
    ///
    /// Panics on a static partition, which has no epochs.
    pub(crate) fn epoch_boundary(&mut self, cx: &EpochContext<'_>) -> EpochPlan {
        match self {
            PartitionState::Caps {
                caps,
                min_cap,
                pacer: Some(pacer),
                ..
            } => {
                // Quota floors guarantee feasibility: every thread keeps
                // at least `max(1, pinned entries)`, raised toward the
                // configured `min_cap` in thread order while budget
                // remains.
                let mut floors: Vec<usize> = cx.pinned.iter().map(|&p| p.max(1)).collect();
                let mut extra = cx.entries - floors.iter().sum::<usize>();
                for f in floors.iter_mut() {
                    let want = min_cap.saturating_sub(*f).min(extra);
                    *f += want;
                    extra -= want;
                }
                let new_caps = cx.monitor.repartition_ways(cx.entries, 1, &floors);
                caps.clone_from(&new_caps);
                pacer.advance(&new_caps);
                EpochPlan::Caps(new_caps)
            }
            PartitionState::Ways {
                counts,
                pacer: Some(pacer),
            } => {
                // Way floors: every thread keeps at least one way, and
                // enough ways to hold its pinned entries in the fullest
                // set (pinned entries are confined to the thread's block
                // in every set, so `pinned_per_set_max[t] <= counts[t]`
                // and the floors always fit — by induction the counts
                // stay >= 1 and conserve the associativity at every
                // boundary).
                let floors: Vec<usize> = cx.pinned_per_set_max.iter().map(|&p| p.max(1)).collect();
                let new_counts = cx.monitor.repartition_ways(cx.ways, cx.sets, &floors);
                counts.clone_from(&new_counts);
                pacer.advance(&new_counts);
                EpochPlan::Ways(new_counts)
            }
            _ => unreachable!("static partitions have no epoch boundaries"),
        }
    }

    /// Self-consistency of the dynamic quota state (quota sums,
    /// positivity). Folded into [`crate::RegisterCache::audit`].
    ///
    /// # Errors
    ///
    /// Returns `Err(description)` when the quota state is inconsistent.
    pub(crate) fn audit(&self, entries: usize, ways: usize) -> Result<(), String> {
        if let Some(caps) = self.caps() {
            if caps.iter().sum::<usize>() != entries {
                return Err(format!(
                    "dynamic caps {caps:?} do not sum to {entries} entries"
                ));
            }
            if let Some(t) = caps.iter().position(|&c| c == 0) {
                return Err(format!("thread {t} has a zero dynamic cap"));
            }
        }
        if let Some(counts) = self.way_counts() {
            if counts.iter().sum::<usize>() != ways {
                return Err(format!(
                    "dynamic way counts {counts:?} do not sum to {ways} ways"
                ));
            }
            if let Some(t) = counts.iter().position(|&c| c == 0) {
                return Err(format!("thread {t} owns zero ways"));
            }
        }
        Ok(())
    }
}

/// Epoch pacing for the dynamic partitions: fixed-period (byte-identical
/// to the original `now % epoch_cycles` gate) or [`EpochAdapt`]-driven
/// variable-length epochs.
#[derive(Clone, Debug)]
pub(crate) struct EpochPacer {
    /// The configured base period.
    base: u64,
    adapt: Option<EpochAdapt>,
    /// Current period (== `base` when not adapting).
    len: u64,
    /// Next boundary cycle (adaptive mode only).
    next: u64,
    /// The allocation installed at the previous boundary, for the
    /// agreement test.
    last_alloc: Option<Vec<usize>>,
}

impl EpochPacer {
    fn new(epoch_cycles: u64, adapt: Option<EpochAdapt>) -> Self {
        let len = match adapt {
            Some(a) => epoch_cycles.clamp(a.min_cycles, a.max_cycles),
            None => epoch_cycles,
        };
        Self {
            base: epoch_cycles,
            adapt,
            len,
            next: len,
            last_alloc: None,
        }
    }

    fn due(&self, now: u64) -> bool {
        match self.adapt {
            // The fixed-period gate: never at cycle 0, then every
            // `base`th cycle.
            None => now != 0 && now.is_multiple_of(self.base),
            Some(_) => now != 0 && now == self.next,
        }
    }

    /// Records the allocation a boundary installed and schedules the
    /// next boundary: agreement within the hysteresis band doubles the
    /// period, disagreement halves it, both clamped to `[min, max]`.
    fn advance(&mut self, alloc: &[usize]) {
        let Some(a) = self.adapt else {
            return;
        };
        let agreed = self
            .last_alloc
            .as_deref()
            .is_some_and(|prev| l1_distance(prev, alloc) <= a.band);
        self.len = if agreed {
            self.len.saturating_mul(2).clamp(a.min_cycles, a.max_cycles)
        } else {
            (self.len / 2).clamp(a.min_cycles, a.max_cycles)
        };
        self.last_alloc = Some(alloc.to_vec());
        self.next += self.len;
    }
}

fn l1_distance(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).map(|(&x, &y)| x.abs_diff(y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhysReg;

    fn cfg(partition: CachePartition) -> RegCacheConfig {
        let mut c = RegCacheConfig::use_based(16, 4);
        c.partition = partition;
        c
    }

    /// A monitor in which thread 0 shows reuse over `hot` tags of
    /// sampled set 0.
    fn reuse_monitor(hot: u16) -> UtilityMonitor {
        let mut m = UtilityMonitor::new(16, 2);
        for round in 0..3 {
            for p in 0..hot {
                if round == 0 {
                    m.touch(0, PhysReg(p), 0);
                } else {
                    m.access(0, PhysReg(p), 0);
                }
            }
        }
        m
    }

    #[test]
    fn single_thread_always_gets_the_shared_partition() {
        let p = PartitionState::new(&cfg(CachePartition::OccupancyCap), 1);
        assert!(p.admit(0, &[999]));
        assert_eq!(p.victim_ways(0), 0..4);
        assert_eq!(p.cap(0), None);
        assert_eq!(p.way_owner(3), None);
        assert!(!p.epoch_due(128));
    }

    #[test]
    fn way_partition_confines_and_names_owners() {
        let p = PartitionState::new(&cfg(CachePartition::WayPartition), 2);
        assert_eq!(p.victim_ways(0), 0..2);
        assert_eq!(p.victim_ways(1), 2..4);
        assert_eq!(p.way_owner(1), Some(0));
        assert_eq!(p.way_owner(2), Some(1));
        assert!(p.admit(0, &[16, 0]));
    }

    #[test]
    fn occupancy_cap_admits_under_the_static_cap() {
        let p = PartitionState::new(&cfg(CachePartition::OccupancyCap), 2);
        assert!(p.admit(0, &[7, 0]));
        assert!(!p.admit(0, &[8, 0]));
        assert_eq!(p.cap(1), Some(8));
        assert_eq!(p.victim_ways(1), 0..4);
    }

    #[test]
    fn dynamic_cap_paces_fixed_epochs_like_the_modulo_gate() {
        let p = PartitionState::new(
            &cfg(CachePartition::DynamicCap {
                epoch_cycles: 64,
                min_cap: 1,
            }),
            2,
        );
        assert!(!p.epoch_due(0));
        assert!(!p.epoch_due(63));
        assert!(p.epoch_due(64));
        assert!(p.epoch_due(128));
        assert_eq!(p.caps(), Some(&[8usize, 8][..]));
    }

    #[test]
    fn dynamic_way_reassigns_toward_reuse() {
        let mut p = PartitionState::new(&cfg(CachePartition::DynamicWay { epoch_cycles: 64 }), 2);
        assert_eq!(p.way_counts(), Some(&[2usize, 2][..]));
        let m = reuse_monitor(4);
        let cx = EpochContext {
            monitor: &m,
            pinned: &[0, 0],
            pinned_per_set_max: &[0, 0],
            entries: 16,
            ways: 4,
            sets: 4,
        };
        let plan = p.epoch_boundary(&cx);
        let EpochPlan::Ways(counts) = plan else {
            panic!("DynamicWay plans ways, got {plan:?}");
        };
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert!(counts[0] > counts[1], "reuse thread wins ways: {counts:?}");
        assert_eq!(p.way_counts(), Some(&counts[..]));
        assert_eq!(p.way_owner(0), Some(0));
        assert_eq!(p.way_owner(3), Some(1));
        assert_eq!(p.way_owner(4), None);
        assert_eq!(p.victim_ways(1), counts[0]..4);
        p.audit(16, 4).unwrap();
    }

    #[test]
    fn way_floors_cover_pinned_entries() {
        let mut p = PartitionState::new(&cfg(CachePartition::DynamicWay { epoch_cycles: 64 }), 2);
        // Thread 1 pins two entries in one set; thread 0 shows reuse.
        let m = reuse_monitor(6);
        let cx = EpochContext {
            monitor: &m,
            pinned: &[0, 3],
            pinned_per_set_max: &[0, 2],
            entries: 16,
            ways: 4,
            sets: 4,
        };
        let EpochPlan::Ways(counts) = p.epoch_boundary(&cx) else {
            panic!("expected a way plan");
        };
        assert!(counts[1] >= 2, "floor must cover pins: {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 4);
    }

    #[test]
    fn audit_rejects_inconsistent_quota_state() {
        let caps = PartitionState::Caps {
            ways: 4,
            caps: vec![16, 0],
            min_cap: 1,
            pacer: Some(EpochPacer::new(64, None)),
        };
        assert!(caps.audit(16, 4).unwrap_err().contains("zero dynamic cap"));
        assert!(caps.audit(12, 4).unwrap_err().contains("do not sum"));
        let ways = PartitionState::Ways {
            counts: vec![3, 0],
            pacer: Some(EpochPacer::new(64, None)),
        };
        assert!(ways.audit(16, 3).unwrap_err().contains("owns zero ways"));
        assert!(ways.audit(16, 4).unwrap_err().contains("do not sum"));
    }

    #[test]
    fn adaptive_pacer_lengthens_on_agreement_and_shortens_on_change() {
        let mut p = EpochPacer::new(
            64,
            Some(EpochAdapt {
                min_cycles: 16,
                max_cycles: 256,
                band: 1,
            }),
        );
        assert!(p.due(64), "first boundary at the base period");
        assert!(!p.due(63));
        // First boundary: no previous allocation, counts as
        // disagreement — the period halves to 32.
        p.advance(&[8, 8]);
        assert_eq!(p.len, 32);
        assert!(p.due(96));
        // Agreement within the band doubles, clamped at max.
        p.advance(&[8, 8]);
        assert_eq!(p.len, 64);
        p.advance(&[8, 7]);
        assert_eq!(p.len, 128);
        p.advance(&[8, 7]);
        p.advance(&[8, 7]);
        assert_eq!(p.len, 256, "clamped at max_cycles");
        // A phase change (outside the band) halves.
        p.advance(&[14, 2]);
        assert_eq!(p.len, 128);
        for i in 0..8 {
            // Keep flip-flopping so every boundary disagrees.
            p.advance(if i % 2 == 0 { &[2, 14] } else { &[14, 2] });
        }
        assert_eq!(p.len, 16, "clamped at min_cycles");
    }

    #[test]
    #[should_panic(expected = "epoch_adapt requires a dynamic partition")]
    fn epoch_adapt_rejects_static_partitions() {
        let mut c = cfg(CachePartition::WayPartition);
        c.epoch_adapt = Some(EpochAdapt {
            min_cycles: 16,
            max_cycles: 256,
            band: 1,
        });
        let _ = crate::RegisterCache::new_smt(c, 64, 2);
    }

    #[test]
    #[should_panic(expected = "1 <= min_cycles <= max_cycles")]
    fn epoch_adapt_rejects_an_empty_range() {
        let mut c = cfg(CachePartition::DynamicWay { epoch_cycles: 64 });
        c.epoch_adapt = Some(EpochAdapt {
            min_cycles: 128,
            max_cycles: 64,
            band: 1,
        });
        let _ = crate::RegisterCache::new_smt(c, 64, 2);
    }

    #[test]
    #[should_panic(expected = "DynamicWay needs ways divisible by nthreads")]
    fn dynamic_way_rejects_indivisible_ways() {
        let mut c = RegCacheConfig::use_based(9, 3);
        c.partition = CachePartition::DynamicWay { epoch_cycles: 64 };
        let _ = crate::RegisterCache::new_smt(c, 64, 2);
    }
}
