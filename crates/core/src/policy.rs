/// Register-cache insertion policy: which produced values get written
/// into the cache at all.
///
/// The enum is both the configuration-level name of a policy — `Copy`,
/// `Eq`, `Hash`, cheap to put in sweep matrices — and its behavior:
/// [`InsertionPolicy::should_insert`] is one `match` over the variants.
/// A new policy is a new variant and its match arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InsertionPolicy {
    /// Every produced value is written (Yung & Wilhelm's original
    /// register cache, the paper's "LRU" reference design).
    WriteAll,
    /// Skip the write if the value bypassed to *any* consumer before the
    /// write occurred (Cruz et al.'s heuristic, the paper's
    /// "non-bypass" reference design).
    NonBypass,
    /// Skip the write if the value has no predicted uses remaining after
    /// first-stage bypasses are accounted — the paper's contribution
    /// (§3.1). Pinned (saturated-degree) values are always written.
    UseBased,
}

impl InsertionPolicy {
    /// `true` to write the value into the cache, `false` to filter it.
    /// A pure function of the context, so runs stay deterministic.
    #[inline]
    pub fn should_insert(self, ctx: &InsertionContext) -> bool {
        match self {
            InsertionPolicy::WriteAll => true,
            InsertionPolicy::NonBypass => ctx.first_stage_bypasses == 0,
            InsertionPolicy::UseBased => ctx.pinned || ctx.remaining > 0,
        }
    }
}

/// Register-cache replacement policy: which entry of a full set is
/// evicted.
///
/// Like [`InsertionPolicy`], the enum is both the configuration-level
/// name and the behavior ([`ReplacementPolicy::score`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Least-recently-used entry.
    Lru,
    /// Entry with the fewest remaining uses, LRU tie-break; pinned
    /// entries are never chosen unless every entry in the set is pinned
    /// (§3.2).
    FewestUses,
    /// Fewest *expected hits*: like [`ReplacementPolicy::FewestUses`],
    /// but a fill-installed entry's expectation is floored at one — the
    /// miss that refetched it is direct evidence the degree prediction
    /// undercounted, so it likely has more unpredicted readers coming.
    /// The observed-behavior-over-static-prediction idea follows Vakil
    /// Ghahani et al., *Making Belady-Inspired Replacement Policies
    /// More Effective Using Expected Hit Count*.
    ExpectedHitCount,
}

impl ReplacementPolicy {
    /// Scores one candidate victim; the cache evicts the entry of the
    /// set whose score is smallest.
    #[inline]
    pub fn score(self, v: &VictimView) -> VictimScore {
        match self {
            // Pure recency, blind to use counts and pinning.
            ReplacementPolicy::Lru => (false, 0, v.lru),
            ReplacementPolicy::FewestUses => (v.pinned, v.uses as u64, v.lru),
            ReplacementPolicy::ExpectedHitCount => {
                // The fill proves the static prediction undercounted
                // this value, so its `fill_default` counter (usually 0)
                // understates its future.
                let expected = if v.from_fill { v.uses.max(1) } else { v.uses };
                (v.pinned, expected as u64, v.lru)
            }
        }
    }
}

/// Per-thread telemetry of one closed epoch, returned by
/// [`crate::RegisterCache::epoch_boundary`].
///
/// Produced by the cache itself when a dynamic [`CachePartition`] is
/// active: the simulator's epoch stage triggers the boundary, the cache
/// gathers the deltas since the previous boundary and recomputes the
/// per-thread quotas. All vectors are indexed by thread id and have one
/// slot per SMT thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochFeedback {
    /// Zero-based index of the epoch that just closed.
    pub epoch: u64,
    /// Cycle at which the boundary fired.
    pub cycle: u64,
    /// Read hits per thread during the closed epoch.
    pub hits: Vec<u64>,
    /// Read misses per thread during the closed epoch.
    pub misses: Vec<u64>,
    /// Live cache entries per thread at the boundary (after any
    /// repartition evictions).
    pub occupancy: Vec<usize>,
    /// Per-thread occupancy quotas in force during the closed epoch.
    /// Under [`CachePartition::DynamicWay`] these are entry-equivalents
    /// (owned ways × sets), so quota consumers see a uniform scale.
    pub old_caps: Vec<usize>,
    /// Per-thread occupancy quotas for the epoch now starting (same
    /// entry-equivalent convention as
    /// [`EpochFeedback::old_caps`]).
    pub new_caps: Vec<usize>,
    /// Per-thread *way* counts for the epoch now starting — populated
    /// only by [`CachePartition::DynamicWay`] boundaries, empty for
    /// occupancy-quota partitions.
    pub new_ways: Vec<usize>,
}

impl EpochFeedback {
    /// Read hit rate of one thread over the closed epoch, or `None`
    /// when the thread made no cache reads.
    pub fn hit_rate(&self, tid: usize) -> Option<f64> {
        let total = self.hits[tid] + self.misses[tid];
        (total > 0).then(|| self.hits[tid] as f64 / total as f64)
    }
}

/// Everything an insertion decision may consult about a produced value
/// arriving at the cache-write port.
#[derive(Clone, Copy, Debug)]
pub struct InsertionContext {
    /// Predicted uses still outstanding after first-stage bypasses were
    /// deducted (from [`crate::UseTracker`]).
    pub remaining: u8,
    /// The predicted degree saturated the counter (§3.3): the value is
    /// expected to be read many times and is pinned while cached.
    pub pinned: bool,
    /// Consumers already satisfied from the first bypass stage — the
    /// only consumers visible to the write decision (§3.1).
    pub first_stage_bypasses: u32,
}

/// What a replacement decision may consult about one candidate victim.
#[derive(Clone, Copy, Debug)]
pub struct VictimView {
    /// Remaining-use counter of the entry.
    pub uses: u8,
    /// Entry is pinned (saturated predicted degree).
    pub pinned: bool,
    /// Entry was installed by a miss fill rather than the initial
    /// write, so its counter carries the fill default instead of the
    /// tracker's prediction.
    pub from_fill: bool,
    /// Last-touch tick for recency ordering (larger = more recent).
    pub lru: u64,
}

/// A replacement preference key: the candidate with the *smallest* score
/// in the set is evicted, compared lexicographically as
/// `(keep_class, expected_value, recency)`. Ties fall back to the
/// recency tick, which is unique, so victim selection is total and
/// deterministic.
pub type VictimScore = (bool, u64, u64);

/// How register-cache capacity is divided between SMT threads.
///
/// With one thread every variant degenerates to [`CachePartition::Shared`];
/// the knob only changes behavior on a cache built with
/// [`crate::RegisterCache::new_smt`] and more than one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CachePartition {
    /// All entries compete freely — the single-thread behavior and the
    /// default. Threads can starve each other under pressure.
    #[default]
    Shared,
    /// Each thread owns `ways / nthreads` ways of every set: insertions
    /// only consider the inserting thread's own ways, so a thread can
    /// never evict another thread's entries. Requires `ways` divisible
    /// by the thread count.
    WayPartition,
    /// Ways stay shared, but each thread is capped at
    /// `entries / nthreads` live entries. A thread at its cap may only
    /// evict one of its *own* entries in the target set; if it has none
    /// there, the insertion is dropped instead of displacing a peer.
    OccupancyCap,
    /// Like [`CachePartition::OccupancyCap`], but the per-thread quotas
    /// are *recomputed every `epoch_cycles` cycles* by a lookahead
    /// utility partitioner fed by per-thread shadow-tag monitors
    /// (UMON-style, see [`crate::monitor`]): threads whose monitored
    /// reuse would convert extra entries into hits grow their quota,
    /// threads that would not shrink toward `min_cap`. Quotas always
    /// sum to `entries`, and at every boundary each thread's occupancy
    /// is trimmed (unpinned entries only — quotas never drop below a
    /// thread's pinned footprint) so containment holds on every cycle.
    DynamicCap {
        /// Repartition period in cycles (must be at least 1).
        epoch_cycles: u64,
        /// Quota floor the partitioner aims to preserve per thread
        /// (best-effort: a thread's pinned footprint may force a peer
        /// below the floor, never below 1).
        min_cap: usize,
    },
    /// Like [`CachePartition::WayPartition`], but the per-thread way
    /// blocks are *reassigned every `epoch_cycles` cycles* by the same
    /// lookahead utility partitioner that drives
    /// [`CachePartition::DynamicCap`], run at way granularity (a block
    /// of `k` ways is worth `k × sets` entries of monitored utility).
    /// Each thread always owns a contiguous block of at least one way
    /// in every set (blocks laid out in thread order), so insertions
    /// stay conflict-isolated like the static way partition; when a way
    /// changes owner at a boundary, the losing thread's unpinned
    /// entries in it are evicted and its pinned entries migrate into
    /// the thread's remaining block. Requires `ways` divisible by the
    /// thread count (the initial even split).
    DynamicWay {
        /// Way-reassignment period in cycles (must be at least 1).
        epoch_cycles: u64,
    },
}

impl CachePartition {
    /// True for the epoch-driven partitions
    /// ([`CachePartition::DynamicCap`] and
    /// [`CachePartition::DynamicWay`]).
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            CachePartition::DynamicCap { .. } | CachePartition::DynamicWay { .. }
        )
    }
}

/// Adaptive epoch-length control for the dynamic partitions
/// ([`CachePartition::DynamicCap`] / [`CachePartition::DynamicWay`]).
///
/// With `RegCacheConfig::epoch_adapt` set, the partition's
/// `epoch_cycles` becomes the *initial* period (clamped into
/// `[min_cycles, max_cycles]`): when two consecutive repartitions agree
/// within `band` (the L1 distance between the allocation vectors — caps
/// in entries, or way counts), the workload is stable and the period
/// doubles; on disagreement it halves, reacting to the phase change.
/// The period is always clamped to `[min_cycles, max_cycles]`, and the
/// schedule stays a pure function of the simulated access stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EpochAdapt {
    /// Shortest allowed epoch, in cycles (at least 1).
    pub min_cycles: u64,
    /// Longest allowed epoch, in cycles (at least `min_cycles`).
    pub max_cycles: u64,
    /// Hysteresis band: consecutive allocations whose L1 distance is at
    /// most this count as "agreeing".
    pub band: usize,
}

/// Soft-error protection switches for the register storage structures.
///
/// Each flag adds a modeled parity tag to one structure — register-cache
/// entries, the use-counter bank, or the backing-file words — that is
/// checked on every read of that structure. The timing model carries no
/// data bits, so "parity" is a per-element poison flag set by the fault
/// injector and cleared by writes; the flags only gate *detection*, and
/// with everything off (the default) no protection code runs at all, so
/// timing is bit-identical to an unprotected build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ProtectionConfig {
    /// Parity on register-cache entries: a corrupted entry is detected
    /// at its next read and invalidated (the clean copy in the backing
    /// file makes this recoverable by a re-fill).
    pub cache_parity: bool,
    /// Parity on the remaining-use counter bank: a corrupted counter is
    /// detected at its next read and scrubbed to zero-remaining,
    /// unpinned (the counters are performance hints, never values).
    pub counter_parity: bool,
    /// Parity on backing-file words: a corrupted word is detected at
    /// the next backing read and must escalate — the backing file *is*
    /// the clean copy, so there is nothing local to re-fill from.
    pub backing_parity: bool,
}

impl ProtectionConfig {
    /// No protection (the default): zero overhead, zero detection.
    pub fn off() -> Self {
        Self::default()
    }

    /// Parity on all three structures.
    pub fn full() -> Self {
        Self {
            cache_parity: true,
            counter_parity: true,
            backing_parity: true,
        }
    }

    /// True when at least one structure is protected.
    pub fn any(&self) -> bool {
        self.cache_parity || self.counter_parity || self.backing_parity
    }
}

/// Full configuration of a [`crate::RegisterCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegCacheConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity; `ways == entries` is fully associative.
    pub ways: usize,
    /// Insertion policy.
    pub insertion: InsertionPolicy,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Saturation limit of the remaining-use counters. Values whose
    /// *predicted* degree reaches this limit are pinned: their counters
    /// stop decrementing and they stay cached until their physical
    /// register is freed (§3.3). The paper settles on 7.
    pub max_use_count: u8,
    /// Remaining-use count assumed for values with no confident degree
    /// prediction (§3.3; the paper settles on 1).
    pub unknown_default: u8,
    /// Remaining-use count assigned on a fill after a miss (§3.3; the
    /// paper settles on 0).
    pub fill_default: u8,
    /// Track a fully-associative shadow cache to classify misses into
    /// capacity vs. conflict (used by the Figure 8 experiment; costs
    /// extra simulation work, not hardware).
    pub classify_misses: bool,
    /// How capacity is divided between SMT threads (ignored with one
    /// thread; see [`CachePartition`]).
    pub partition: CachePartition,
    /// Adaptive epoch-length control for a dynamic `partition` (`None`
    /// — the default — keeps the fixed `epoch_cycles` period; see
    /// [`EpochAdapt`]). Ignored by the static partitions and on
    /// single-thread caches.
    pub epoch_adapt: Option<EpochAdapt>,
    /// Soft-error parity protection on the storage structures (off by
    /// default; see [`ProtectionConfig`]).
    pub protection: ProtectionConfig,
}

impl RegCacheConfig {
    /// The paper's proposed configuration at a given geometry:
    /// use-based insertion and replacement, max use count 7, unknown
    /// default 1, fill default 0.
    pub fn use_based(entries: usize, ways: usize) -> Self {
        Self {
            entries,
            ways,
            insertion: InsertionPolicy::UseBased,
            replacement: ReplacementPolicy::FewestUses,
            max_use_count: 7,
            unknown_default: 1,
            fill_default: 0,
            classify_misses: false,
            partition: CachePartition::Shared,
            epoch_adapt: None,
            protection: ProtectionConfig::off(),
        }
    }

    /// The "LRU" reference design: write-all insertion, LRU replacement.
    pub fn lru(entries: usize, ways: usize) -> Self {
        Self {
            insertion: InsertionPolicy::WriteAll,
            replacement: ReplacementPolicy::Lru,
            ..Self::use_based(entries, ways)
        }
    }

    /// The "non-bypass" reference design: bypass-filtered insertion,
    /// LRU replacement.
    pub fn non_bypass(entries: usize, ways: usize) -> Self {
        Self {
            insertion: InsertionPolicy::NonBypass,
            replacement: ReplacementPolicy::Lru,
            ..Self::use_based(entries, ways)
        }
    }

    /// The expected-hit-count extension: use-based insertion with
    /// [`ReplacementPolicy::ExpectedHitCount`] replacement (fill-backed
    /// entries are credited with at least one expected future hit).
    pub fn expected_hit_count(entries: usize, ways: usize) -> Self {
        Self {
            replacement: ReplacementPolicy::ExpectedHitCount,
            ..Self::use_based(entries, ways)
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (`entries` not divisible
    /// by `ways`) — note non-power-of-two *set counts* are explicitly
    /// allowed: decoupled indexing does not require power-of-two caches
    /// (§4.1).
    pub fn sets(&self) -> usize {
        assert!(self.ways >= 1, "ways must be at least 1");
        assert!(
            self.entries.is_multiple_of(self.ways),
            "entries must divide into ways"
        );
        self.entries / self.ways
    }

    /// True when the configuration is fully associative.
    pub fn is_fully_associative(&self) -> bool {
        self.ways == self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_papers_reference_designs() {
        let ub = RegCacheConfig::use_based(64, 2);
        assert_eq!(ub.insertion, InsertionPolicy::UseBased);
        assert_eq!(ub.replacement, ReplacementPolicy::FewestUses);
        assert_eq!(ub.max_use_count, 7);
        assert_eq!(ub.unknown_default, 1);
        assert_eq!(ub.fill_default, 0);
        assert_eq!(ub.partition, CachePartition::Shared);
        assert_eq!(ub.sets(), 32);

        let lru = RegCacheConfig::lru(64, 2);
        assert_eq!(lru.insertion, InsertionPolicy::WriteAll);
        assert_eq!(lru.replacement, ReplacementPolicy::Lru);

        let nb = RegCacheConfig::non_bypass(64, 2);
        assert_eq!(nb.insertion, InsertionPolicy::NonBypass);
        assert_eq!(nb.replacement, ReplacementPolicy::Lru);
    }

    #[test]
    fn non_power_of_two_set_counts_are_allowed() {
        // 48-entry 4-way -> 12 sets: legal under decoupled indexing.
        let c = RegCacheConfig::use_based(48, 4);
        assert_eq!(c.sets(), 12);
    }

    #[test]
    fn fully_associative_detection() {
        assert!(RegCacheConfig::use_based(64, 64).is_fully_associative());
        assert!(!RegCacheConfig::use_based(64, 4).is_fully_associative());
    }

    #[test]
    #[should_panic(expected = "divide into ways")]
    fn inconsistent_geometry_rejected() {
        let _ = RegCacheConfig::use_based(64, 3).sets();
    }

    fn view(uses: u8, pinned: bool, from_fill: bool, lru: u64) -> VictimView {
        VictimView {
            uses,
            pinned,
            from_fill,
            lru,
        }
    }

    fn ctx(remaining: u8, pinned: bool, first_stage_bypasses: u32) -> InsertionContext {
        InsertionContext {
            remaining,
            pinned,
            first_stage_bypasses,
        }
    }

    #[test]
    fn insertion_policies_decide_per_their_definitions() {
        use InsertionPolicy::*;
        assert!(WriteAll.should_insert(&ctx(0, false, 5)));

        assert!(NonBypass.should_insert(&ctx(0, false, 0)));
        assert!(!NonBypass.should_insert(&ctx(3, false, 1)));

        assert!(UseBased.should_insert(&ctx(1, false, 4)));
        assert!(UseBased.should_insert(&ctx(0, true, 4)));
        assert!(!UseBased.should_insert(&ctx(0, false, 1)));
    }

    #[test]
    fn replacement_policies_rank_victims_per_their_definitions() {
        let lru = ReplacementPolicy::Lru;
        // Pure recency: a pinned high-use entry with an older tick loses.
        assert!(lru.score(&view(7, true, false, 1)) < lru.score(&view(0, false, false, 2)));

        let fu = ReplacementPolicy::FewestUses;
        assert!(fu.score(&view(0, false, false, 9)) < fu.score(&view(1, false, false, 1)));
        // Pinned entries are only chosen when everything is pinned.
        assert!(fu.score(&view(7, false, false, 9)) < fu.score(&view(0, true, false, 1)));
    }

    #[test]
    fn expected_hit_count_floors_fill_entries_at_one() {
        let ehc = ReplacementPolicy::ExpectedHitCount;
        let fu = ReplacementPolicy::FewestUses;
        // A zero-use write-installed entry is a better victim than a
        // zero-use fill-installed one (the fill is evidence of future
        // hits); FewestUses cannot tell them apart.
        let dead_write = view(0, false, false, 5);
        let dead_fill = view(0, false, true, 1);
        assert!(ehc.score(&dead_write) < ehc.score(&dead_fill));
        assert!(fu.score(&dead_fill) < fu.score(&dead_write));
        // Above zero the floor is inert: counters dominate as usual.
        assert!(ehc.score(&view(1, false, true, 9)) < ehc.score(&view(2, false, false, 1)));
    }

    #[test]
    fn expected_hit_count_preset() {
        let c = RegCacheConfig::expected_hit_count(64, 2);
        assert_eq!(c.insertion, InsertionPolicy::UseBased);
        assert_eq!(c.replacement, ReplacementPolicy::ExpectedHitCount);
        assert_eq!(c.sets(), 32);
    }

    #[test]
    fn partition_dynamic_helper() {
        assert!(!CachePartition::Shared.is_dynamic());
        assert!(!CachePartition::WayPartition.is_dynamic());
        assert!(!CachePartition::OccupancyCap.is_dynamic());
        assert!(CachePartition::DynamicCap {
            epoch_cycles: 1,
            min_cap: 1
        }
        .is_dynamic());
        assert!(CachePartition::DynamicWay { epoch_cycles: 1 }.is_dynamic());
    }

    #[test]
    fn presets_leave_epoch_adaptation_off() {
        // The fixed-epoch golden rows depend on it.
        assert_eq!(RegCacheConfig::use_based(64, 4).epoch_adapt, None);
    }
}
