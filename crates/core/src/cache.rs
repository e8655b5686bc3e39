use crate::monitor::UtilityMonitor;
use crate::partition::{EpochContext, EpochPlan, PartitionState};
use crate::policy::{CachePartition, EpochFeedback, InsertionContext, RegCacheConfig, VictimView};
use crate::PhysReg;
use ubrc_stats::TimeWeighted;

/// Result of presenting a produced value to the cache-write port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The value was written into a cache entry.
    Inserted,
    /// The insertion policy filtered the write (a later read of this
    /// value will miss with [`MissClass::NotWritten`]).
    Filtered,
    /// The insertion policy accepted the write but the
    /// [`CachePartition::OccupancyCap`] dropped it: the producing thread
    /// is at its cap and owns nothing evictable in the target set.
    Capped,
}

/// Classification of a register-cache read miss (Figure 8 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissClass {
    /// The value was never written into the cache (filtered at insert).
    NotWritten,
    /// The value was evicted and a fully-associative cache of the same
    /// capacity would also have evicted it.
    Capacity,
    /// The value was evicted but still resides in the fully-associative
    /// shadow: a conflict miss.
    Conflict,
    /// Classification disabled ([`RegCacheConfig::classify_misses`] is
    /// false).
    Unclassified,
}

/// Statistics accumulated by a [`RegisterCache`].
///
/// Everything needed for Figures 8-10 and Table 2 of the paper.
#[derive(Clone, Debug, Default)]
pub struct RegCacheStats {
    /// Read-port lookups (one per source operand that reaches the
    /// cache).
    pub reads: u64,
    /// Lookups that hit.
    pub read_hits: u64,
    /// Lookups that missed.
    pub read_misses: u64,
    /// Misses on values never written (insertion-filtered).
    pub misses_not_written: u64,
    /// Misses a same-capacity fully-associative cache would share.
    pub misses_capacity: u64,
    /// Misses caused by set conflicts.
    pub misses_conflict: u64,
    /// Values presented to the write port.
    pub writes_attempted: u64,
    /// Values actually written.
    pub writes_inserted: u64,
    /// Values filtered by the insertion policy.
    pub writes_filtered: u64,
    /// Fills performed after misses.
    pub fills: u64,
    /// Evictions (replacement victims; invalidations not included).
    pub evictions: u64,
    /// Evictions whose victim had zero remaining uses.
    pub evictions_zero_use: u64,
    /// Values produced (one per renamed destination).
    pub values_produced: u64,
    /// Values whose physical register has been freed.
    pub values_freed: u64,
    /// Freed values that never occupied a cache entry at all.
    pub values_never_cached: u64,
    /// Entry-creation events (initial writes + fills) — "times each
    /// value is cached" uses this.
    pub cached_events: u64,
    /// Entries that reached eviction/invalidation without ever being
    /// read.
    pub cached_never_read: u64,
    /// Sum of entry lifetimes in cycles (creation to eviction or
    /// invalidation).
    pub entry_lifetime_sum: u64,
    /// Entries whose lifetime has completed.
    pub entry_lifetime_count: u64,
    /// Time-weighted occupancy tracker.
    pub occupancy: TimeWeighted,
    /// Insertions (writes or fills) dropped by the per-thread occupancy
    /// cap ([`CachePartition::OccupancyCap`]).
    pub inserts_capped: u64,
    /// Entries invalidated by a detected parity error
    /// ([`RegisterCache::take_parity_fault`]); not counted as evictions.
    pub parity_invalidations: u64,
    /// Per-thread time-weighted occupancy (one slot per SMT thread;
    /// a single slot on single-thread caches).
    pub thread_occupancy: Vec<TimeWeighted>,
    /// Per-thread read hits (one slot per SMT thread; only maintained
    /// on multi-thread caches, empty otherwise).
    pub thread_read_hits: Vec<u64>,
    /// Per-thread read misses (see
    /// [`RegCacheStats::thread_read_hits`]).
    pub thread_read_misses: Vec<u64>,
    /// Entries evicted at epoch boundaries to fit a shrunken quota
    /// (also counted in [`RegCacheStats::evictions`]).
    pub epoch_evictions: u64,
}

impl RegCacheStats {
    /// Miss rate per operand lookup.
    pub fn miss_rate(&self) -> Option<f64> {
        if self.reads == 0 {
            None
        } else {
            Some(self.read_misses as f64 / self.reads as f64)
        }
    }

    /// Table 2: average reads served per cached value.
    pub fn reads_per_cached_value(&self) -> Option<f64> {
        if self.cached_events == 0 {
            None
        } else {
            Some(self.read_hits as f64 / self.cached_events as f64)
        }
    }

    /// Table 2: average number of times each produced value is cached.
    pub fn cache_count_per_value(&self) -> Option<f64> {
        if self.values_produced == 0 {
            None
        } else {
            Some(self.cached_events as f64 / self.values_produced as f64)
        }
    }

    /// Table 2: average entry lifetime in cycles.
    pub fn avg_entry_lifetime(&self) -> Option<f64> {
        if self.entry_lifetime_count == 0 {
            None
        } else {
            Some(self.entry_lifetime_sum as f64 / self.entry_lifetime_count as f64)
        }
    }

    /// Figure 10: fraction of cached values never read.
    pub fn frac_cached_never_read(&self) -> Option<f64> {
        if self.cached_events == 0 {
            None
        } else {
            Some(self.cached_never_read as f64 / self.cached_events as f64)
        }
    }

    /// Figure 10: fraction of initial writes filtered from the cache.
    pub fn frac_writes_filtered(&self) -> Option<f64> {
        if self.writes_attempted == 0 {
            None
        } else {
            Some(self.writes_filtered as f64 / self.writes_attempted as f64)
        }
    }

    /// Figure 10: fraction of retired values never cached at all.
    pub fn frac_never_cached(&self) -> Option<f64> {
        if self.values_freed == 0 {
            None
        } else {
            Some(self.values_never_cached as f64 / self.values_freed as f64)
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    preg: u16,
    /// Owning SMT thread, derived from the preg partition at insert.
    tid: u16,
    uses: u8,
    pinned: bool,
    from_fill: bool,
    lru: u64,
    reads: u64,
    inserted_at: u64,
    valid: bool,
    /// Modeled data-parity error: set by the fault injector, cleared
    /// when the entry is rewritten (every insert stores a fresh word).
    parity_bad: bool,
}

impl Entry {
    /// What the replacement policy sees of this entry.
    fn victim_view(&self) -> VictimView {
        VictimView {
            uses: self.uses,
            pinned: self.pinned,
            from_fill: self.from_fill,
            lru: self.lru,
        }
    }
}

/// Why an entry leaves the cache: what [`RegisterCache::remove`] counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Removal {
    /// Its physical register was freed (§2.2).
    Free,
    /// A protected read found its parity bad; not an eviction.
    Parity,
    /// A replacement victim of an insertion.
    Evict,
    /// Trimmed or drained by an epoch boundary's repartition.
    EpochEvict,
    /// A pinned entry leaving a reassigned way, to be placed again in
    /// its thread's new block.
    Migrate,
}

/// Read-only snapshot of one valid cache entry, for external invariant
/// checking (the timing simulator's `check` mode audits these against
/// its own mirror of the use tracker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryView {
    /// The set this entry resides in.
    pub set: u16,
    /// The way (within the set) this entry resides in, for partition
    /// containment checks.
    pub way: u16,
    /// Owning SMT thread (0 on single-thread caches).
    pub tid: u16,
    /// Physical register tag.
    pub preg: PhysReg,
    /// Remaining-use counter.
    pub uses: u8,
    /// Pinned (saturated prediction) — immune to use decrement and
    /// deprioritized for replacement.
    pub pinned: bool,
    /// Entry was (re)installed by a miss fill, so its counter carries
    /// the fill default rather than the tracker's prediction.
    pub from_fill: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct PregState {
    /// The current value has occupied a cache entry at least once.
    ever_cached: bool,
    /// The index of the entry holding this register's value while it is
    /// resident: set by `place`, cleared by `remove`.
    entry: Option<u32>,
}

/// The register cache (§2.2-§3 of the paper).
///
/// A small set-associative cache over physical register values, with
/// per-entry remaining-use counters. The *set* for each value is chosen
/// externally (decoupled indexing, see [`crate::IndexAssigner`]) and
/// passed to every operation; the full physical register tag is stored
/// in the entry.
///
/// See the crate documentation for a usage example.
#[derive(Clone, Debug)]
pub struct RegisterCache {
    config: RegCacheConfig,
    sets: usize,
    entries: Vec<Entry>,
    tick: u64,
    per_preg: Vec<PregState>,
    stats: RegCacheStats,
    shadow: Option<Box<RegisterCache>>,
    // SMT partitioning: the evenly-split preg quota used to derive a
    // preg's owning thread, and live entries per thread (one slot per
    // thread, so its length is the thread count and its sum the
    // occupancy).
    preg_quota: usize,
    thread_valid: Vec<usize>,
    // The run-time state of `config.partition` (see `partition.rs`):
    // consulted at insertion for admission and victim ways, and at
    // epoch boundaries for quota/way replanning.
    partition: PartitionState,
    // Dynamic repartitioning (a dynamic `config.partition`, nthreads >
    // 1): the shadow-tag monitors feeding the partitioner and the
    // cumulative hit/miss marks of the previous epoch boundary (for
    // per-epoch deltas). Empty/None otherwise.
    monitor: Option<UtilityMonitor>,
    epoch_hits: Vec<u64>,
    epoch_misses: Vec<u64>,
}

impl RegisterCache {
    /// Creates an empty cache for a machine with `num_pregs` physical
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`RegCacheConfig::sets`]).
    pub fn new(config: RegCacheConfig, num_pregs: usize) -> Self {
        Self::new_smt(config, num_pregs, 1)
    }

    /// Creates an empty cache shared by `nthreads` SMT threads over an
    /// evenly partitioned physical register file: preg `p` belongs to
    /// thread `p / (num_pregs / nthreads)`. With `nthreads == 1` this is
    /// [`RegisterCache::new`] and [`RegCacheConfig::partition`] is inert.
    ///
    /// # Panics
    ///
    /// Panics with the [`RegCacheConfig::validate`] error's message on a
    /// configuration no `nthreads`-thread cache can be built from, and
    /// when `nthreads` is zero or does not divide `num_pregs`. Callers
    /// wanting typed errors should validate first (the simulator's
    /// `try_new_smt` does).
    pub fn new_smt(config: RegCacheConfig, num_pregs: usize, nthreads: usize) -> Self {
        if let Err(e) = config.validate(nthreads) {
            panic!("{e}");
        }
        assert!(nthreads >= 1, "nthreads must be at least 1");
        assert!(
            num_pregs.is_multiple_of(nthreads),
            "num_pregs must divide evenly across threads"
        );
        let sets = config.entries / config.ways;
        let partition = PartitionState::new(&config, nthreads);
        let shadow = config.classify_misses.then(|| {
            // The shadow is the fully-associative *shared* baseline: it
            // classifies misses, it does not model partitioning.
            let shadow_config = RegCacheConfig {
                ways: config.entries,
                classify_misses: false,
                partition: CachePartition::Shared,
                ..config
            };
            Box::new(RegisterCache::new(shadow_config, num_pregs))
        });
        let multi = nthreads > 1;
        let stats = RegCacheStats {
            thread_occupancy: vec![TimeWeighted::default(); nthreads],
            thread_read_hits: vec![0; if multi { nthreads } else { 0 }],
            thread_read_misses: vec![0; if multi { nthreads } else { 0 }],
            ..RegCacheStats::default()
        };
        let dynamic = multi && config.partition.is_dynamic();
        Self {
            config,
            sets,
            entries: vec![Entry::default(); config.entries],
            tick: 0,
            per_preg: vec![PregState::default(); num_pregs],
            stats,
            shadow,
            preg_quota: num_pregs / nthreads,
            thread_valid: vec![0; nthreads],
            partition,
            monitor: dynamic.then(|| UtilityMonitor::new(config.entries, nthreads)),
            epoch_hits: vec![0; if dynamic { nthreads } else { 0 }],
            epoch_misses: vec![0; if dynamic { nthreads } else { 0 }],
        }
    }

    /// The owning thread of a physical register (always 0 with one
    /// thread).
    fn thread_of(&self, preg: PhysReg) -> usize {
        preg.0 as usize / self.preg_quota
    }

    /// The live-entry cap currently binding thread `tid`, under either
    /// occupancy-capped partition: the static `entries / nthreads`
    /// quota of [`CachePartition::OccupancyCap`], or the current
    /// dynamic quota of [`CachePartition::DynamicCap`]. `None` when no
    /// per-thread cap applies (shared or way-partitioned caches, or a
    /// single thread).
    pub fn current_cap(&self, tid: usize) -> Option<usize> {
        self.partition.cap(tid)
    }

    /// The per-thread quotas currently in force under
    /// [`CachePartition::DynamicCap`] (`None` otherwise). The slice
    /// always sums to the cache's total entry count.
    pub fn dynamic_caps(&self) -> Option<&[usize]> {
        self.partition.caps()
    }

    /// The per-thread way counts currently in force under
    /// [`CachePartition::DynamicWay`] (`None` otherwise). The slice
    /// always sums to the cache's associativity, laid out as contiguous
    /// blocks in thread order.
    pub fn way_counts(&self) -> Option<&[usize]> {
        self.partition.way_counts()
    }

    /// The thread owning `way` of every set, when ways are owned at all
    /// ([`CachePartition::WayPartition`] and
    /// [`CachePartition::DynamicWay`]; `None` otherwise).
    pub fn way_owner(&self, way: usize) -> Option<usize> {
        self.partition.way_owner(way)
    }

    /// True when a dynamic-partition epoch boundary must fire at cycle
    /// `now` (always false on static partitions and single-thread
    /// caches).
    pub fn epoch_due(&self, now: u64) -> bool {
        self.partition.epoch_due(now)
    }

    /// The configuration in use.
    pub fn config(&self) -> &RegCacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RegCacheStats {
        &self.stats
    }

    /// Consumes the cache and returns its accumulated statistics
    /// without copying them (the simulator's end-of-run path).
    pub fn into_stats(self) -> RegCacheStats {
        self.stats
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.thread_valid.iter().sum()
    }

    /// Flushes the occupancy integral up to `now`. Call once at the end
    /// of simulation before reading `stats().occupancy.average(now)`.
    pub fn finalize(&mut self, now: u64) {
        self.note_occupancy(now);
        if let Some(s) = &mut self.shadow {
            s.finalize(now);
        }
    }

    /// The entry holding `preg`'s value, if it is resident in `set`.
    fn find(&self, preg: PhysReg, set: u16) -> Option<usize> {
        let i = self.resident(preg)?;
        let base = set as usize % self.sets * self.config.ways;
        (base..base + self.config.ways).contains(&i).then_some(i)
    }

    /// The entry holding `preg`'s value, in whatever set.
    fn resident(&self, preg: PhysReg) -> Option<usize> {
        self.per_preg[preg.0 as usize].entry.map(|i| i as usize)
    }

    fn note_occupancy(&mut self, now: u64) {
        self.stats.occupancy.update(now, self.occupancy() as f64);
        for (t, &v) in self.thread_valid.iter().enumerate() {
            self.stats.thread_occupancy[t].update(now, v as f64);
        }
    }

    /// Declares a newly renamed destination value. Must be called once
    /// per produced value, before its `write`, and not again for the
    /// register until [`RegisterCache::free`].
    pub fn produce(&mut self, preg: PhysReg) {
        // The entry index follows the entries, which producing a value
        // does not touch.
        self.per_preg[preg.0 as usize].ever_cached = false;
        self.stats.values_produced += 1;
        if let Some(s) = &mut self.shadow {
            s.produce(preg);
        }
    }

    /// Takes the valid entry at index `i` out of the cache and returns
    /// it. Every removal path goes through here, and `cause` decides
    /// what it counts: a migrating entry keeps its lifetime open, every
    /// other removal closes it.
    fn remove(&mut self, i: usize, cause: Removal, now: u64) -> Entry {
        let e = self.entries[i];
        debug_assert!(e.valid, "removing an invalid entry");
        self.entries[i].valid = false;
        self.per_preg[e.preg as usize].entry = None;
        self.thread_valid[e.tid as usize] -= 1;
        match cause {
            Removal::Migrate => return e,
            Removal::Free => {}
            Removal::Parity => self.stats.parity_invalidations += 1,
            Removal::Evict | Removal::EpochEvict => {
                self.stats.evictions += 1;
                if e.uses == 0 && !e.pinned {
                    self.stats.evictions_zero_use += 1;
                }
                if cause == Removal::EpochEvict {
                    self.stats.epoch_evictions += 1;
                }
            }
        }
        self.stats.entry_lifetime_sum += now.saturating_sub(e.inserted_at);
        self.stats.entry_lifetime_count += 1;
        if e.reads == 0 {
            self.stats.cached_never_read += 1;
        }
        e
    }

    /// Installs `e` at index `i`, which must be invalid.
    fn place(&mut self, i: usize, e: Entry) {
        debug_assert!(!self.entries[i].valid, "placing over a valid entry");
        self.entries[i] = e;
        self.per_preg[e.preg as usize].entry = Some(i as u32);
        self.thread_valid[e.tid as usize] += 1;
    }

    /// Picks the way (relative to the set base) holding the minimum
    /// replacement score among `candidates`.
    fn min_score_way(&self, candidates: impl Iterator<Item = usize>, base: usize) -> Option<usize> {
        let policy = self.config.replacement;
        candidates.min_by_key(|&i| policy.score(&self.entries[base + i].victim_view()))
    }

    /// Installs `preg` into `set`, evicting if necessary. Returns `false`
    /// when the per-thread occupancy cap dropped the insertion.
    fn insert(
        &mut self,
        preg: PhysReg,
        set: u16,
        uses: u8,
        pinned: bool,
        from_fill: bool,
        now: u64,
    ) -> bool {
        debug_assert!(self.find(preg, set).is_none(), "double insert");
        self.tick += 1;
        let tick = self.tick;
        let s = set as usize % self.sets;
        let w = self.config.ways;
        let base = s * w;
        let tid = self.thread_of(preg);
        let victim_idx = if self.partition.admit(tid, &self.thread_valid) {
            // Admitted: fill an invalid way of the partition's victim
            // range, else evict its minimum-score entry.
            let range = self.partition.victim_ways(tid);
            let slice = &self.entries[base..base + w];
            match range.clone().find(|&i| !slice[i].valid) {
                Some(i) => i,
                None => self
                    .min_score_way(range, base)
                    .expect("victim ranges are non-empty"),
            }
        } else {
            // At its occupancy cap: only this thread's own entries in
            // the set are evictable; with none here, drop the insertion.
            let own = (0..w).filter(|&i| {
                let e = &self.entries[base + i];
                e.valid && e.tid as usize == tid
            });
            match self.min_score_way(own, base) {
                Some(i) => i,
                None => {
                    self.stats.inserts_capped += 1;
                    return false;
                }
            }
        };
        if self.entries[base + victim_idx].valid {
            self.remove(base + victim_idx, Removal::Evict, now);
        }
        self.place(
            base + victim_idx,
            Entry {
                preg: preg.0,
                tid: tid as u16,
                uses,
                pinned,
                from_fill,
                lru: tick,
                reads: 0,
                inserted_at: now,
                valid: true,
                parity_bad: false,
            },
        );
        self.per_preg[preg.0 as usize].ever_cached = true;
        self.stats.cached_events += 1;
        self.note_occupancy(now);
        true
    }

    /// Presents a produced value to the write port, the cycle after its
    /// execution completes.
    ///
    /// * `remaining` — predicted uses still outstanding after
    ///   first-stage bypasses were deducted (from [`crate::UseTracker`]);
    /// * `pinned` — the predicted degree saturated at
    ///   [`RegCacheConfig::max_use_count`];
    /// * `first_stage_bypasses` — consumers satisfied from the bypass
    ///   network before this write (the non-bypass policy keys on it).
    pub fn write(
        &mut self,
        preg: PhysReg,
        set: u16,
        remaining: u8,
        pinned: bool,
        first_stage_bypasses: u32,
        now: u64,
    ) -> WriteOutcome {
        self.stats.writes_attempted += 1;
        let tid = self.thread_of(preg);
        let insert = self.config.insertion.should_insert(&InsertionContext {
            remaining,
            pinned,
            first_stage_bypasses,
        });
        if !insert {
            self.stats.writes_filtered += 1;
            if let Some(s) = &mut self.shadow {
                s.write(preg, 0, remaining, pinned, first_stage_bypasses, now);
            }
            return WriteOutcome::Filtered;
        }
        if let Some(m) = &mut self.monitor {
            // Accepted writes mark the tag in the shadow stack even if
            // the quota drops the real insertion — a larger quota is
            // exactly what would have kept it.
            m.touch(tid, preg, set as usize % self.sets);
        }
        let inserted = self.insert(preg, set, remaining, pinned, false, now);
        if inserted {
            self.stats.writes_inserted += 1;
        }
        if let Some(s) = &mut self.shadow {
            s.write(preg, 0, remaining, pinned, first_stage_bypasses, now);
        }
        if inserted {
            WriteOutcome::Inserted
        } else {
            WriteOutcome::Capped
        }
    }

    /// Looks up a source operand. On a hit the remaining-use counter is
    /// decremented (unless pinned) and `true` is returned. On a miss the
    /// miss is classified into the statistics and `false` is returned;
    /// the caller fetches the value from the backing file and calls
    /// [`RegisterCache::fill`].
    // `now` is only forwarded to the shadow cache, but it keeps the
    // read/write/fill signatures uniform for callers.
    #[allow(clippy::only_used_in_recursion)]
    pub fn read(&mut self, preg: PhysReg, set: u16, now: u64) -> bool {
        self.stats.reads += 1;
        self.tick += 1;
        let tick = self.tick;
        let tid = preg.0 as usize / self.preg_quota;
        if let Some(m) = &mut self.monitor {
            // Monitored hit-or-miss: the shadow-stack depth this probe
            // lands at is the quota at which it would have been a hit.
            m.access(tid, preg, set as usize % self.sets);
        }
        if let Some(i) = self.find(preg, set) {
            let e = &mut self.entries[i];
            e.lru = tick;
            e.reads += 1;
            if !e.pinned {
                e.uses = e.uses.saturating_sub(1);
            }
            self.stats.read_hits += 1;
            if self.thread_valid.len() > 1 {
                self.stats.thread_read_hits[tid] += 1;
            }
            if let Some(s) = &mut self.shadow {
                s.read(preg, 0, now);
            }
            return true;
        }
        self.stats.read_misses += 1;
        if self.thread_valid.len() > 1 {
            self.stats.thread_read_misses[tid] += 1;
        }
        let class = self.classify_miss(preg);
        match class {
            MissClass::NotWritten => self.stats.misses_not_written += 1,
            MissClass::Capacity => self.stats.misses_capacity += 1,
            MissClass::Conflict => self.stats.misses_conflict += 1,
            MissClass::Unclassified => {}
        }
        if let Some(s) = &mut self.shadow {
            s.read(preg, 0, now);
        }
        false
    }

    fn classify_miss(&self, preg: PhysReg) -> MissClass {
        let Some(shadow) = &self.shadow else {
            return MissClass::Unclassified;
        };
        if !self.per_preg[preg.0 as usize].ever_cached {
            MissClass::NotWritten
        } else if shadow.contains(preg) {
            MissClass::Conflict
        } else {
            MissClass::Capacity
        }
    }

    /// Installs a value fetched from the backing file after a miss. The
    /// remaining-use counter takes the *fill default* (§3.3).
    pub fn fill(&mut self, preg: PhysReg, set: u16, now: u64) {
        self.stats.fills += 1;
        // The read that triggered this fill has already been performed
        // from the backing file; the filled entry starts with the fill
        // default (the use count was lost at eviction).
        if let Some(m) = &mut self.monitor {
            let tid = preg.0 as usize / self.preg_quota;
            m.touch(tid, preg, set as usize % self.sets);
        }
        if self.find(preg, set).is_none() {
            // May be dropped by the occupancy cap; the caller already has
            // the value from the backing file either way.
            let _ = self.insert(preg, set, self.config.fill_default, false, true, now);
        }
        if let Some(s) = &mut self.shadow {
            s.fill(preg, 0, now);
        }
    }

    /// Records a consumer satisfied by the *second* bypass stage (the
    /// cache-write-to-read forward). Such consumers cannot affect the
    /// write decision (§3.1) but their use must still be deducted from
    /// the cached entry's remaining-use count. No-op if the value is
    /// not resident (it was filtered).
    pub fn bypass_consume(&mut self, preg: PhysReg, set: u16) {
        if let Some(i) = self.find(preg, set) {
            let e = &mut self.entries[i];
            if !e.pinned {
                e.uses = e.uses.saturating_sub(1);
            }
        }
        if let Some(s) = &mut self.shadow {
            s.bypass_consume(preg, 0);
        }
    }

    /// Invalidates the value when its physical register is freed
    /// (required for correctness, §2.2) and closes out the value's
    /// statistics. Must follow exactly one [`RegisterCache::produce`]
    /// of the register: the cache keeps no liveness of its own, so a
    /// second `free` would count the value twice.
    pub fn free(&mut self, preg: PhysReg, set: u16, now: u64) {
        self.stats.values_freed += 1;
        if !self.per_preg[preg.0 as usize].ever_cached {
            self.stats.values_never_cached += 1;
        }
        if let Some(m) = &mut self.monitor {
            // The tag may be re-allocated to an unrelated value (this
            // path also runs under squash recovery), so the shadow
            // stack must forget it.
            let tid = preg.0 as usize / self.preg_quota;
            m.remove(tid, preg);
        }
        if let Some(i) = self.find(preg, set) {
            self.remove(i, Removal::Free, now);
            self.note_occupancy(now);
        }
        if let Some(s) = &mut self.shadow {
            s.free(preg, 0, now);
        }
    }

    /// True when a value for `preg` is resident (any set — used by the
    /// shadow classifier and by tests).
    pub fn contains(&self, preg: PhysReg) -> bool {
        self.resident(preg).is_some()
    }

    /// The remaining-use count of a resident value, or `None` if not
    /// resident (for tests and assertions).
    pub fn remaining_uses(&self, preg: PhysReg) -> Option<u8> {
        self.resident(preg).map(|i| self.entries[i].uses)
    }

    /// True when a resident value is pinned.
    pub fn is_pinned(&self, preg: PhysReg) -> Option<bool> {
        self.resident(preg).map(|i| self.entries[i].pinned)
    }

    /// Snapshots every valid entry, for external invariant checking.
    pub fn entries(&self) -> impl Iterator<Item = EntryView> + '_ {
        let w = self.config.ways;
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid)
            .map(move |(i, e)| EntryView {
                set: (i / w) as u16,
                way: (i % w) as u16,
                tid: e.tid,
                preg: PhysReg(e.preg),
                uses: e.uses,
                pinned: e.pinned,
                from_fill: e.from_fill,
            })
    }

    /// Structural self-audit: checks that no physical register is
    /// resident twice, each resident register's entry index points at
    /// its entry and no other register is indexed, and every counter
    /// respects the configured saturation limit; and the SMT partition:
    /// every entry is tagged with its register's thread, each thread's
    /// live-entry count matches its entries and respects its occupancy
    /// cap, every entry sits in a way its thread owns, and the dynamic
    /// caps and way counts are positive and sum to the entries and
    /// ways. Returns a description of the first violated invariant,
    /// naming the thread when it is per-thread.
    ///
    /// # Errors
    ///
    /// Returns `Err(description)` when internal state is inconsistent
    /// (only possible after external corruption, e.g. fault injection).
    pub fn audit(&self) -> Result<(), String> {
        let live = self.entries.iter().filter(|e| e.valid).count();
        let mut seen = vec![false; self.per_preg.len()];
        let mut per_thread = vec![0usize; self.thread_valid.len()];
        let w = self.config.ways;
        for (i, e) in self.entries.iter().enumerate().filter(|(_, e)| e.valid) {
            let p = e.preg as usize;
            if p >= seen.len() {
                return Err(format!("entry tag p{p} out of range"));
            }
            if seen[p] {
                return Err(format!("p{p} resident in two entries"));
            }
            seen[p] = true;
            if e.uses > self.config.max_use_count {
                return Err(format!(
                    "p{p} remaining-use counter {} exceeds max_use_count {}",
                    e.uses, self.config.max_use_count
                ));
            }
            if e.tid as usize != self.thread_of(PhysReg(e.preg)) {
                return Err(format!(
                    "p{p} tagged thread {} but partitions to thread {}",
                    e.tid,
                    self.thread_of(PhysReg(e.preg))
                ));
            }
            per_thread[e.tid as usize] += 1;
            let way = i % w;
            if let Some(owner) = self.partition.way_owner(way) {
                if owner != e.tid as usize {
                    return Err(format!(
                        "p{p} (thread {}) resident in way {way}, owned by \
                         thread {owner}",
                        e.tid
                    ));
                }
            }
            if self.per_preg[p].entry != Some(i as u32) {
                return Err(format!(
                    "p{p} resident in entry {i} but indexed at {:?}",
                    self.per_preg[p].entry
                ));
            }
        }
        let indexed = self.per_preg.iter().filter(|st| st.entry.is_some()).count();
        if indexed != live {
            return Err(format!(
                "{indexed} registers indexed as resident but {live} entries are live"
            ));
        }
        if let Some(t) = (0..per_thread.len()).find(|&t| per_thread[t] != self.thread_valid[t]) {
            return Err(format!(
                "thread {t} is counted {} valid entries but holds {}",
                self.thread_valid[t], per_thread[t]
            ));
        }
        for (t, &v) in self.thread_valid.iter().enumerate() {
            if let Some(cap) = self.current_cap(t) {
                if v > cap {
                    return Err(format!(
                        "thread {t} holds {v} entries, above its occupancy cap {cap}"
                    ));
                }
            }
        }
        self.partition.audit(self.config.entries, w)?;
        Ok(())
    }

    /// Fault-injection hook: corrupts the replacement metadata of the
    /// `nth` valid entry (modulo occupancy) by unpinning it and forcing
    /// its remaining-use counter to 255 — the bit pattern a real SRAM
    /// upset could leave. Returns the victim's tag, or `None` when the
    /// cache is empty.
    pub fn corrupt_metadata(&mut self, nth: usize) -> Option<PhysReg> {
        let valid = self.occupancy();
        if valid == 0 {
            return None;
        }
        let e = self
            .entries
            .iter_mut()
            .filter(|e| e.valid)
            .nth(nth % valid)
            .expect("nth % occupancy names a valid entry");
        e.pinned = false;
        e.uses = 255;
        Some(PhysReg(e.preg))
    }

    /// Fault-injection hook: flips a data bit in the `nth` valid entry
    /// (modulo occupancy), marking its modeled parity bad. A protected
    /// read ([`crate::RegCacheConfig::protect`]) detects the
    /// upset via [`RegisterCache::take_parity_fault`] and re-fills from
    /// the backing file. Returns the victim's tag, or `None` when the
    /// cache is empty.
    pub fn corrupt_data(&mut self, nth: usize) -> Option<PhysReg> {
        let valid = self.occupancy();
        if valid == 0 {
            return None;
        }
        let e = self
            .entries
            .iter_mut()
            .filter(|e| e.valid)
            .nth(nth % valid)
            .expect("nth % occupancy names a valid entry");
        e.parity_bad = true;
        Some(PhysReg(e.preg))
    }

    /// Targeted variant of [`RegisterCache::corrupt_data`]: marks the
    /// resident entry for `preg` parity-bad. Returns `false` (no fault
    /// landed) when the value is not resident.
    pub fn corrupt_preg_data(&mut self, preg: PhysReg) -> bool {
        match self.resident(preg) {
            Some(i) => {
                self.entries[i].parity_bad = true;
                true
            }
            None => false,
        }
    }

    /// Parity check performed by a protected read port *before* the
    /// lookup: when the resident entry for `preg` carries a parity
    /// error, the entry is invalidated (the clean copy lives in the
    /// backing file, so the subsequent [`RegisterCache::read`] misses
    /// and takes the ordinary fill path) and `true` is returned.
    ///
    /// The invalidation is not an eviction (no replacement decision was
    /// made) and is deliberately *not* forwarded to the shadow
    /// classifier, which models a fault-free baseline.
    pub fn take_parity_fault(&mut self, preg: PhysReg, set: u16, now: u64) -> bool {
        let Some(i) = self.find(preg, set) else {
            return false;
        };
        if !self.entries[i].parity_bad {
            return false;
        }
        self.remove(i, Removal::Parity, now);
        self.note_occupancy(now);
        true
    }

    /// Runs one dynamic-partition epoch boundary at cycle `now`:
    /// snapshots per-thread hit/miss deltas since the previous boundary,
    /// asks the partition state for a new plan computed by the
    /// lookahead utility partitioner (see [`crate::monitor`]), enforces
    /// it — under [`CachePartition::DynamicCap`] by trimming each
    /// over-quota thread down to its new cap (evicting its own *unpinned*
    /// entries, lowest replacement score first — the same victims an
    /// at-cap insert would pick); under [`CachePartition::DynamicWay`]
    /// by draining reassigned ways (see
    /// `RegisterCache::reassign_ways`) — and ages the monitors.
    ///
    /// Quota floors guarantee feasibility: every thread keeps at least
    /// `max(1, pinned entries)` (under `DynamicCap`, raised toward the
    /// configured `min_cap` in thread order while budget remains) or
    /// `max(1, pinned per fullest set)` ways (under `DynamicWay`).
    /// Between boundaries the occupancy and placement invariants bound
    /// the pinned footprints by the current quotas, so the floors always
    /// fit — by induction the quotas stay ≥ 1 each and conserve the
    /// total at every boundary.
    ///
    /// Boundary evictions are deliberately *not* forwarded to the
    /// shadow classifier, which models the fully-associative shared
    /// baseline (the same reasoning as
    /// [`RegisterCache::take_parity_fault`]).
    ///
    /// # Panics
    ///
    /// Panics when the cache is not a multi-thread dynamic-partition
    /// cache; the simulator only schedules the epoch stage when it is.
    pub fn epoch_boundary(&mut self, now: u64) -> EpochFeedback {
        assert!(
            self.thread_valid.len() > 1 && self.config.partition.is_dynamic(),
            "epoch_boundary on a non-dynamic cache"
        );
        let n = self.thread_valid.len();
        let w = self.config.ways;
        let mut hits = vec![0u64; n];
        let mut misses = vec![0u64; n];
        for t in 0..n {
            hits[t] = self.stats.thread_read_hits[t] - self.epoch_hits[t];
            misses[t] = self.stats.thread_read_misses[t] - self.epoch_misses[t];
            self.epoch_hits[t] = self.stats.thread_read_hits[t];
            self.epoch_misses[t] = self.stats.thread_read_misses[t];
        }
        let mut pinned = vec![0usize; n];
        for e in self.entries.iter().filter(|e| e.valid && e.pinned) {
            pinned[e.tid as usize] += 1;
        }
        let mut pinned_per_set_max = vec![0usize; n];
        for s in 0..self.sets {
            let mut in_set = vec![0usize; n];
            for e in self.entries[s * w..(s + 1) * w]
                .iter()
                .filter(|e| e.valid && e.pinned)
            {
                in_set[e.tid as usize] += 1;
            }
            for t in 0..n {
                pinned_per_set_max[t] = pinned_per_set_max[t].max(in_set[t]);
            }
        }
        let cx = EpochContext {
            monitor: self
                .monitor
                .as_ref()
                .expect("dynamic-partition caches carry monitors"),
            pinned: &pinned,
            pinned_per_set_max: &pinned_per_set_max,
            entries: self.config.entries,
            ways: w,
            sets: self.sets,
        };
        let (caps, ways) = match self.partition.epoch_boundary(&cx) {
            EpochPlan::Caps(caps) => {
                for (t, &cap) in caps.iter().enumerate().take(n) {
                    while self.thread_valid[t] > cap {
                        let victim = self
                            .entries
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.valid && e.tid as usize == t && !e.pinned)
                            .min_by_key(|(_, e)| self.config.replacement.score(&e.victim_view()))
                            .map(|(i, _)| i)
                            .expect("floors cover every pinned entry");
                        self.remove(victim, Removal::EpochEvict, now);
                    }
                }
                (caps, Vec::new())
            }
            EpochPlan::Ways(counts) => {
                self.reassign_ways(now);
                let caps = counts.iter().map(|&c| c * self.sets).collect();
                (caps, counts)
            }
        };
        self.note_occupancy(now);
        self.monitor
            .as_mut()
            .expect("dynamic-partition caches carry monitors")
            .decay();
        EpochFeedback {
            cycle: now,
            hits,
            misses,
            caps,
            ways,
        }
    }

    /// Enforces a freshly installed [`CachePartition::DynamicWay`] way
    /// map (the partition already holds the *new* ownership when this
    /// runs). Two passes per the dataflow in DESIGN.md:
    ///
    /// 1. **Drain** — every valid entry sitting in a way its thread no
    ///    longer owns is removed: unpinned entries are evicted (counted
    ///    like quota-trim evictions), pinned entries are set aside as
    ///    migrants.
    /// 2. **Migrate** — each pinned migrant is re-placed in its own
    ///    set inside its thread's new way block, filling an invalid way
    ///    first, else evicting the block's minimum-score *unpinned*
    ///    entry. The way floors cover each thread's pinned entries in
    ///    its fullest set, so a slot always exists. Migration preserves
    ///    the entry verbatim (LRU stamp, use count, lifetime origin) —
    ///    it is not an eviction or a re-insertion.
    fn reassign_ways(&mut self, now: u64) {
        let w = self.config.ways;
        let mut migrants: Vec<(usize, Entry)> = Vec::new();
        for s in 0..self.sets {
            let base = s * w;
            for i in 0..w {
                let e = self.entries[base + i];
                if !e.valid {
                    continue;
                }
                let owner = self
                    .partition
                    .way_owner(i)
                    .expect("DynamicWay owns every way");
                if owner == e.tid as usize {
                    continue;
                }
                if e.pinned {
                    migrants.push((s, self.remove(base + i, Removal::Migrate, now)));
                } else {
                    self.remove(base + i, Removal::EpochEvict, now);
                }
            }
        }
        for (s, e) in migrants {
            let base = s * w;
            let tid = e.tid as usize;
            let range = self.partition.victim_ways(tid);
            let slot = match range.clone().find(|&i| !self.entries[base + i].valid) {
                Some(i) => i,
                None => {
                    let i = self
                        .min_score_way(range.filter(|&i| !self.entries[base + i].pinned), base)
                        .expect("way floors cover every pinned entry");
                    self.remove(base + i, Removal::EpochEvict, now);
                    i
                }
            };
            self.place(base + slot, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RegCacheConfig;

    const NPREGS: usize = 64;

    fn ub(entries: usize, ways: usize) -> RegisterCache {
        RegisterCache::new(RegCacheConfig::use_based(entries, ways), NPREGS)
    }

    #[test]
    fn write_then_read_hits_and_decrements() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        assert_eq!(
            c.write(PhysReg(1), 0, 2, false, 0, 10),
            WriteOutcome::Inserted
        );
        assert_eq!(c.remaining_uses(PhysReg(1)), Some(2));
        assert!(c.read(PhysReg(1), 0, 11));
        assert_eq!(c.remaining_uses(PhysReg(1)), Some(1));
        assert!(c.read(PhysReg(1), 0, 12));
        assert_eq!(c.remaining_uses(PhysReg(1)), Some(0));
        // Zero uses does not mean eviction: still readable.
        assert!(c.read(PhysReg(1), 0, 13));
        assert_eq!(c.remaining_uses(PhysReg(1)), Some(0));
    }

    #[test]
    fn use_based_insertion_filters_dead_values() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        assert_eq!(
            c.write(PhysReg(1), 0, 0, false, 1, 10),
            WriteOutcome::Filtered
        );
        assert!(!c.contains(PhysReg(1)));
        assert!(!c.read(PhysReg(1), 0, 11));
        assert_eq!(c.stats().writes_filtered, 1);
    }

    #[test]
    fn use_based_insertion_keeps_values_with_remaining_uses_despite_bypasses() {
        // The key advantage over non-bypass (§3.1): a value that
        // bypassed to SOME consumers but still has uses left is cached.
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        assert_eq!(
            c.write(PhysReg(1), 0, 2, false, 3, 10),
            WriteOutcome::Inserted
        );
        assert!(c.contains(PhysReg(1)));
    }

    #[test]
    fn non_bypass_filters_on_any_bypass() {
        let mut c = RegisterCache::new(RegCacheConfig::non_bypass(8, 2), NPREGS);
        c.produce(PhysReg(1));
        c.produce(PhysReg(2));
        assert_eq!(
            c.write(PhysReg(1), 0, 2, false, 1, 10),
            WriteOutcome::Filtered
        );
        assert_eq!(
            c.write(PhysReg(2), 0, 0, false, 0, 10),
            WriteOutcome::Inserted
        );
    }

    #[test]
    fn write_all_always_inserts() {
        let mut c = RegisterCache::new(RegCacheConfig::lru(8, 2), NPREGS);
        c.produce(PhysReg(1));
        assert_eq!(
            c.write(PhysReg(1), 0, 0, false, 5, 10),
            WriteOutcome::Inserted
        );
    }

    #[test]
    fn pinned_values_always_insert_and_never_decrement() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        assert_eq!(
            c.write(PhysReg(1), 0, 7, true, 7, 10),
            WriteOutcome::Inserted
        );
        for t in 11..30 {
            assert!(c.read(PhysReg(1), 0, t));
        }
        assert_eq!(c.remaining_uses(PhysReg(1)), Some(7));
        assert_eq!(c.is_pinned(PhysReg(1)), Some(true));
    }

    #[test]
    fn fewest_uses_replacement_picks_lowest_count() {
        let mut c = ub(2, 2); // one set of two ways
        for (p, uses) in [(1u16, 3u8), (2, 1)] {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), 0, uses, false, 0, 10);
        }
        c.produce(PhysReg(3));
        c.write(PhysReg(3), 0, 2, false, 0, 11);
        // Victim must be preg 2 (1 use) not preg 1 (3 uses).
        assert!(c.contains(PhysReg(1)));
        assert!(!c.contains(PhysReg(2)));
        assert!(c.contains(PhysReg(3)));
    }

    #[test]
    fn fewest_uses_prefers_zero_use_victims() {
        let mut c = ub(2, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 1, false, 0, 10);
        c.produce(PhysReg(2));
        c.write(PhysReg(2), 0, 1, false, 0, 10);
        assert!(c.read(PhysReg(2), 0, 11)); // preg 2 now zero uses
        c.produce(PhysReg(3));
        c.write(PhysReg(3), 0, 1, false, 0, 12);
        assert!(!c.contains(PhysReg(2)));
        assert_eq!(c.stats().evictions_zero_use, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn pinned_entries_resist_replacement() {
        let mut c = ub(2, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 7, true, 0, 10);
        c.produce(PhysReg(2));
        c.write(PhysReg(2), 0, 5, false, 0, 10);
        c.produce(PhysReg(3));
        c.write(PhysReg(3), 0, 1, false, 0, 11);
        // preg 2 (5 uses, unpinned) must be the victim, not pinned preg 1.
        assert!(c.contains(PhysReg(1)));
        assert!(!c.contains(PhysReg(2)));
    }

    #[test]
    fn expected_hit_count_spares_fill_entries() {
        // One set of two ways, EHC replacement. A zero-use fill entry
        // outranks a zero-use write entry, so the write entry is the
        // victim — FewestUses would have evicted the *fill* entry (its
        // older tie-break tick loses).
        let mk = |cfg: RegCacheConfig| {
            let mut c = RegisterCache::new(cfg, NPREGS);
            c.produce(PhysReg(1));
            c.write(PhysReg(1), 0, 0, false, 1, 1); // filtered
            assert!(!c.read(PhysReg(1), 0, 2)); // miss
            c.fill(PhysReg(1), 0, 3); // fill-installed, 0 uses
            c.produce(PhysReg(2));
            c.write(PhysReg(2), 0, 1, false, 0, 4);
            assert!(c.read(PhysReg(2), 0, 5)); // preg 2 now 0 uses, newer tick
            c.produce(PhysReg(3));
            c.write(PhysReg(3), 0, 1, false, 0, 6); // forces an eviction
            c
        };
        let ehc = mk(RegCacheConfig::expected_hit_count(2, 2));
        assert!(ehc.contains(PhysReg(1)), "fill entry must survive");
        assert!(!ehc.contains(PhysReg(2)));

        let fu = mk(RegCacheConfig::use_based(2, 2));
        assert!(!fu.contains(PhysReg(1)), "FewestUses evicts the older");
        assert!(fu.contains(PhysReg(2)));
    }

    #[test]
    fn lru_replacement_ignores_use_counts() {
        let mut c = RegisterCache::new(RegCacheConfig::lru(2, 2), NPREGS);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 7, false, 0, 10);
        c.produce(PhysReg(2));
        c.write(PhysReg(2), 0, 0, false, 0, 11);
        c.read(PhysReg(1), 0, 12); // refresh preg 1
        c.produce(PhysReg(3));
        c.write(PhysReg(3), 0, 0, false, 0, 13);
        // LRU victim is preg 2 despite preg 1 having more uses.
        assert!(c.contains(PhysReg(1)));
        assert!(!c.contains(PhysReg(2)));
    }

    #[test]
    fn fill_uses_fill_default_and_is_unpinned() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 0, false, 1, 10); // filtered
        assert!(!c.read(PhysReg(1), 0, 11)); // miss
        c.fill(PhysReg(1), 0, 12);
        assert_eq!(c.remaining_uses(PhysReg(1)), Some(0)); // fill default 0
        assert_eq!(c.is_pinned(PhysReg(1)), Some(false));
        assert!(c.read(PhysReg(1), 0, 13)); // now hits
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn free_invalidates_and_counts_never_cached() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 0, false, 1, 10); // filtered, never cached
        c.free(PhysReg(1), 0, 20);
        c.produce(PhysReg(2));
        c.write(PhysReg(2), 0, 1, false, 0, 21);
        c.free(PhysReg(2), 0, 30);
        assert!(!c.contains(PhysReg(2)));
        let s = c.stats();
        assert_eq!(s.values_freed, 2);
        assert_eq!(s.values_never_cached, 1);
    }

    #[test]
    fn entry_lifetime_and_never_read_accounting() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 1, false, 0, 100);
        c.free(PhysReg(1), 0, 130);
        let s = c.stats();
        assert_eq!(s.entry_lifetime_sum, 30);
        assert_eq!(s.entry_lifetime_count, 1);
        assert_eq!(s.cached_never_read, 1);
        assert_eq!(s.frac_cached_never_read(), Some(1.0));
    }

    #[test]
    fn miss_classification_not_written_vs_conflict_vs_capacity() {
        let mut cfg = RegCacheConfig::use_based(2, 1); // 2 sets, direct-mapped
        cfg.classify_misses = true;
        let mut c = RegisterCache::new(cfg, NPREGS);

        // Not-written: filtered value.
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 0, false, 1, 1);
        assert!(!c.read(PhysReg(1), 0, 2));
        assert_eq!(c.stats().misses_not_written, 1);

        // Conflict: two live values forced into set 0 of the
        // direct-mapped cache while the 2-entry FA shadow holds both.
        c.produce(PhysReg(2));
        c.write(PhysReg(2), 0, 3, false, 0, 3);
        c.produce(PhysReg(3));
        c.write(PhysReg(3), 0, 3, false, 0, 4); // evicts preg 2 in real, not in shadow
        assert!(!c.read(PhysReg(2), 0, 5));
        assert_eq!(c.stats().misses_conflict, 1);
    }

    #[test]
    fn miss_classification_capacity() {
        let mut cfg = RegCacheConfig::use_based(2, 2); // 1 set of 2 (FA)
        cfg.classify_misses = true;
        let mut c = RegisterCache::new(cfg, NPREGS);
        for p in 1..=3u16 {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), 0, 3, false, 0, p as u64);
        }
        // preg 1 evicted from both real and shadow (same capacity).
        assert!(!c.read(PhysReg(1), 0, 10));
        assert_eq!(c.stats().misses_capacity, 1);
        assert_eq!(c.stats().misses_conflict, 0);
    }

    #[test]
    fn fully_associative_cache_has_no_conflict_misses() {
        let mut cfg = RegCacheConfig::use_based(4, 4);
        cfg.classify_misses = true;
        let mut c = RegisterCache::new(cfg, NPREGS);
        for p in 1..=8u16 {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), 0, 3, false, 0, p as u64);
        }
        for p in 1..=8u16 {
            c.read(PhysReg(p), 0, 20 + p as u64);
        }
        assert_eq!(c.stats().misses_conflict, 0);
        assert!(c.stats().misses_capacity > 0);
    }

    #[test]
    fn occupancy_integrates_over_time() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 1, false, 0, 0);
        c.free(PhysReg(1), 0, 50);
        c.finalize(100);
        // One entry for 50 cycles out of 100 -> average 0.5.
        let avg = c.stats().occupancy.average(100).unwrap();
        assert!((avg - 0.5).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn table2_metric_helpers() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 2, false, 0, 0);
        c.read(PhysReg(1), 0, 1);
        c.read(PhysReg(1), 0, 2);
        c.free(PhysReg(1), 0, 10);
        let s = c.stats();
        assert_eq!(s.reads_per_cached_value(), Some(2.0));
        assert_eq!(s.cache_count_per_value(), Some(1.0));
        assert_eq!(s.avg_entry_lifetime(), Some(10.0));
        assert_eq!(s.miss_rate(), Some(0.0));
    }

    // --- SMT partitioning ---------------------------------------------
    //
    // Two threads over 64 pregs: thread 0 owns p0..p31, thread 1 owns
    // p32..p63.

    fn smt(partition: CachePartition, entries: usize, ways: usize) -> RegisterCache {
        let mut cfg = RegCacheConfig::lru(entries, ways); // write-all: every write lands
        cfg.partition = partition;
        RegisterCache::new_smt(cfg, NPREGS, 2)
    }

    #[test]
    fn single_thread_cache_ignores_partition_policy() {
        let mut cfg = RegCacheConfig::lru(2, 2);
        cfg.partition = CachePartition::OccupancyCap;
        let mut c = RegisterCache::new(cfg, NPREGS);
        // Cap would be 2 for the single thread anyway; behavior is Shared.
        for p in 1..=3u16 {
            c.produce(PhysReg(p));
            assert_eq!(
                c.write(PhysReg(p), 0, 1, false, 0, p as u64),
                WriteOutcome::Inserted
            );
        }
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.thread_valid[0], 2);
        c.audit().unwrap();
    }

    #[test]
    fn way_partition_confines_each_thread_to_its_ways() {
        // One set of 4 ways, 2 threads -> each owns 2 ways.
        let mut c = smt(CachePartition::WayPartition, 4, 4);
        for p in [0u16, 1, 2] {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), 0, 1, false, 0, 1 + p as u64);
        }
        // Thread 0 overflowed its 2 ways: p0 evicted by p2, both remain
        // confined to ways 0..2.
        assert!(!c.contains(PhysReg(0)));
        assert!(c.contains(PhysReg(1)));
        assert!(c.contains(PhysReg(2)));
        // Thread 1 still inserts into its own empty ways.
        c.produce(PhysReg(40));
        c.write(PhysReg(40), 0, 1, false, 0, 9);
        assert!(c.contains(PhysReg(40)));
        for e in c.entries() {
            let owner = e.preg.0 as usize / 32;
            assert_eq!(e.tid as usize, owner);
            assert_eq!(e.way as usize / 2, owner, "way {} tid {}", e.way, e.tid);
        }
        c.audit().unwrap();
    }

    #[test]
    fn way_partition_never_evicts_a_peer() {
        let mut c = smt(CachePartition::WayPartition, 4, 4);
        // Thread 1 fills its two ways.
        for p in [40u16, 41] {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), 0, 1, false, 0, 1);
        }
        // Thread 0 hammers the same set far past its own capacity.
        for p in 0..8u16 {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), 0, 1, false, 0, 2 + p as u64);
        }
        assert!(c.contains(PhysReg(40)));
        assert!(c.contains(PhysReg(41)));
        assert_eq!(c.thread_valid[0], 2);
        assert_eq!(c.thread_valid[1], 2);
        c.audit().unwrap();
    }

    #[test]
    fn occupancy_cap_evicts_own_entries_once_at_cap() {
        // 4 entries, 2 ways (2 sets), cap = 2 per thread.
        let mut c = smt(CachePartition::OccupancyCap, 4, 2);
        for (p, set) in [(0u16, 0u16), (1, 1)] {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), set, 1, false, 0, 1);
        }
        assert_eq!(c.thread_valid[0], 2); // at cap
                                          // A third insert from thread 0 must evict thread 0's own entry
                                          // in the target set, leaving total occupancy at the cap.
        c.produce(PhysReg(2));
        assert_eq!(
            c.write(PhysReg(2), 0, 1, false, 0, 2),
            WriteOutcome::Inserted
        );
        assert!(!c.contains(PhysReg(0)));
        assert!(c.contains(PhysReg(2)));
        assert_eq!(c.thread_valid[0], 2);
        c.audit().unwrap();
    }

    #[test]
    fn occupancy_cap_drops_inserts_with_nothing_evictable() {
        let mut c = smt(CachePartition::OccupancyCap, 4, 2);
        // Thread 0 reaches its cap entirely in set 0's ways... that is
        // impossible with 2 ways, so: cap filled across sets 0 and 1.
        for (p, set) in [(0u16, 0u16), (1, 1)] {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), set, 1, false, 0, 1);
        }
        // Free p1 so nothing of thread 0's lives in set 1, then re-reach
        // the cap in set 0 only... cap is 2, set 0 has 2 ways: fill both.
        c.free(PhysReg(1), 1, 2);
        c.produce(PhysReg(2));
        c.write(PhysReg(2), 0, 1, false, 0, 3);
        assert_eq!(c.thread_valid[0], 2);
        // At cap, inserting into set 1 where thread 0 owns nothing: drop.
        c.produce(PhysReg(3));
        assert_eq!(c.write(PhysReg(3), 1, 1, false, 0, 4), WriteOutcome::Capped);
        assert!(!c.contains(PhysReg(3)));
        assert_eq!(c.stats().inserts_capped, 1);
        assert_eq!(c.stats().writes_inserted, 3);
        c.audit().unwrap();
    }

    #[test]
    fn occupancy_cap_under_cap_may_evict_peers() {
        // Shared ways: a thread below its cap replaces whatever scores
        // lowest, including a peer's entry.
        let mut c = smt(CachePartition::OccupancyCap, 2, 2);
        // cap = 1. Thread 1 fills both ways? cap=1 stops it at one.
        c.produce(PhysReg(40));
        c.write(PhysReg(40), 0, 1, false, 0, 1);
        c.produce(PhysReg(41));
        assert_eq!(
            c.write(PhysReg(41), 0, 1, false, 0, 2),
            WriteOutcome::Inserted
        );
        assert!(!c.contains(PhysReg(40)), "own-entry eviction at cap");
        // Thread 0 (under cap) takes the free way.
        c.produce(PhysReg(0));
        assert_eq!(
            c.write(PhysReg(0), 0, 1, false, 0, 3),
            WriteOutcome::Inserted
        );
        assert_eq!(c.thread_valid[0], 1);
        assert_eq!(c.thread_valid[1], 1);
        c.audit().unwrap();
    }

    #[test]
    fn shared_partition_matches_legacy_behavior_with_two_threads() {
        // Same op sequence against a 1-thread cache and a 2-thread
        // Shared cache: identical hits, misses, and residency.
        let ops = |c: &mut RegisterCache| {
            for (t, p) in [0u16, 1, 33, 34, 2, 35].into_iter().enumerate() {
                c.produce(PhysReg(p));
                c.write(PhysReg(p), p, 2, false, 0, t as u64);
            }
            (0..NPREGS as u16)
                .map(|p| c.read(PhysReg(p), p, 100))
                .collect::<Vec<_>>()
        };
        let mut solo = RegisterCache::new(RegCacheConfig::lru(8, 2), NPREGS);
        let mut duo = smt(CachePartition::Shared, 8, 2);
        assert_eq!(ops(&mut solo), ops(&mut duo));
        assert_eq!(solo.stats().read_hits, duo.stats().read_hits);
        assert_eq!(duo.thread_valid[0] + duo.thread_valid[1], duo.occupancy());
        duo.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "ways divisible by nthreads")]
    fn way_partition_rejects_indivisible_ways() {
        let mut cfg = RegCacheConfig::use_based(9, 3);
        cfg.partition = CachePartition::WayPartition;
        let _ = RegisterCache::new_smt(cfg, NPREGS, 2);
    }

    fn dyncap(entries: usize, ways: usize) -> RegisterCache {
        smt(
            CachePartition::DynamicCap {
                epoch_cycles: 64,
                min_cap: 1,
            },
            entries,
            ways,
        )
    }

    #[test]
    fn dynamic_cap_starts_at_the_even_split_and_enforces_it() {
        // 8 entries, 2 threads: initial quotas are the OccupancyCap
        // split [4, 4], binding until the first epoch boundary.
        let mut c = dyncap(8, 2);
        assert_eq!(c.dynamic_caps(), Some(&[4usize, 4][..]));
        assert_eq!(c.current_cap(0), Some(4));
        for (i, p) in [40u16, 41, 42, 43, 44].into_iter().enumerate() {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), i as u16, 1, false, 0, 1 + i as u64);
        }
        // The fifth write was at cap: it evicted one of thread 1's own
        // entries rather than growing past the quota.
        assert_eq!(c.thread_valid[1], 4);
        c.audit().unwrap();
    }

    #[test]
    fn epoch_boundary_moves_quota_to_the_reuse_thread_and_trims() {
        let mut c = dyncap(8, 2); // 4 sets; sets 0 and 2 feed the monitors
                                  // Thread 0 keeps two hot values and re-reads them.
        for (p, set) in [(0u16, 0u16), (1, 2)] {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), set, 7, false, 0, 1);
        }
        for now in 2..6u64 {
            assert!(c.read(PhysReg(0), 0, now));
            assert!(c.read(PhysReg(1), 2, now));
        }
        // Thread 1 streams writes without any reuse, filling its quota.
        for (i, p) in (40u16..45).enumerate() {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), i as u16, 1, false, 0, 6 + i as u64);
        }
        assert_eq!(c.thread_valid[1], 4);
        assert_eq!(c.dynamic_caps(), Some(&[4usize, 4][..]));
        let fb = c.epoch_boundary(64);
        // The partitioner hands the reuse thread the larger quota and
        // conserves the total; thread 1 was trimmed down to its new cap
        // by evicting its own entries.
        assert!(
            fb.caps[0] > fb.caps[1],
            "reuse thread must win quota: {:?}",
            fb.caps
        );
        assert_eq!(fb.caps.iter().sum::<usize>(), 8);
        assert!(c.thread_valid[1] <= fb.caps[1]);
        assert!(c.stats().epoch_evictions > 0, "trim must evict");
        assert_eq!(fb.cycle, 64);
        // The hot values survived the boundary.
        assert!(c.contains(PhysReg(0)));
        assert!(c.contains(PhysReg(1)));
        c.audit().unwrap();
    }

    #[test]
    fn epoch_boundary_never_evicts_pinned_entries() {
        let mut c = dyncap(8, 2);
        // Thread 1 holds three pinned values; thread 0 shows heavy reuse
        // so the partitioner wants to shrink thread 1's quota.
        for (i, p) in (40u16..43).enumerate() {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), i as u16, 3, true, 0, 1 + i as u64);
        }
        for (p, set) in [(0u16, 0u16), (1, 2)] {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), set, 7, false, 0, 4);
        }
        for now in 5..12u64 {
            assert!(c.read(PhysReg(0), 0, now));
            assert!(c.read(PhysReg(1), 2, now));
        }
        let fb = c.epoch_boundary(64);
        // The quota floor covers every pinned entry, so all three stay.
        assert!(fb.caps[1] >= 3, "floor must cover pins: {fb:?}");
        for p in 40u16..43 {
            assert!(c.contains(PhysReg(p)), "pinned p{p} evicted");
        }
        c.audit().unwrap();
    }

    #[test]
    fn epoch_feedback_reports_per_epoch_deltas() {
        let mut c = dyncap(8, 2);
        c.produce(PhysReg(0));
        c.write(PhysReg(0), 0, 7, false, 0, 1);
        for now in 2..5u64 {
            assert!(c.read(PhysReg(0), 0, now));
        }
        assert!(!c.read(PhysReg(33), 0, 5)); // thread 1 miss
        let fb1 = c.epoch_boundary(64);
        assert_eq!(fb1.hits, vec![3, 0]);
        assert_eq!(fb1.misses, vec![0, 1]);
        assert_eq!(fb1.cycle, 64);
        assert_eq!(fb1.hit_rate(0), Some(1.0));
        assert_eq!(fb1.hit_rate(1), Some(0.0));
        // The second epoch reports only its own delta.
        assert!(c.read(PhysReg(0), 0, 70));
        let fb2 = c.epoch_boundary(128);
        assert_eq!(fb2.hits, vec![1, 0]);
        assert_eq!(fb2.misses, vec![0, 0]);
        assert_eq!(fb2.hit_rate(1), None, "no accesses this epoch");
    }

    #[test]
    #[should_panic(expected = "min_cap x nthreads exceeds the cache")]
    fn dynamic_cap_rejects_an_infeasible_min_cap() {
        let _ = smt(
            CachePartition::DynamicCap {
                epoch_cycles: 64,
                min_cap: 5,
            },
            8,
            2,
        );
    }

    // --- audit() catches each broken partition invariant --------------

    /// A two-thread cache of `partition` holding p0 and p1 (thread 0)
    /// and p40 (thread 1), one per set from set 0.
    fn populated(partition: CachePartition, entries: usize, ways: usize) -> RegisterCache {
        let mut c = smt(partition, entries, ways);
        for (set, p) in [0u16, 1, 40].into_iter().enumerate() {
            c.produce(PhysReg(p));
            c.write(PhysReg(p), set as u16, 1, false, 0, 1);
        }
        c.audit().unwrap();
        c
    }

    fn audit_err(c: &RegisterCache) -> String {
        c.audit()
            .expect_err("the broken invariant must be reported")
    }

    #[test]
    fn audit_reports_an_entry_tagged_with_the_wrong_thread() {
        let mut c = populated(CachePartition::Shared, 8, 2);
        let i = c
            .entries
            .iter()
            .position(|e| e.valid && e.preg == 40)
            .unwrap();
        c.entries[i].tid = 0;
        let err = audit_err(&c);
        assert!(
            err.contains("p40 tagged thread 0 but partitions to thread 1"),
            "{err}"
        );
    }

    #[test]
    fn audit_reports_a_miscounted_thread() {
        let mut c = populated(CachePartition::Shared, 8, 2);
        c.thread_valid[0] -= 1;
        c.thread_valid[1] += 1;
        let err = audit_err(&c);
        assert!(
            err.contains("thread 0 is counted 1 valid entries but holds 2"),
            "{err}"
        );
    }

    #[test]
    fn audit_reports_a_thread_above_its_occupancy_cap() {
        let dynamic = CachePartition::DynamicCap {
            epoch_cycles: 64,
            min_cap: 1,
        };
        let mut c = populated(dynamic, 8, 2);
        if let PartitionState::Caps { caps, .. } = &mut c.partition {
            *caps = vec![1, 7];
        }
        let err = audit_err(&c);
        assert!(
            err.contains("thread 0 holds 2 entries, above its occupancy cap 1"),
            "{err}"
        );
    }

    #[test]
    fn audit_reports_an_entry_outside_its_threads_ways() {
        // One set of four ways: thread 0 owns ways 0-1, thread 1 ways 2-3.
        let mut c = smt(CachePartition::WayPartition, 4, 4);
        c.produce(PhysReg(0));
        c.write(PhysReg(0), 0, 1, false, 0, 1);
        c.entries.swap(0, 3);
        let err = audit_err(&c);
        assert!(
            err.contains("p0 (thread 0) resident in way 3, owned by thread 1"),
            "{err}"
        );
    }

    #[test]
    fn audit_reports_a_stale_residency_index() {
        let mut c = populated(CachePartition::Shared, 8, 2);
        let i = c.resident(PhysReg(1)).unwrap();
        c.per_preg[1].entry = Some(i as u32 + 1);
        let err = audit_err(&c);
        assert!(
            err.contains(&format!("p1 resident in entry {i} but indexed at")),
            "{err}"
        );
        c.per_preg[1].entry = Some(i as u32);
        c.per_preg[2].entry = Some(7);
        let err = audit_err(&c);
        assert!(
            err.contains("4 registers indexed as resident but 3 entries"),
            "{err}"
        );
    }

    #[test]
    fn audit_reports_dynamic_caps_that_do_not_sum_to_the_entries() {
        let mut c = dyncap(8, 2);
        if let PartitionState::Caps { caps, .. } = &mut c.partition {
            *caps = vec![4, 5];
        }
        let err = audit_err(&c);
        assert!(
            err.contains("dynamic caps [4, 5] do not sum to 8 entries"),
            "{err}"
        );
        if let PartitionState::Caps { caps, .. } = &mut c.partition {
            *caps = vec![8, 0];
        }
        assert!(audit_err(&c).contains("thread 1 has a zero dynamic cap"));
    }

    #[test]
    fn audit_reports_dynamic_way_counts_that_do_not_sum_to_the_ways() {
        let mut c = smt(CachePartition::DynamicWay { epoch_cycles: 64 }, 8, 4);
        if let PartitionState::Ways { counts, .. } = &mut c.partition {
            *counts = vec![2, 1];
        }
        let err = audit_err(&c);
        assert!(
            err.contains("dynamic way counts [2, 1] do not sum to 4 ways"),
            "{err}"
        );
        if let PartitionState::Ways { counts, .. } = &mut c.partition {
            *counts = vec![4, 0];
        }
        assert!(audit_err(&c).contains("thread 1 owns zero ways"));
    }

    #[test]
    fn parity_fault_invalidates_on_protected_read() {
        let mut c = ub(8, 2);
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 3, false, 0, 10);
        assert_eq!(c.corrupt_data(0), Some(PhysReg(1)));
        // A clean entry in another set is untouched.
        c.produce(PhysReg(2));
        c.write(PhysReg(2), 1, 3, false, 0, 10);
        assert!(!c.take_parity_fault(PhysReg(2), 1, 11), "clean entry");
        // The protected read detects, invalidates, then misses.
        assert!(c.take_parity_fault(PhysReg(1), 0, 11));
        assert!(!c.read(PhysReg(1), 0, 11));
        assert_eq!(c.stats().parity_invalidations, 1);
        assert_eq!(c.stats().evictions, 0, "invalidation is not an eviction");
        // The fill reinstalls a clean word.
        c.fill(PhysReg(1), 0, 15);
        assert!(!c.take_parity_fault(PhysReg(1), 0, 16));
        assert!(c.read(PhysReg(1), 0, 16));
        c.audit().unwrap();
    }

    #[test]
    fn targeted_data_corruption_needs_a_resident_value() {
        let mut c = ub(8, 2);
        assert!(!c.corrupt_preg_data(PhysReg(1)), "not resident: no fault");
        assert_eq!(c.corrupt_data(5), None, "empty cache");
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 0, 3, false, 0, 10);
        assert!(c.corrupt_preg_data(PhysReg(1)));
        assert!(c.take_parity_fault(PhysReg(1), 0, 11));
        // Rewriting the entry stores a fresh, clean word.
        c.fill(PhysReg(1), 0, 12);
        assert!(c.corrupt_preg_data(PhysReg(1)));
        c.free(PhysReg(1), 0, 13);
        assert!(!c.corrupt_preg_data(PhysReg(1)), "freed: no fault");
    }

    #[test]
    fn different_sets_do_not_alias() {
        let mut c = ub(8, 2); // 4 sets
        c.produce(PhysReg(1));
        c.write(PhysReg(1), 2, 1, false, 0, 0);
        // Lookup in the wrong set misses even though the preg is
        // resident elsewhere — decoupled indexing stores the full tag
        // but only probes the renamed set.
        assert!(!c.read(PhysReg(1), 3, 1));
        assert!(c.read(PhysReg(1), 2, 2));
    }
}
