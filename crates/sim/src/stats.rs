use ubrc_core::{BackingStats, EpochFeedback, RegCacheStats, TwoLevelStats};
use ubrc_frontend::DouseStats;
use ubrc_memsys::MemSysStats;
use ubrc_stats::Histogram;

/// Register lifetime statistics (Figures 1 and 2 of the paper).
#[derive(Clone, Debug, Default)]
pub struct LifetimeStats {
    /// Allocation → value written (Figure 1 "empty time").
    pub empty: Histogram,
    /// Written → last use (Figure 1 "live time").
    pub live: Histogram,
    /// Last use → freed (Figure 1 "dead time").
    pub dead: Histogram,
    /// Per-cycle distribution of simultaneously *live* values
    /// (Figure 2).
    pub live_concurrency: Histogram,
    /// Per-cycle distribution of allocated physical registers
    /// (Figure 2).
    pub alloc_concurrency: Histogram,
}

/// Collects per-value lifetime events during simulation
/// ([`crate::SimConfig::collect_lifetimes`]); the distributions are
/// built in one sweep at the end.
#[derive(Clone, Debug, Default)]
pub(crate) struct LifetimeCollector {
    empty: Histogram,
    live: Histogram,
    dead: Histogram,
    live_events: Vec<(u64, i64)>,
    alloc_events: Vec<(u64, i64)>,
    /// Per physical register, its value's allocation, write and last
    /// read cycles (all 0 for the initial architectural state).
    stamps: Vec<[u64; 3]>,
}

impl LifetimeCollector {
    /// Creates an empty collector for `num_pregs` physical registers.
    pub(crate) fn new(num_pregs: usize) -> Self {
        Self {
            stamps: vec![[0; 3]; num_pregs],
            ..Self::default()
        }
    }

    /// A new value takes `p` at cycle `now`.
    pub(crate) fn alloc(&mut self, p: u16, now: u64) {
        self.stamps[p as usize] = [now, 0, 0];
    }

    /// The value in `p` is written at cycle `at`.
    pub(crate) fn write(&mut self, p: u16, at: u64) {
        self.stamps[p as usize][1] = at;
        self.read(p, at);
    }

    /// A consumer reads the value in `p` at cycle `at`.
    pub(crate) fn read(&mut self, p: u16, at: u64) {
        let last_use = &mut self.stamps[p as usize][2];
        *last_use = (*last_use).max(at);
    }

    /// Records the lifetime of the value in `p`, which dies at cycle
    /// `free` as its overwriter retires. `alloc <= write <= last_use <=
    /// free` is expected; the phases saturate at zero otherwise.
    pub(crate) fn free(&mut self, p: u16, free: u64) {
        let [alloc, write, last_use] = self.stamps[p as usize];
        self.empty.record(write.saturating_sub(alloc));
        self.live.record(last_use.saturating_sub(write));
        self.dead.record(free.saturating_sub(last_use));
        self.live_events.push((write, 1));
        self.live_events.push((last_use.max(write), -1));
        self.alloc_events.push((alloc, 1));
        self.alloc_events.push((free.max(alloc), -1));
    }

    fn sweep(mut events: Vec<(u64, i64)>, end: u64) -> Histogram {
        events.sort_unstable();
        let mut h = Histogram::new();
        let mut count: i64 = 0;
        let mut prev: u64 = 0;
        for (t, delta) in events {
            let t = t.min(end);
            if t > prev && count >= 0 {
                h.record_n(count as u64, t - prev);
            }
            count += delta;
            prev = prev.max(t);
        }
        if end > prev {
            h.record_n(count.max(0) as u64, end - prev);
        }
        h
    }

    /// Builds the final distributions for a run that ended at `end`.
    pub(crate) fn finalize(self, end: u64) -> LifetimeStats {
        LifetimeStats {
            empty: self.empty,
            live: self.live,
            dead: self.dead,
            live_concurrency: Self::sweep(self.live_events, end),
            alloc_concurrency: Self::sweep(self.alloc_events, end),
        }
    }
}

/// One stage's share of a self-profiled run ([`StageProfile`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSample {
    /// Stage name, as in the pipeline schedule ("fetch", "issue", ...).
    pub name: &'static str,
    /// Total wall nanoseconds spent inside the stage function.
    pub nanos: u64,
    /// Times the stage function ran (once per simulated cycle).
    pub calls: u64,
}

/// Per-stage wall-time attribution of one simulation run, collected
/// when [`crate::SimConfig::profile`] is set. Host-side cost only —
/// the simulated timing is identical with profiling on or off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// One sample per pipeline stage, in schedule order.
    pub stages: Vec<StageSample>,
}

impl StageProfile {
    /// Total wall nanoseconds across all stages.
    pub fn total_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }
}

/// Results of one timing-simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions retired per hardware thread (one entry for
    /// single-threaded runs; sums to `retired`).
    pub thread_retired: Vec<u64>,
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Conditional branch mispredictions.
    pub branch_mispredicts: u64,
    /// Indirect jumps fetched (including returns).
    pub indirect_branches: u64,
    /// Indirect target mispredictions (including RAS misses).
    pub indirect_mispredicts: u64,
    /// Instructions squashed by register-cache miss replay.
    pub replayed: u64,
    /// Register-cache miss events.
    pub miss_events: u64,
    /// Dispatch stalls for lack of a physical (or two-level L1)
    /// register.
    pub dispatch_stall_pregs: u64,
    /// Source operands satisfied by the bypass network.
    pub operands_bypassed: u64,
    /// Source operands that went to register storage (cache or file).
    pub operands_from_storage: u64,
    /// Issue-slot denials where a load waited for an older in-flight
    /// store to the same address.
    pub store_forward_stalls: u64,
    /// Wrong-path instructions fetched, renamed, and squashed at branch
    /// resolution.
    pub wrong_path_squashed: u64,
    /// Loads whose L1-hit speculation failed (each squashes its issue
    /// shadow, like a register-cache miss).
    pub load_miss_speculations: u64,
    /// Soft-error recoveries completed (entry invalidate + re-fill,
    /// counter scrubs, and machine checks; see
    /// [`SimResult::machine_checks`] for the escalated subset).
    pub recoveries: u64,
    /// Total cycles spent in recovery (re-fill waits plus
    /// squash-to-first-retirement replay latencies).
    pub recovery_cycles: u64,
    /// Distribution of individual recovery latencies in cycles.
    pub recovery_latency: Histogram,
    /// Machine-check squash-and-replay recoveries (backing-file faults
    /// and forced watchdog recoveries) per hardware thread.
    pub thread_machine_checks: Vec<u64>,
    /// Dynamic-repartitioning epoch boundaries completed
    /// ([`ubrc_core::CachePartition::DynamicCap`] and
    /// [`ubrc_core::CachePartition::DynamicWay`]; 0 otherwise): the
    /// length of `epoch_timeline`.
    pub epochs: u64,
    /// One record per epoch boundary, as the register cache reported it:
    /// the quotas or way map installed and each thread's hits and misses
    /// over the closed epoch (`DynamicCap` and `DynamicWay`; empty
    /// otherwise).
    pub epoch_timeline: Vec<EpochFeedback>,
    /// Register-cache statistics (cached configurations only).
    pub regcache: Option<RegCacheStats>,
    /// Backing-file statistics (cached configurations only).
    pub backing: Option<BackingStats>,
    /// Two-level file statistics (two-level configuration only).
    pub twolevel: Option<TwoLevelStats>,
    /// Degree-of-use predictor statistics (cached configurations only;
    /// the default otherwise).
    pub douse: DouseStats,
    /// Memory hierarchy statistics.
    pub memsys: MemSysStats,
    /// Register lifetime distributions (when collection was enabled).
    pub lifetimes: Option<LifetimeStats>,
    /// Pipeline trace of the first N instructions (when enabled).
    pub timeline: Option<crate::trace::Timeline>,
    /// Per-stage wall-time attribution (when
    /// [`crate::SimConfig::profile`] was enabled).
    pub profile: Option<StageProfile>,
}

impl SimResult {
    /// Machine checks over every hardware thread.
    pub fn machine_checks(&self) -> u64 {
        self.thread_machine_checks.iter().sum()
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Fraction of source operands supplied by the bypass network
    /// (the paper reports 57% for its machine).
    pub fn bypass_fraction(&self) -> Option<f64> {
        let total = self.operands_bypassed + self.operands_from_storage;
        if total == 0 {
            None
        } else {
            Some(self.operands_bypassed as f64 / total as f64)
        }
    }

    /// Register-cache misses per source operand — the Figure 8 metric
    /// ("miss rates are per operand, not instruction"): bypassed
    /// operands count in the denominator.
    pub fn miss_rate_per_operand(&self) -> Option<f64> {
        let total = self.operands_bypassed + self.operands_from_storage;
        let c = self.regcache.as_ref()?;
        if total == 0 {
            None
        } else {
            Some(c.read_misses as f64 / total as f64)
        }
    }

    /// Conditional branch misprediction rate.
    pub fn branch_mispredict_rate(&self) -> Option<f64> {
        if self.cond_branches == 0 {
            None
        } else {
            Some(self.branch_mispredicts as f64 / self.cond_branches as f64)
        }
    }

    /// Register-cache read bandwidth in accesses per cycle (Figure 9).
    pub fn cache_read_bw(&self) -> Option<f64> {
        self.regcache
            .as_ref()
            .map(|c| c.reads as f64 / self.cycles as f64)
    }

    /// Register-cache write bandwidth (initial writes + fills) per
    /// cycle (Figure 9).
    pub fn cache_write_bw(&self) -> Option<f64> {
        self.regcache
            .as_ref()
            .map(|c| (c.writes_inserted + c.fills) as f64 / self.cycles as f64)
    }

    /// Backing-file read bandwidth per cycle (Figure 9).
    pub fn file_read_bw(&self) -> Option<f64> {
        self.backing.map(|b| b.reads as f64 / self.cycles as f64)
    }

    /// Backing-file write bandwidth per cycle (Figure 9).
    pub fn file_write_bw(&self) -> Option<f64> {
        self.backing.map(|b| b.writes as f64 / self.cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_phases_saturate() {
        let mut c = LifetimeCollector::new(1);
        c.alloc(0, 10);
        c.write(0, 15);
        c.read(0, 20);
        c.free(0, 30);
        let s = c.finalize(40);
        assert_eq!(s.empty.median(), Some(5));
        assert_eq!(s.live.median(), Some(5));
        assert_eq!(s.dead.median(), Some(10));
    }

    #[test]
    fn concurrency_sweep_counts_overlap() {
        let mut c = LifetimeCollector::new(2);
        // Two values live during [10,20) and [15,25).
        for (p, start) in [(0, 10), (1, 15)] {
            c.alloc(p, start);
            c.write(p, start);
            c.read(p, start + 10);
            c.free(p, start + 10);
        }
        let s = c.finalize(30);
        // Cycles with 2 live: [15,20) = 5 cycles.
        let h = &s.live_concurrency;
        assert_eq!(h.count(), 30);
        let two = h.iter().find(|&(v, _)| v == 2).map(|(_, n)| n);
        assert_eq!(two, Some(5));
        // Cycles with 0 live: [0,10) and [25,30) = 15.
        let zero = h.iter().find(|&(v, _)| v == 0).map(|(_, n)| n);
        assert_eq!(zero, Some(15));
    }

    #[test]
    fn ipc_and_rates() {
        let r = SimResult {
            cycles: 100,
            retired: 250,
            thread_retired: vec![250],
            cond_branches: 10,
            branch_mispredicts: 1,
            operands_bypassed: 30,
            operands_from_storage: 10,
            ..SimResult::default()
        };
        assert_eq!(r.ipc(), 2.5);
        assert_eq!(r.branch_mispredict_rate(), Some(0.1));
        assert_eq!(r.cache_read_bw(), None);
        assert_eq!(r.bypass_fraction(), Some(0.75));
        assert_eq!(r.miss_rate_per_operand(), None);
    }
}
