//! Shadow-tag utility monitors and the lookahead partitioner behind
//! the dynamic [`CachePartition`](crate::CachePartition)s.
//!
//! The design follows Qureshi & Patt's utility-based cache partitioning
//! (UCP): each SMT thread owns a small *utility monitor* (UMON) — an
//! LRU stack of shadow tags, fed only by a sampled subset of cache sets
//! — whose per-depth hit counters estimate how many extra hits the
//! thread would harvest from each additional cache entry. At every
//! epoch boundary a deterministic *lookahead* partitioner converts the
//! monitored marginal-utility curves into per-thread occupancy quotas
//! (or way counts) that always sum to the cache's total entry count (or
//! associativity).
//!
//! # Sampling geometry
//!
//! One in every [`SAMPLE_PERIOD`] sets feeds the monitors (set index
//! `s` is sampled when `s % SAMPLE_PERIOD == 0`). Because decoupled
//! indexing spreads values across sets round-robin, the sampled sets
//! see a representative slice of each thread's reuse. A shadow stack
//! of depth `d` fed by `1/SAMPLE_PERIOD` of the sets therefore models
//! a full-cache allocation of `d × SAMPLE_PERIOD` entries: the utility
//! of a quota of `c` entries is the prefix sum of the hit counters
//! down to stack depth `c / SAMPLE_PERIOD`.
//!
//! Everything here is integer arithmetic on deterministic inputs — no
//! RNG, no floating point — so dynamic repartitioning preserves the
//! simulator's bit-reproducibility guarantees.

use crate::PhysReg;

/// Set-sampling period of the monitors: one in this many cache sets
/// feeds the shadow stacks.
pub const SAMPLE_PERIOD: usize = 2;

/// One thread's shadow-tag LRU stack and per-depth hit counters.
#[derive(Clone, Debug)]
struct ThreadMonitor {
    /// Shadow tags, most-recently-used first. Holds physical-register
    /// tags only — no data, no timing state.
    stack: Vec<u16>,
    /// `hits[d]` counts probes that found their tag at stack depth `d`.
    hits: Vec<u64>,
}

/// Per-thread utility monitors for one register cache.
///
/// The cache feeds the monitors from its read/write/free paths (sampled
/// sets only); [`UtilityMonitor::repartition_ways`] turns the
/// accumulated counters into the next epoch's per-thread quotas or way
/// counts.
#[derive(Clone, Debug)]
pub struct UtilityMonitor {
    depth: usize,
    threads: Vec<ThreadMonitor>,
}

impl UtilityMonitor {
    /// Creates monitors for `nthreads` threads over a cache of
    /// `entries` total entries. Stack depth is `entries /
    /// SAMPLE_PERIOD` (at least 1): deep enough to score a quota of the
    /// whole cache.
    pub fn new(entries: usize, nthreads: usize) -> Self {
        let depth = (entries / SAMPLE_PERIOD).max(1);
        Self {
            depth,
            threads: vec![
                ThreadMonitor {
                    stack: Vec::with_capacity(depth),
                    hits: vec![0; depth],
                };
                nthreads
            ],
        }
    }

    /// True when set `s` (already reduced modulo the set count) feeds
    /// the monitors.
    pub fn sampled(set: usize) -> bool {
        set.is_multiple_of(SAMPLE_PERIOD)
    }

    /// Records a read probe by `tid` for `preg` in sampled set `set`.
    /// A stack hit at depth `d` bumps `hits[d]`; hit or miss, the tag
    /// moves to the top of the stack.
    pub fn access(&mut self, tid: usize, preg: PhysReg, set: usize) {
        if !Self::sampled(set) {
            return;
        }
        let m = &mut self.threads[tid];
        if let Some(d) = m.stack.iter().position(|&t| t == preg.0) {
            m.hits[d] += 1;
            m.stack.remove(d);
        } else if m.stack.len() == self.depth {
            m.stack.pop();
        }
        m.stack.insert(0, preg.0);
    }

    /// Records a value installation (initial write or fill) by `tid`
    /// for `preg` in sampled set `set`: the tag moves to the top of the
    /// stack without counting a hit.
    pub fn touch(&mut self, tid: usize, preg: PhysReg, set: usize) {
        if !Self::sampled(set) {
            return;
        }
        let m = &mut self.threads[tid];
        if let Some(d) = m.stack.iter().position(|&t| t == preg.0) {
            m.stack.remove(d);
        } else if m.stack.len() == self.depth {
            m.stack.pop();
        }
        m.stack.insert(0, preg.0);
    }

    /// Drops `preg` from `tid`'s shadow stack. Called when the physical
    /// register is freed (including by squash recovery): the tag may be
    /// re-allocated to an unrelated value, so a stale shadow hit would
    /// overstate utility.
    pub fn remove(&mut self, tid: usize, preg: PhysReg) {
        let m = &mut self.threads[tid];
        if let Some(d) = m.stack.iter().position(|&t| t == preg.0) {
            m.stack.remove(d);
        }
    }

    /// Monitored hits a quota of `cap` entries would have served for
    /// `tid` this epoch: the prefix sum of the hit counters down to
    /// stack depth `cap / SAMPLE_PERIOD`.
    pub fn utility(&self, tid: usize, cap: usize) -> u64 {
        let d = (cap / SAMPLE_PERIOD).min(self.depth);
        self.threads[tid].hits[..d].iter().sum()
    }

    /// Ages the hit counters (halving) so the utility curves track
    /// phase changes instead of the whole history.
    pub fn decay(&mut self) {
        for m in &mut self.threads {
            for h in &mut m.hits {
                *h >>= 1;
            }
        }
    }

    /// The lookahead partitioner (UCP §4): splits `total` units into
    /// per-thread counts maximizing monitored utility, where a unit is
    /// worth `entries_per_unit` entries. [`CachePartition::DynamicCap`]
    /// splits entries (one entry per unit);
    /// [`CachePartition::DynamicWay`] splits ways (a way is worth the
    /// set count — owning a way means owning it in every set).
    ///
    /// Each thread starts at its floor from `floors` (the caller
    /// guarantees `floors` sums to at most `total`). The remaining
    /// budget is handed out greedily by *marginal utility per unit*:
    /// each round scans every `(thread, block size)` pair and grants
    /// the block with the highest utility gain per unit — the
    /// lookahead over block sizes is what lets a thread with a utility
    /// "cliff" several units away still win it. Ties favor the
    /// lower-numbered thread and the smaller block, so the result is a
    /// pure function of the counters. Budget no curve wants is spread
    /// round-robin; the returned counts always sum to exactly `total`.
    ///
    /// [`CachePartition::DynamicCap`]: crate::CachePartition::DynamicCap
    /// [`CachePartition::DynamicWay`]: crate::CachePartition::DynamicWay
    pub fn repartition_ways(
        &self,
        total: usize,
        entries_per_unit: usize,
        floors: &[usize],
    ) -> Vec<usize> {
        let n = floors.len();
        let mut counts = floors.to_vec();
        let mut budget = total - counts.iter().sum::<usize>().min(total);
        while budget > 0 {
            // (gain, block, tid) of the best marginal-utility step.
            let mut best: Option<(u64, usize, usize)> = None;
            for (tid, &units) in counts.iter().enumerate() {
                let base = self.utility(tid, units * entries_per_unit);
                for k in 1..=budget {
                    let gain = self.utility(tid, (units + k) * entries_per_unit) - base;
                    let better = match best {
                        None => gain > 0,
                        // Strictly higher rate wins: gain/k > bg/bk.
                        Some((bg, bk, _)) => (gain as u128) * bk as u128 > (bg as u128) * k as u128,
                    };
                    if better {
                        best = Some((gain, k, tid));
                    }
                }
            }
            match best {
                Some((_, k, tid)) => {
                    counts[tid] += k;
                    budget -= k;
                }
                None => break, // flat curves: nobody profits further
            }
        }
        // Left-over budget (flat utility everywhere) is spread evenly
        // so the counts still account for every unit.
        let mut t = 0;
        while budget > 0 {
            counts[t % n] += 1;
            budget -= 1;
            t += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_hits_count_by_depth_and_scale_to_entries() {
        let mut m = UtilityMonitor::new(8, 1); // depth 4
                                               // Touch p1 then p2 into the stack (sampled set 0).
        m.touch(0, PhysReg(1), 0);
        m.touch(0, PhysReg(2), 0);
        // p1 now sits at depth 1: reading it is a depth-1 hit, i.e.
        // utility only appears once the quota covers 2*SAMPLE_PERIOD
        // entries.
        m.access(0, PhysReg(1), 0);
        assert_eq!(m.utility(0, SAMPLE_PERIOD), 0);
        assert_eq!(m.utility(0, 2 * SAMPLE_PERIOD), 1);
        // Unsampled sets contribute nothing.
        m.access(0, PhysReg(1), 1);
        assert_eq!(m.utility(0, 8), 1);
    }

    #[test]
    fn remove_forgets_a_tag() {
        let mut m = UtilityMonitor::new(8, 1);
        m.touch(0, PhysReg(1), 0);
        m.remove(0, PhysReg(1));
        m.access(0, PhysReg(1), 0); // miss: no utility anywhere
        assert_eq!(m.utility(0, 8), 0);
    }

    #[test]
    fn repartition_favors_the_thread_with_reuse() {
        let mut m = UtilityMonitor::new(16, 2);
        // Thread 0 re-reads 4 hot values (depth-0..3 hits); thread 1
        // streams without reuse.
        for round in 0..3 {
            for p in 0..4u16 {
                if round == 0 {
                    m.touch(0, PhysReg(p), 0);
                } else {
                    m.access(0, PhysReg(p), 0);
                }
            }
        }
        for p in 100..120u16 {
            m.touch(1, PhysReg(p), 0);
        }
        let caps = m.repartition_ways(16, 1, &[2, 2]);
        assert_eq!(caps.iter().sum::<usize>(), 16);
        assert!(caps[0] > caps[1], "reuse thread must win entries: {caps:?}");
    }

    #[test]
    fn repartition_is_deterministic_and_conserves_total() {
        let mut m = UtilityMonitor::new(16, 4);
        for p in 0..6u16 {
            m.touch(0, PhysReg(p), 0);
            m.access(0, PhysReg(p), 0);
        }
        let a = m.repartition_ways(16, 1, &[1, 1, 1, 1]);
        let b = m.repartition_ways(16, 1, &[1, 1, 1, 1]);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<usize>(), 16);
        assert!(a.iter().all(|&c| c >= 1));
    }

    #[test]
    fn flat_curves_spread_the_budget_evenly() {
        let m = UtilityMonitor::new(16, 4);
        let caps = m.repartition_ways(16, 1, &[1, 1, 1, 1]);
        assert_eq!(caps, vec![4, 4, 4, 4]);
    }

    #[test]
    fn repartition_ways_favors_the_thread_with_reuse() {
        // 16-entry 8-way cache: 2 sets, so one way is worth 2 entries.
        let mut m = UtilityMonitor::new(16, 2);
        for round in 0..3 {
            for p in 0..4u16 {
                if round == 0 {
                    m.touch(0, PhysReg(p), 0);
                } else {
                    m.access(0, PhysReg(p), 0);
                }
            }
        }
        for p in 100..120u16 {
            m.touch(1, PhysReg(p), 0);
        }
        let counts = m.repartition_ways(8, 2, &[1, 1]);
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(
            counts[0] > counts[1],
            "reuse thread must win ways: {counts:?}"
        );
        // Way granularity is coarser than entry granularity, but the
        // deterministic contract is the same.
        assert_eq!(counts, m.repartition_ways(8, 2, &[1, 1]));
    }

    #[test]
    fn repartition_ways_spreads_flat_curves_evenly() {
        let m = UtilityMonitor::new(16, 4);
        assert_eq!(m.repartition_ways(8, 2, &[1, 1, 1, 1]), vec![2, 2, 2, 2]);
    }

    #[test]
    fn decay_halves_counters() {
        let mut m = UtilityMonitor::new(4, 1);
        m.touch(0, PhysReg(1), 0);
        for _ in 0..4 {
            m.access(0, PhysReg(1), 0);
        }
        assert_eq!(m.utility(0, 4), 4);
        m.decay();
        assert_eq!(m.utility(0, 4), 2);
    }
}
