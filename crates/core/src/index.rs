use crate::PhysReg;

/// How register-cache set indices are chosen for new values (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexPolicy {
    /// Standard indexing: low-order bits of the physical register tag.
    /// The only option that is *not* decoupled.
    Standard,
    /// Decoupled: sets assigned sequentially as instructions rename.
    RoundRobin,
    /// Decoupled: the set with the minimum sum of predicted uses among
    /// values currently assigned to it.
    Minimum,
    /// Decoupled: round-robin, but sets holding more than
    /// `associativity/2` high-use (predicted degree > 5) values are
    /// skipped.
    FilteredRoundRobin,
    /// Decoupled: the least-subscribed set — the one with the fewest
    /// values currently assigned to it, regardless of their predicted
    /// degrees. Where [`IndexPolicy::Minimum`] balances predicted
    /// *work*, min-load balances raw *population*, so a burst of
    /// unknown-degree values cannot crowd one set.
    MinLoad,
}

/// Rename-time set assignment for decoupled indexing.
///
/// One assigner instance lives beside the rename map. At rename, the
/// destination's cache set is chosen by [`IndexAssigner::assign`] and
/// recorded in the map alongside the physical register; when the
/// physical register is freed, [`IndexAssigner::release`] retires the
/// assignment so the policies' bookkeeping stays balanced.
///
/// That bookkeeping is one per-set `load`: each live assignment adds a
/// weight that depends on the policy — its predicted uses under
/// minimum, one under min-load, one per high-use value under filtered
/// round-robin, and nothing under standard and round-robin indexing,
/// which never read it.
///
/// # Examples
///
/// ```
/// use ubrc_core::{IndexAssigner, IndexPolicy, PhysReg};
///
/// let mut a = IndexAssigner::new(IndexPolicy::RoundRobin, 32, 2);
/// let s0 = a.assign(PhysReg(100), 1);
/// let s1 = a.assign(PhysReg(101), 1);
/// assert_eq!((s0, s1), (0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct IndexAssigner {
    policy: IndexPolicy,
    sets: usize,
    cursor: usize,
    /// Per set, the summed [`IndexAssigner::weight`] of its live
    /// assignments.
    load: Vec<u64>,
    /// Filtered round-robin: predicted degree above which a value is
    /// "high-use".
    high_use_degree: u8,
    /// Filtered round-robin: sets with more high-use values than this
    /// are skipped.
    skip_above: u64,
}

/// Predicted degree above which a value counts as "high-use" for the
/// filtered round-robin policy (the paper found > 5 works well).
pub const HIGH_USE_THRESHOLD: u8 = 5;

impl IndexAssigner {
    /// Creates an assigner for a cache with `sets` sets of `ways`
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(policy: IndexPolicy, sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "sets must be positive");
        assert!(ways > 0, "ways must be positive");
        Self {
            policy,
            sets,
            cursor: 0,
            load: vec![0; sets],
            high_use_degree: HIGH_USE_THRESHOLD,
            skip_above: (ways / 2) as u64,
        }
    }

    /// Overrides the filtered round-robin parameters (the paper's
    /// defaults are high-use degree > 5 and a skip threshold of half
    /// the associativity). Used by the ablation experiments.
    pub fn set_filter_params(&mut self, high_use_degree: u8, skip_above: u32) {
        self.high_use_degree = high_use_degree;
        self.skip_above = u64::from(skip_above);
    }

    /// The policy in use.
    pub fn policy(&self) -> IndexPolicy {
        self.policy
    }

    /// What one assignment of a value with `predicted_uses` predicted
    /// consumers adds to its set's load under the configured policy.
    fn weight(&self, predicted_uses: u8) -> u64 {
        match self.policy {
            IndexPolicy::Standard | IndexPolicy::RoundRobin => 0,
            IndexPolicy::Minimum => u64::from(predicted_uses),
            IndexPolicy::MinLoad => 1,
            IndexPolicy::FilteredRoundRobin => u64::from(predicted_uses > self.high_use_degree),
        }
    }

    /// Chooses the cache set for a value produced into `preg` with
    /// `predicted_uses` predicted consumers. Called once per renamed
    /// destination.
    pub fn assign(&mut self, preg: PhysReg, predicted_uses: u8) -> u16 {
        let set = match self.policy {
            IndexPolicy::Standard => preg.0 as usize % self.sets,
            IndexPolicy::RoundRobin => {
                let s = self.cursor;
                self.cursor = (self.cursor + 1) % self.sets;
                s
            }
            IndexPolicy::Minimum | IndexPolicy::MinLoad => {
                // The least-loaded set, scanning from a rotating start
                // so ties do not cluster consecutive values into the
                // lowest-numbered set.
                let start = self.cursor;
                let mut best = start;
                for k in 0..self.sets {
                    let s = (start + k) % self.sets;
                    if self.load[s] < self.load[best] {
                        best = s;
                    }
                }
                self.cursor = (start + 1) % self.sets;
                best
            }
            IndexPolicy::FilteredRoundRobin => {
                let mut s = self.cursor;
                let mut picked = None;
                for _ in 0..self.sets {
                    if self.load[s] <= self.skip_above {
                        picked = Some(s);
                        break;
                    }
                    s = (s + 1) % self.sets;
                }
                // All sets saturated with high-use values: fall back to
                // the plain round-robin position.
                let s = picked.unwrap_or(self.cursor);
                self.cursor = (s + 1) % self.sets;
                s
            }
        };
        self.load[set] += self.weight(predicted_uses);
        set as u16
    }

    /// Retires an assignment when its physical register is freed.
    /// `predicted_uses` must be the value passed to the matching
    /// [`IndexAssigner::assign`].
    pub fn release(&mut self, set: u16, predicted_uses: u8) {
        let set = set as usize % self.sets;
        self.load[set] = self.load[set].saturating_sub(self.weight(predicted_uses));
    }

    /// Number of sets being assigned over.
    pub fn sets(&self) -> usize {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_indexing_uses_preg_low_bits() {
        let mut a = IndexAssigner::new(IndexPolicy::Standard, 32, 2);
        assert_eq!(a.assign(PhysReg(5), 1), 5);
        assert_eq!(a.assign(PhysReg(37), 1), 5);
        assert_eq!(a.assign(PhysReg(64), 1), 0);
    }

    #[test]
    fn round_robin_cycles_through_sets() {
        let mut a = IndexAssigner::new(IndexPolicy::RoundRobin, 4, 2);
        let sets: Vec<u16> = (0..6).map(|i| a.assign(PhysReg(i), 1)).collect();
        assert_eq!(sets, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn minimum_picks_least_loaded_set() {
        let mut a = IndexAssigner::new(IndexPolicy::Minimum, 2, 2);
        assert_eq!(a.assign(PhysReg(0), 5), 0); // sums [5, 0]
        assert_eq!(a.assign(PhysReg(1), 1), 1); // sums [5, 1]
        assert_eq!(a.assign(PhysReg(2), 1), 1); // sums [5, 2]
        assert_eq!(a.assign(PhysReg(3), 9), 1); // sums [5, 11]
        assert_eq!(a.assign(PhysReg(4), 1), 0);
    }

    #[test]
    fn minimum_release_rebalances() {
        let mut a = IndexAssigner::new(IndexPolicy::Minimum, 2, 2);
        let s = a.assign(PhysReg(0), 7); // sums [7, 0]
        assert_eq!(s, 0);
        assert_eq!(a.assign(PhysReg(1), 1), 1); // sums [7, 1]
        a.release(0, 7); // sums [0, 1]
        assert_eq!(a.assign(PhysReg(2), 1), 0);
    }

    #[test]
    fn filtered_round_robin_skips_high_use_sets() {
        // 2-way cache -> threshold = 1 high-use value per set.
        let mut a = IndexAssigner::new(IndexPolicy::FilteredRoundRobin, 3, 2);
        // Two high-use values land in set 0 (count 2 > threshold 1).
        assert_eq!(a.assign(PhysReg(0), 7), 0);
        assert_eq!(a.assign(PhysReg(1), 7), 1);
        assert_eq!(a.assign(PhysReg(2), 7), 2);
        assert_eq!(a.assign(PhysReg(3), 7), 0); // counts now [2,1,1]
                                                // Set 0 exceeds the threshold; round-robin cursor (1) is fine.
        assert_eq!(a.assign(PhysReg(4), 1), 1);
        assert_eq!(a.assign(PhysReg(5), 1), 2);
        // Cursor wraps to 0, which is saturated -> skipped to 1.
        assert_eq!(a.assign(PhysReg(6), 1), 1);
    }

    #[test]
    fn filtered_round_robin_falls_back_when_all_sets_saturated() {
        let mut a = IndexAssigner::new(IndexPolicy::FilteredRoundRobin, 2, 2);
        for i in 0..4 {
            a.assign(PhysReg(i), 7);
        }
        // Both sets now hold 2 high-use values (> threshold 1); the
        // assigner must still produce a set.
        let s = a.assign(PhysReg(9), 7);
        assert!(s < 2);
    }

    #[test]
    fn filtered_release_unskips_sets() {
        let mut a = IndexAssigner::new(IndexPolicy::FilteredRoundRobin, 2, 2);
        assert_eq!(a.assign(PhysReg(0), 7), 0);
        assert_eq!(a.assign(PhysReg(1), 7), 1);
        assert_eq!(a.assign(PhysReg(2), 7), 0); // set 0 count 2 (saturated)
        assert_eq!(a.assign(PhysReg(3), 7), 1); // set 1 count 2 (saturated)
        a.release(0, 7);
        a.release(0, 7); // set 0 count back to 0
        let s = a.assign(PhysReg(4), 1);
        assert_eq!(s, 0);
    }

    #[test]
    fn low_use_values_do_not_count_toward_filtering() {
        let mut a = IndexAssigner::new(IndexPolicy::FilteredRoundRobin, 2, 2);
        for i in 0..10 {
            // Degree 5 is NOT high-use (threshold is > 5).
            a.assign(PhysReg(i), 5);
        }
        assert_eq!(a.load, vec![0, 0]);
    }

    #[test]
    fn min_load_picks_least_subscribed_set() {
        let mut a = IndexAssigner::new(IndexPolicy::MinLoad, 2, 2);
        // Predicted degrees are irrelevant: only population counts.
        assert_eq!(a.assign(PhysReg(0), 9), 0); // occupancy [1, 0]
        assert_eq!(a.assign(PhysReg(1), 9), 1); // occupancy [1, 1]
        assert_eq!(a.assign(PhysReg(2), 1), 0); // tie -> rotating start
        assert_eq!(a.assign(PhysReg(3), 1), 1); // occupancy [2, 2]
        assert_eq!(a.assign(PhysReg(4), 1), 0);
    }

    #[test]
    fn min_load_release_rebalances() {
        let mut a = IndexAssigner::new(IndexPolicy::MinLoad, 2, 2);
        assert_eq!(a.assign(PhysReg(0), 1), 0); // occupancy [1, 0]
        assert_eq!(a.assign(PhysReg(1), 1), 1); // occupancy [1, 1]
        a.release(0, 1); // occupancy [0, 1]
        assert_eq!(a.assign(PhysReg(2), 1), 0);
        // After releasing every assignment the counts return to zero.
        a.release(0, 1);
        a.release(1, 1);
        assert_eq!(a.load, vec![0, 0]);
    }

    /// The assigner's bookkeeping before it kept one load per set, as
    /// it was: three per-set tallies updated on every assignment and
    /// release, and each policy's choice over the one it reads.
    struct ThreeTallies {
        policy: IndexPolicy,
        sets: usize,
        cursor: usize,
        use_sums: Vec<u64>,
        occupancy: Vec<u32>,
        high_use_counts: Vec<u32>,
        high_use_degree: u8,
        skip_above: u32,
    }

    impl ThreeTallies {
        fn new(policy: IndexPolicy, sets: usize, ways: usize) -> Self {
            Self {
                policy,
                sets,
                cursor: 0,
                use_sums: vec![0; sets],
                occupancy: vec![0; sets],
                high_use_counts: vec![0; sets],
                high_use_degree: HIGH_USE_THRESHOLD,
                skip_above: (ways / 2) as u32,
            }
        }

        fn assign(&mut self, preg: PhysReg, predicted_uses: u8) -> u16 {
            let set = match self.policy {
                IndexPolicy::Standard => preg.0 as usize % self.sets,
                IndexPolicy::RoundRobin => {
                    let s = self.cursor;
                    self.cursor = (self.cursor + 1) % self.sets;
                    s
                }
                IndexPolicy::Minimum => {
                    let start = self.cursor;
                    let mut best = start;
                    for k in 0..self.sets {
                        let s = (start + k) % self.sets;
                        if self.use_sums[s] < self.use_sums[best] {
                            best = s;
                        }
                    }
                    self.cursor = (start + 1) % self.sets;
                    best
                }
                IndexPolicy::FilteredRoundRobin => {
                    let threshold = self.skip_above;
                    let mut s = self.cursor;
                    let mut picked = None;
                    for _ in 0..self.sets {
                        if self.high_use_counts[s] <= threshold {
                            picked = Some(s);
                            break;
                        }
                        s = (s + 1) % self.sets;
                    }
                    let s = picked.unwrap_or(self.cursor);
                    self.cursor = (s + 1) % self.sets;
                    s
                }
                IndexPolicy::MinLoad => {
                    let start = self.cursor;
                    let mut best = start;
                    for k in 0..self.sets {
                        let s = (start + k) % self.sets;
                        if self.occupancy[s] < self.occupancy[best] {
                            best = s;
                        }
                    }
                    self.cursor = (start + 1) % self.sets;
                    best
                }
            };
            self.use_sums[set] += predicted_uses as u64;
            self.occupancy[set] += 1;
            if predicted_uses > self.high_use_degree {
                self.high_use_counts[set] += 1;
            }
            set as u16
        }

        fn release(&mut self, set: u16, predicted_uses: u8) {
            let set = set as usize % self.sets;
            self.use_sums[set] = self.use_sums[set].saturating_sub(predicted_uses as u64);
            self.occupancy[set] = self.occupancy[set].saturating_sub(1);
            if predicted_uses > self.high_use_degree {
                self.high_use_counts[set] = self.high_use_counts[set].saturating_sub(1);
            }
        }
    }

    /// Seeded random streams of assignments and out-of-order releases,
    /// with varied geometries and filter parameters: for every policy
    /// the one per-set load chooses exactly the sets the three tallies
    /// chose, and returns to zero once every assignment is released.
    #[test]
    fn one_load_chooses_as_the_three_tallies_did() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let policies = [
            IndexPolicy::Standard,
            IndexPolicy::RoundRobin,
            IndexPolicy::Minimum,
            IndexPolicy::FilteredRoundRobin,
            IndexPolicy::MinLoad,
        ];
        for policy in policies {
            for seed in 0..24u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let sets = [1, 2, 3, 8, 32][rng.random_range(0..5usize)];
                let ways = [1, 2, 4, 8][rng.random_range(0..4usize)];
                let mut a = IndexAssigner::new(policy, sets, ways);
                let mut b = ThreeTallies::new(policy, sets, ways);
                if seed % 2 == 1 {
                    let degree = rng.random_range(0..12u8);
                    let skip = rng.random_range(0..5u32);
                    a.set_filter_params(degree, skip);
                    (b.high_use_degree, b.skip_above) = (degree, skip);
                }
                let mut live: Vec<(u16, u8)> = Vec::new();
                for step in 0..3000 {
                    // Grow the live set early on, then hover around it.
                    if live.is_empty() || rng.random_range(0..100u32) < 55 {
                        let preg = PhysReg(rng.random_range(0..512u16));
                        let uses = if rng.random_bool(0.05) {
                            u8::MAX
                        } else {
                            rng.random_range(0..16u8)
                        };
                        let set = a.assign(preg, uses);
                        assert_eq!(
                            set,
                            b.assign(preg, uses),
                            "{policy:?} seed {seed} step {step}: sets differ"
                        );
                        live.push((set, uses));
                    } else {
                        let (set, uses) = live.swap_remove(rng.random_range(0..live.len()));
                        a.release(set, uses);
                        b.release(set, uses);
                    }
                }
                while !live.is_empty() {
                    let (set, uses) = live.swap_remove(rng.random_range(0..live.len()));
                    a.release(set, uses);
                    b.release(set, uses);
                }
                assert!(
                    a.load.iter().all(|&l| l == 0),
                    "{policy:?} seed {seed}: load left after every release: {:?}",
                    a.load
                );
            }
        }
    }

    #[test]
    fn release_saturates_at_zero() {
        let mut a = IndexAssigner::new(IndexPolicy::Minimum, 2, 2);
        a.release(0, 9); // never assigned; must not underflow
        assert_eq!(a.load[0], 0);
    }
}
