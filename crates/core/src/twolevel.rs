use crate::PhysReg;
use std::collections::VecDeque;

/// Configuration of the two-level register file baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwoLevelConfig {
    /// L1 register file entries (the paper compares an N-entry cache
    /// against an N+32-entry L1).
    pub l1_entries: usize,
    /// Transfers begin when the free-register count drops below this
    /// threshold (avoids high recovery penalties; §2.1).
    pub free_threshold: usize,
    /// L1↔L2 transfer bandwidth in registers per cycle (the paper's
    /// optimistic version uses 4; the ablation drops it to 2).
    pub transfers_per_cycle: u32,
    /// L2 register file latency (only observed during recovery).
    pub l2_latency: u32,
}

impl TwoLevelConfig {
    /// The paper's optimistic configuration for a given L1 size.
    pub fn optimistic(l1_entries: usize) -> Self {
        Self {
            l1_entries,
            free_threshold: l1_entries / 4,
            transfers_per_cycle: 4,
            l2_latency: 2,
        }
    }
}

/// Statistics for the two-level register file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoLevelStats {
    /// Values transferred from L1 to L2.
    pub transfers: u64,
    /// Mis-speculation recovery events that required L2→L1 copies.
    pub recoveries: u64,
    /// Registers copied back during recoveries.
    pub recovered_regs: u64,
}

/// The optimistic two-level register file of Balasubramonian et al.,
/// with the paper's four modifications (§5.5): 4-regs/cycle L1↔L2
/// bandwidth, explicit recovery transfers, infinite L2, and a unified
/// int/FP file.
///
/// Values move from the L1 file to the L2 when (a) their architectural
/// register has been reassigned, (b) all renamed consumers have read
/// them, and (c) the free-register count is below a threshold. A
/// transfer moves only the value it was queued for, while it is still
/// queued under the same reassigner: a value freed, revived by a
/// squash of its reassigner, or copied back since stays in the L1.
/// Rename stalls when no L1 register is free (the caller checks
/// [`TwoLevelFile::free_count`] before it allocates). On a
/// mis-speculation, values moved while their reassigner was still
/// speculative must be copied back (modeled via the in-order
/// retirement boundary — see DESIGN.md for the substitution
/// rationale).
///
/// # Examples
///
/// ```
/// use ubrc_core::{PhysReg, TwoLevelConfig, TwoLevelFile};
///
/// let mut f = TwoLevelFile::new(TwoLevelConfig::optimistic(96), 512);
/// f.allocate(PhysReg(0));
/// assert_eq!(f.free_count(), 95);
/// ```
#[derive(Clone, Debug)]
pub struct TwoLevelFile {
    config: TwoLevelConfig,
    free: usize,
    /// Indexed by physical register.
    state: Vec<Slot>,
    /// Dead-eligible values awaiting transfer: (preg, reassigner seq).
    eligible: VecDeque<(PhysReg, u64)>,
    stats: TwoLevelStats,
}

/// Where a physical register's value is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// No value: the register is not allocated.
    Free,
    /// In an L1 register.
    L1,
    /// In an L1 register and queued for transfer: dead once this
    /// sequence number, its reassigner, retires.
    Queued(u64),
    /// Moved to the L2 while its reassigner, this sequence number, was
    /// in flight.
    L2(u64),
}

impl TwoLevelFile {
    /// Creates an empty file for a machine with `num_pregs` physical
    /// register names.
    pub fn new(config: TwoLevelConfig, num_pregs: usize) -> Self {
        Self {
            config,
            free: config.l1_entries,
            state: vec![Slot::Free; num_pregs],
            eligible: VecDeque::new(),
            stats: TwoLevelStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TwoLevelConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TwoLevelStats {
        &self.stats
    }

    /// Free L1 registers.
    pub fn free_count(&self) -> usize {
        self.free
    }

    /// Allocates an L1 register for the value renamed into `preg`.
    ///
    /// # Panics
    ///
    /// Panics when no L1 register is free: rename stalls on
    /// [`TwoLevelFile::free_count`] first.
    pub fn allocate(&mut self, preg: PhysReg) {
        assert!(self.free > 0, "no free L1 register");
        self.free -= 1;
        self.state[preg.0 as usize] = Slot::L1;
    }

    /// Marks a value transfer-eligible: its architectural register was
    /// reassigned by the instruction with sequence number
    /// `reassign_seq`, and every renamed consumer has read it. Only a
    /// value in the L1 is queued.
    pub fn mark_eligible(&mut self, preg: PhysReg, reassign_seq: u64) {
        let slot = &mut self.state[preg.0 as usize];
        if matches!(slot, Slot::L1 | Slot::Queued(_)) {
            *slot = Slot::Queued(reassign_seq);
            self.eligible.push_back((preg, reassign_seq));
        }
    }

    /// The value's reassigner was squashed, so its architectural name
    /// maps it again: a queued value is no longer dead-eligible and
    /// stays in the L1.
    pub fn cancel_transfer(&mut self, preg: PhysReg) {
        let slot = &mut self.state[preg.0 as usize];
        if let Slot::Queued(_) = slot {
            *slot = Slot::L1;
        }
    }

    /// One cycle of background transfer work: if the free count is
    /// below the threshold, pops up to `transfers_per_cycle` queue
    /// entries and moves each popped value still queued under the same
    /// reassigner to the L2. A stale entry uses its share of the
    /// bandwidth and moves nothing.
    pub fn tick(&mut self) {
        if self.free >= self.config.free_threshold {
            return;
        }
        for _ in 0..self.config.transfers_per_cycle {
            let Some((preg, seq)) = self.eligible.pop_front() else {
                break;
            };
            let slot = &mut self.state[preg.0 as usize];
            if *slot != Slot::Queued(seq) {
                continue; // freed, revived, copied back or queued again
            }
            *slot = Slot::L2(seq);
            self.free += 1;
            self.stats.transfers += 1;
        }
    }

    /// The value is now architecturally dead (its reassigner retired):
    /// release its storage entirely.
    pub fn release(&mut self, preg: PhysReg) {
        if self.is_resident(preg) {
            self.free += 1;
        }
        self.state[preg.0 as usize] = Slot::Free;
    }

    /// True when the value is in the L1 file (normal reads require
    /// this; only recovery ever touches the L2).
    pub fn is_resident(&self, preg: PhysReg) -> bool {
        matches!(self.state[preg.0 as usize], Slot::L1 | Slot::Queued(_))
    }

    /// Mis-speculation recovery: values moved to L2 while their
    /// reassigner was still speculative (sequence number greater than
    /// `retired_boundary`) must be copied back into the L1, where they
    /// stay: their reassigners were squashed. Returns the number of
    /// copies; the caller converts that to stall cycles at the
    /// configured bandwidth.
    pub fn on_mispredict(&mut self, retired_boundary: u64) -> usize {
        let mut count = 0;
        for slot in &mut self.state {
            if let Slot::L2(seq) = *slot {
                if seq > retired_boundary {
                    *slot = Slot::L1;
                    self.free = self.free.saturating_sub(1);
                    count += 1;
                }
            }
        }
        if count > 0 {
            self.stats.recoveries += 1;
            self.stats.recovered_regs += count as u64;
        }
        count
    }

    /// Extra rename-stall cycles a recovery of `count` registers costs
    /// beyond a pipeline refill of `refill_cycles` (transfers overlap
    /// the refill; §5.5 footnote).
    pub fn recovery_stall(&self, count: usize, refill_cycles: u64) -> u64 {
        let cycles = (count as u64).div_ceil(self.config.transfers_per_cycle as u64);
        cycles.saturating_sub(refill_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(l1: usize) -> TwoLevelFile {
        TwoLevelFile::new(
            TwoLevelConfig {
                l1_entries: l1,
                free_threshold: l1, // always transfer when possible
                transfers_per_cycle: 4,
                l2_latency: 2,
            },
            64,
        )
    }

    #[test]
    #[should_panic(expected = "no free L1 register")]
    fn allocating_past_the_l1_panics() {
        let mut f = file(2);
        f.allocate(PhysReg(0));
        f.allocate(PhysReg(1));
        assert_eq!(f.free_count(), 0);
        f.allocate(PhysReg(2));
    }

    #[test]
    fn transfer_frees_l1_slots() {
        let mut f = file(2);
        f.allocate(PhysReg(0));
        f.allocate(PhysReg(1));
        f.mark_eligible(PhysReg(0), 10);
        f.tick();
        assert_eq!(f.free_count(), 1);
        assert!(!f.is_resident(PhysReg(0)));
        assert!(f.is_resident(PhysReg(1)));
        assert_eq!(f.stats().transfers, 1);
        f.allocate(PhysReg(2));
    }

    #[test]
    fn threshold_gates_transfers() {
        let mut f = TwoLevelFile::new(
            TwoLevelConfig {
                l1_entries: 8,
                free_threshold: 2,
                transfers_per_cycle: 4,
                l2_latency: 2,
            },
            64,
        );
        for p in 0..4 {
            f.allocate(PhysReg(p));
        }
        // free = 4 >= threshold 2: no transfers happen.
        f.mark_eligible(PhysReg(0), 1);
        f.tick();
        assert_eq!(f.stats().transfers, 0);
        for p in 4..8 {
            f.allocate(PhysReg(p));
        }
        // free = 0 < 2: now it moves.
        f.tick();
        assert_eq!(f.stats().transfers, 1);
    }

    #[test]
    fn bandwidth_limits_transfers_per_tick() {
        let mut f = file(8);
        for p in 0..8 {
            f.allocate(PhysReg(p));
            f.mark_eligible(PhysReg(p), p as u64);
        }
        f.tick();
        assert_eq!(f.stats().transfers, 4);
        f.tick();
        assert_eq!(f.stats().transfers, 8);
    }

    #[test]
    fn release_of_resident_and_moved_values() {
        let mut f = file(2);
        f.allocate(PhysReg(0));
        f.allocate(PhysReg(1));
        f.mark_eligible(PhysReg(0), 5);
        f.tick(); // preg 0 moved to L2
        f.release(PhysReg(0)); // moved value: no L1 slot to free
        assert_eq!(f.free_count(), 1);
        f.release(PhysReg(1)); // resident value: slot freed
        assert_eq!(f.free_count(), 2);
    }

    #[test]
    fn mispredict_recovers_speculatively_moved_values() {
        let mut f = file(4);
        for p in 0..4 {
            f.allocate(PhysReg(p));
        }
        f.mark_eligible(PhysReg(0), 100); // reassigner not yet retired
        f.mark_eligible(PhysReg(1), 50); // reassigner retired (<= boundary)
        f.tick();
        assert_eq!(f.stats().transfers, 2);
        let recovered = f.on_mispredict(80);
        assert_eq!(recovered, 1);
        assert!(f.is_resident(PhysReg(0)));
        assert!(!f.is_resident(PhysReg(1)));
        assert_eq!(f.stats().recovered_regs, 1);
    }

    #[test]
    fn recovery_stall_overlaps_refill() {
        let f = file(4);
        // 10 regs at 4/cycle = 3 cycles; refill 15 covers it.
        assert_eq!(f.recovery_stall(10, 15), 0);
        // 100 regs = 25 cycles; 10 beyond the refill.
        assert_eq!(f.recovery_stall(100, 15), 10);
    }

    #[test]
    fn a_register_freed_and_reallocated_after_it_was_queued_stays() {
        let mut f = file(2);
        f.allocate(PhysReg(0));
        f.allocate(PhysReg(1));
        f.mark_eligible(PhysReg(0), 5);
        f.release(PhysReg(0));
        f.allocate(PhysReg(0)); // a new, live value
        f.tick();
        assert!(f.is_resident(PhysReg(0)));
        assert_eq!(f.stats().transfers, 0);
        assert_eq!(f.free_count(), 0);
    }

    #[test]
    fn a_copied_back_value_is_not_moved_again() {
        let mut f = file(4);
        f.allocate(PhysReg(0));
        f.allocate(PhysReg(1));
        f.mark_eligible(PhysReg(0), 100);
        f.tick();
        assert_eq!(f.on_mispredict(80), 1);
        f.tick();
        assert!(f.is_resident(PhysReg(0)));
        assert_eq!(f.stats().transfers, 1);
        assert_eq!(f.free_count(), 2);
    }

    #[test]
    fn a_queued_value_whose_reassigner_is_squashed_stays() {
        let mut f = file(4);
        f.allocate(PhysReg(0));
        f.allocate(PhysReg(1));
        f.mark_eligible(PhysReg(0), 100);
        f.cancel_transfer(PhysReg(0));
        f.tick();
        assert!(f.is_resident(PhysReg(0)));
        assert_eq!(f.stats().transfers, 0);
        // Reassigned again, by a later instruction: it moves.
        f.mark_eligible(PhysReg(0), 120);
        f.tick();
        assert!(!f.is_resident(PhysReg(0)));
        assert_eq!(f.stats().transfers, 1);
    }

    #[test]
    fn stale_eligible_entries_are_skipped() {
        let mut f = file(2);
        f.allocate(PhysReg(0));
        f.allocate(PhysReg(1));
        f.mark_eligible(PhysReg(0), 1);
        f.release(PhysReg(0)); // freed before the transfer happens
        f.tick();
        assert_eq!(f.stats().transfers, 0);
        assert_eq!(f.free_count(), 1);
    }
}
