//! Squashes: the wrong-path squash at a resolved misprediction and the
//! machine-check squash of soft-error recovery. Both unwind the
//! thread's window youngest first through one loop, which also restores
//! its rename map and drops the fetch→rename latch with the squashed
//! ROB entries; every other inter-stage latch holding the squashed work
//! is cleared here, and no other thread's state is touched.

use super::{CoreState, DynInst, Storage, ThreadId, NO_SRC, SCHED_ISSUED};

/// Cycles a machine-checked thread's front end stays quiesced before it
/// refetches: the pipeline drain and the restore from its retired state.
const MACHINE_CHECK_DRAIN: u64 = 10;

impl CoreState {
    /// Squashes everything in thread `tid` younger than its resolved
    /// mispredicted branch: ROB/window entries, renamed registers, LSQ
    /// entries, the fetch latch, and the speculative emulator state.
    pub(crate) fn squash_wrong_path(&mut self, tid: ThreadId, branch_seq: u64, now: u64) {
        let t = &self.threads[tid];
        let keep = t
            .rob()
            .position(|i| i.seq > branch_seq)
            .unwrap_or(t.renamed);
        debug_assert!(
            t.window.range(keep..).all(|i| i.wrong_path),
            "squashed a correct-path instruction"
        );
        self.result.wrong_path_squashed += (t.renamed - keep) as u64;
        self.unwind_rob(tid, keep, now);

        // Restore this thread's front end to the branch point.
        let t = &mut self.threads[tid];
        assert_eq!(
            t.wrong_path.take(),
            Some(branch_seq),
            "the squash resolves the wrong path fetch follows"
        );
        t.ghist = t.wp_ghist;
        std::mem::swap(&mut t.ras, &mut t.wp_ras);
        t.peeked = None;
        t.machine.abort_speculation();
        if t.waiting_on_branch.is_some_and(|w| w > branch_seq) {
            // An inner wrong-path misprediction was stalling fetch; it
            // no longer exists.
            t.waiting_on_branch = None;
        }
    }

    /// Machine-check squash (soft-error recovery): tears down thread
    /// `tid`'s *entire* speculative state — every in-flight instruction
    /// back to its last retirement — and restores the functional
    /// machine from the retired-state machine, so the thread refetches
    /// and replays from the instruction after its last retired one.
    /// Taken when a backing-file word (the architected copy, with no
    /// clean copy anywhere else) fails its parity check, and by the
    /// watchdog's one forced-recovery escalation. Only this thread's
    /// state is touched: SMT peers keep executing through the squash.
    pub(crate) fn machine_check_squash(&mut self, tid: ThreadId, now: u64) {
        self.unwind_rob(tid, 0, now);

        // Full front-end reset: the thread refetches from its retired
        // state, so every latched fetch/decode artifact is stale.
        let t = &mut self.threads[tid];
        t.peeked = None;
        t.halt_fetched = false;
        t.stream_done = false;
        t.waiting_on_branch = None;
        t.wrong_path = None;
        // Restoring the functional machine also discards any
        // speculation the old machine had entered. `clone_from` copies
        // only the pages the retired machine has mapped, into the
        // squashed machine's page buffers where it has them too.
        let retired = t
            .retired_machine
            .as_deref()
            .expect("protection builds the retired-state machine");
        t.machine.clone_from(retired);
        t.fetch_resume = now + MACHINE_CHECK_DRAIN;
        t.machine_checks += 1;
        t.recoveries += 1;
        t.last_recovery = Some(now);
        // Latency is booked at the first post-squash retirement; keep
        // the earliest pending squash if several stack up before one.
        t.recovery_pending_since.get_or_insert(now);
    }

    /// Unwinds thread `tid`'s window down to its first `keep` entries,
    /// which are renamed. Each squashed ROB entry, youngest first,
    /// leaves the issue window and the LSQ, frees its destination and
    /// puts its `prev` mapping back, so the rename map ends as it stood
    /// after the youngest kept instruction renamed; the unrenamed
    /// fetch→rename latch behind them goes too.
    fn unwind_rob(&mut self, tid: ThreadId, keep: usize, now: u64) {
        let t = &mut self.threads[tid];
        for (i, slot) in t.sched.range(keep..).enumerate() {
            // Slots refilled after the squash reuse the same absolute
            // positions, so no squashed slot may stay armed.
            t.armed.disarm(t.retired + (keep + i) as u64);
            if slot.wake != SCHED_ISSUED {
                self.window_count -= 1;
                // Issued instructions already consumed their reads. A
                // source's producer is older, so none is freed yet.
                if let Storage::TwoLevel { values, .. } = &mut self.storage {
                    for &p in slot.srcs.iter().filter(|&&p| p != NO_SRC) {
                        let v = &mut values[p as usize];
                        v.unread = v.unread.saturating_sub(1);
                    }
                }
            }
        }
        t.sched.truncate(keep);
        for i in (keep..t.renamed).rev() {
            let DynInst {
                seq,
                inst,
                mem_addr,
                dest,
                prev,
                ..
            } = self.threads[tid].window[i];
            if self.config.model_store_forwarding && inst.is_store() {
                let granule = mem_addr.expect("store has an address") / 8;
                let granules = &mut self.threads[tid].store_granules;
                if let Some(stores) = granules.get_mut(&granule) {
                    stores.retain(|&(sseq, _)| sseq != seq);
                    if stores.is_empty() {
                        granules.remove(&granule);
                    }
                }
            }
            if let (Some(r), Some(prev)) = (inst.dest(), prev) {
                // The architectural name reverts to the old value: every
                // younger writer of `r` is already unwound.
                self.threads[tid].map[r.index() as usize] = prev;
                if let Storage::TwoLevel { values, .. } = &mut self.storage {
                    values[prev as usize].reassigned = None;
                }
            }
            self.free_reg(dest, prev, false, now);
        }
        let t = &mut self.threads[tid];
        t.window.truncate(keep);
        t.renamed = keep;
        if let Some(o) = t.oracle.as_mut() {
            o.records.truncate(keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::Simulator;
    use ubrc_workloads::{workload_by_name, Scale};

    /// After any cycle on which the core is back on the correct path,
    /// no wrong-path state survives in any latch: the window's
    /// unrenamed fetch→rename latch holds only correct-path entries,
    /// its renamed ROB prefix no wrong-path instructions.
    #[test]
    fn squash_clears_wrong_path_state_from_every_latch() {
        let w = workload_by_name("bfs", Scale::Tiny).unwrap();
        let mut sim =
            Simulator::try_new_smt(vec![w.assemble().unwrap()], SimConfig::paper_default())
                .unwrap();
        let mut last_squashed = 0;
        let mut squash_cycles = 0;
        while !sim.core.halted() && sim.core.now < 200_000 {
            sim.core.cycle();
            if sim.core.result.wrong_path_squashed > last_squashed {
                last_squashed = sim.core.result.wrong_path_squashed;
                squash_cycles += 1;
            }
            let t = &sim.core.threads[0];
            if t.wrong_path.is_none() {
                assert!(
                    t.window.range(t.renamed..).all(|e| !e.wrong_path),
                    "wrong-path entry left in the fetch latch after squash"
                );
                assert!(
                    t.rob().all(|i| !i.wrong_path),
                    "wrong-path instruction left in the ROB after squash"
                );
            }
        }
        assert!(sim.core.halted(), "bfs should run to completion");
        assert!(squash_cycles > 0, "bfs must mispredict at least once");
    }
}
