//! Wrong-path squash: tears down everything younger than a resolved
//! mispredicted branch and restores that thread's front-end
//! checkpoints. Every inter-stage latch holding the thread's wrong-path
//! work is cleared here; the other thread's state is never touched.

use super::{CoreState, PregInfo, PregTime, Status, Storage, ThreadId};
use ubrc_core::PhysReg;

impl CoreState {
    /// Squashes everything in thread `tid` younger than its resolved
    /// mispredicted branch: ROB/window entries, renamed registers, LSQ
    /// entries, the fetch latch, and the speculative emulator state.
    pub(crate) fn squash_wrong_path(&mut self, tid: ThreadId, branch_seq: u64, now: u64) {
        let keep = self.threads[tid]
            .rob
            .iter()
            .position(|i| i.seq > branch_seq)
            .unwrap_or(self.threads[tid].rob.len());
        let mut removed = std::mem::take(&mut self.squash_buf);
        removed.clear();
        removed.extend(self.threads[tid].rob.drain(keep..));
        self.threads[tid].sched.truncate(keep);
        // Purge truncated positions eagerly: slots refilled after the
        // squash reuse the same absolute positions, so a stale `timed`
        // entry would alias a new instruction.
        let cut = self.threads[tid].sched_base + keep as u64;
        self.threads[tid].timed.retain(|&pos| pos < cut);
        for inst in removed.iter().rev() {
            debug_assert!(inst.wrong_path, "squashed a correct-path instruction");
            debug_assert_eq!(inst.tid, tid, "squashed another thread's instruction");
            self.wp_squashed += 1;
            if inst.status == Status::Waiting {
                self.window_count -= 1;
                // Issued instructions already consumed their reads.
                for p in inst.srcs.iter().flatten() {
                    let info = &mut self.preg_info[*p as usize];
                    if info.active {
                        info.consumers_outstanding = info.consumers_outstanding.saturating_sub(1);
                    }
                }
            }
            if self.config.model_store_forwarding && inst.rec.inst.is_store() {
                let granule = inst.rec.mem_addr.expect("store has an address") / 8;
                if let Some(stores) = self.threads[tid].store_granules.get_mut(&granule) {
                    stores.retain(|&(sseq, _)| sseq != inst.seq);
                    if stores.is_empty() {
                        self.threads[tid].store_granules.remove(&granule);
                    }
                }
            }
            if let Some(d) = inst.dest {
                if let Storage::Cached { assigner, .. } = &mut self.storage {
                    let info = &self.preg_info[d as usize];
                    assigner.release(info.set, info.predicted);
                }
                self.squash_free_preg(d, now);
                if let Some(prev) = inst.prev {
                    // The architectural name reverts to the old value.
                    let pi = &mut self.preg_info[prev as usize];
                    if pi.active {
                        pi.reassigned_seq = None;
                    }
                }
            }
        }
        self.squash_buf = removed;

        // Restore this thread's front end to the branch point. The map
        // swaps with its persistent checkpoint buffer (no allocation;
        // the stale wrong-path map is overwritten at the next save).
        let t = &mut self.threads[tid];
        assert!(
            t.wp_map_saved,
            "checkpoint saved when the branch dispatched"
        );
        std::mem::swap(&mut t.map, &mut t.wp_map_checkpoint);
        t.wp_map_saved = false;
        t.ghist = t.wp_ghist;
        assert!(t.wp_ras_saved, "RAS checkpoint saved");
        std::mem::swap(&mut t.ras, &mut t.wp_ras);
        t.wp_ras_saved = false;
        debug_assert!(t.fetch_latch.queue.iter().all(|e| e.wrong_path));
        t.fetch_latch.queue.clear();
        t.peeked = None;
        t.machine.abort_speculation();
        t.wrong_path = false;
        t.wp_resolve_seq = None;
        if t.waiting_on_branch.is_some_and(|w| w > branch_seq) {
            // An inner wrong-path misprediction was stalling fetch; it
            // no longer exists.
            t.waiting_on_branch = None;
        }
    }

    /// Machine-check squash (soft-error recovery): tears down thread
    /// `tid`'s *entire* speculative state — every in-flight instruction
    /// back to its last retirement — and restores the functional
    /// machine from the retirement checkpoint, so the thread refetches
    /// and replays from the instruction after its last retired one.
    /// Taken when a backing-file word (the architected copy, with no
    /// clean copy anywhere else) fails its parity check, and by the
    /// watchdog's one forced-recovery escalation. Only this thread's
    /// state is touched: SMT peers keep executing through the squash.
    pub(crate) fn machine_check_squash(&mut self, tid: ThreadId, now: u64) {
        let mut removed = std::mem::take(&mut self.squash_buf);
        removed.clear();
        removed.extend(self.threads[tid].rob.drain(..));
        self.threads[tid].sched.clear();
        self.threads[tid].timed.clear();
        // Youngest first, so each arch register's rename-map chain
        // unwinds one mapping at a time back to the retired state.
        for inst in removed.iter().rev() {
            debug_assert_eq!(inst.tid, tid, "squashed another thread's instruction");
            if inst.status == Status::Waiting {
                self.window_count -= 1;
                for p in inst.srcs.iter().flatten() {
                    let info = &mut self.preg_info[*p as usize];
                    if info.active {
                        info.consumers_outstanding = info.consumers_outstanding.saturating_sub(1);
                    }
                }
            }
            if let Some(d) = inst.dest {
                if let Storage::Cached { assigner, .. } = &mut self.storage {
                    let info = &self.preg_info[d as usize];
                    assigner.release(info.set, info.predicted);
                }
                if let Some(prev) = inst.prev {
                    // The youngest live mapping of this instruction's
                    // architectural destination is `d`; revert it.
                    let t = &mut self.threads[tid];
                    if let Some(slot) = t.map.iter().position(|&m| m == d) {
                        t.map[slot] = prev;
                    }
                    let pi = &mut self.preg_info[prev as usize];
                    if pi.active {
                        pi.reassigned_seq = None;
                    }
                }
                self.squash_free_preg(d, now);
            }
        }
        self.squash_buf = removed;

        // Full front-end reset: the thread refetches from the
        // checkpoint, so every latched fetch/decode artifact is stale.
        let t = &mut self.threads[tid];
        t.store_granules.clear();
        t.fetch_latch.queue.clear();
        t.peeked = None;
        t.halt_fetched = false;
        t.stream_done = false;
        t.waiting_on_branch = None;
        t.wrong_path = false;
        t.wp_resolve_seq = None;
        t.wp_map_saved = false;
        t.wp_ras_saved = false;
        // Restore the functional machine from the retirement
        // checkpoint (replacing it also discards any speculation the
        // old machine had entered). `clone_from` reuses the squashed
        // machine's buffers instead of reallocating the memory image
        // on every recovery.
        let recover = t.recover.as_deref().expect("recovery enabled");
        t.machine.clone_from(recover);
        t.fetch_resume = now + self.config.recovery.machine_check_penalty;
        t.machine_checks += 1;
        t.recoveries += 1;
        t.last_recovery = Some(now);
        // Latency is booked at the first post-squash retirement; keep
        // the earliest pending squash if several stack up before one.
        t.recovery_pending_since.get_or_insert(now);
    }

    /// Releases a wrong-path destination register: like a free at
    /// retirement, but with no degree-predictor training and no
    /// lifetime statistics (the value never completed a lifetime).
    fn squash_free_preg(&mut self, p: u16, now: u64) {
        let info = self.preg_info[p as usize];
        debug_assert!(info.active, "squash-freeing an inactive preg");
        if let Some(ck) = self.checker.as_mut() {
            ck.on_clear(p);
        }
        match &mut self.storage {
            Storage::Cached { cache, tracker, .. } => {
                cache.free(PhysReg(p), info.set, now);
                tracker.clear(PhysReg(p));
            }
            Storage::TwoLevel { file } => file.release(PhysReg(p)),
            Storage::Monolithic { .. } => {}
        }
        self.preg_info[p as usize] = PregInfo::EMPTY;
        self.preg_time[p as usize] = PregTime::UNKNOWN;
        self.preg_gen[p as usize] = self.preg_gen[p as usize].wrapping_add(1);
        // Anything parked on a wrong-path value is wrong-path itself
        // and is being squashed with it.
        self.preg_waiters[p as usize].clear();
        let tid = self.thread_of_preg(p);
        match &mut self.shared_pool {
            Some(pool) => {
                pool.live[tid] -= 1;
                pool.free.push(p);
            }
            None => self.threads[tid].freelist.push(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::Simulator;
    use ubrc_workloads::{workload_by_name, Scale};

    /// After any cycle on which the core is back on the correct path,
    /// no wrong-path state survives in any latch: the fetch→rename
    /// latch holds only correct-path entries, the ROB holds no
    /// wrong-path instructions, and both front-end checkpoints
    /// (rename map and RAS) have been released.
    #[test]
    fn squash_clears_wrong_path_state_from_every_latch() {
        let w = workload_by_name("bfs", Scale::Tiny).unwrap();
        let mut sim =
            Simulator::try_new_smt(vec![w.assemble().unwrap()], SimConfig::paper_default())
                .unwrap();
        let mut last_squashed = 0;
        let mut squash_cycles = 0;
        while !sim.core.halted && sim.core.now < 200_000 {
            sim.core.cycle();
            if sim.core.wp_squashed > last_squashed {
                last_squashed = sim.core.wp_squashed;
                squash_cycles += 1;
            }
            let t = &sim.core.threads[0];
            if !t.wrong_path {
                assert!(
                    t.fetch_latch.queue.iter().all(|e| !e.wrong_path),
                    "wrong-path entry left in the fetch latch after squash"
                );
                assert!(
                    t.rob.iter().all(|i| !i.wrong_path),
                    "wrong-path instruction left in the ROB after squash"
                );
                assert!(!t.wp_map_saved, "map checkpoint not released");
                assert!(!t.wp_ras_saved, "RAS checkpoint not released");
                assert!(t.wp_resolve_seq.is_none());
            }
        }
        assert!(sim.core.halted, "bfs should run to completion");
        assert!(squash_cycles > 0, "bfs must mispredict at least once");
    }
}
