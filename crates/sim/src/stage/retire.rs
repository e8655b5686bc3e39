//! Retire stage: in-order retirement from each thread's ROB head,
//! physical register reclamation into the register pool,
//! degree-predictor training, and the end-of-run result
//! collection. The retire width is a shared budget, spent across
//! threads in thread-id order.

use super::{CoreState, DynInst, PregInfo, PregTime, Storage};
use crate::check::SimError;
use crate::stats::SimResult;
use crate::trace::Timeline;
use ubrc_core::PhysReg;
use ubrc_frontend::DouseStats;
use ubrc_isa::Inst;

impl CoreState {
    pub(crate) fn retire(&mut self, now: u64) {
        let mut budget = self.config.retire_width;
        let mut stores = 0;
        for tid in 0..self.threads.len() {
            while budget > 0 {
                let Some(head) = self.threads[tid].rob.front() else {
                    break;
                };
                if head.exec_done > now {
                    break;
                }
                if head.rec.inst.is_store() {
                    if stores == self.config.max_stores_per_retire {
                        break;
                    }
                    let addr = head.rec.mem_addr.expect("store has an address");
                    if !self.memsys.store_retire(addr, now) {
                        break; // store buffer full: stall this thread
                    }
                    stores += 1;
                }
                let t = &mut self.threads[tid];
                let inst = t.rob.pop_front().expect("checked non-empty");
                let slot = t.sched.pop_front().expect("sched is in lockstep with rob");
                debug_assert!(!inst.wrong_path, "a wrong-path instruction retired");
                budget -= 1;
                t.retired += 1;
                if self.config.model_store_forwarding && inst.rec.inst.is_store() {
                    // Younger loads are now ordered by the store buffer
                    // in the memory system, not the LSQ.
                    let granule = inst.rec.mem_addr.expect("store has an address") / 8;
                    if let Some(stores) = t.store_granules.get_mut(&granule) {
                        stores.retain(|&(sseq, _)| sseq != inst.seq);
                        if stores.is_empty() {
                            t.store_granules.remove(&granule);
                        }
                    }
                }
                if let Some(tr) = self.trace.get_mut(slot.age as usize) {
                    tr.retire = now;
                }
                t.last_retired_seq = inst.seq;
                self.last_progress = now;
                if let Some(m) = t.retired_machine.as_mut() {
                    // Advancing in lockstep with retirement keeps it
                    // exactly at the thread's retired state.
                    let step = m.step();
                    if let Some(oracle) = t.oracle.as_mut() {
                        if let Err(report) = oracle.check_retire(now, &inst.rec, step) {
                            self.error = Some(Box::new(SimError::Divergence(report)));
                            return;
                        }
                    }
                }
                if let Some(since) = t.recovery_pending_since.take() {
                    // First retirement after a machine-check squash:
                    // the recovery episode (squash, refetch, replay
                    // back to a retirement) is complete; book its
                    // observed latency.
                    let lat = now - since;
                    self.result.recovery_cycles += lat;
                    self.result.recovery_latency.record(lat);
                }
                if inst.rec.inst == Inst::Halt {
                    t.halted = true;
                    break;
                }
                self.free_reg(&inst, true, now);
            }
            if budget == 0 {
                break;
            }
        }
    }

    /// Frees the register `inst` gives up as it leaves the ROB: at
    /// retirement the value its destination overwrote (`prev`), at a
    /// squash its own destination. The destination's set-assignment
    /// bookkeeping (minimum sums, filtered round-robin high-use counts)
    /// leaves with its producer either way (§4.2), but only a retired
    /// value trains the degree predictor and records a lifetime: a
    /// squashed one never completed one.
    pub(super) fn free_reg(&mut self, inst: &DynInst, retired: bool, now: u64) {
        let (Some(d), Some(prev)) = (inst.dest, inst.prev) else {
            return;
        };
        if let Storage::Cached { assigner, .. } = &mut self.storage {
            let info = &self.preg_info[d as usize];
            assigner.release(info.set, info.predicted);
        }
        let p = if retired { prev } else { d };
        let info = self.preg_info[p as usize];
        debug_assert!(info.active, "freeing an inactive preg");
        let tid = self.pool.release(p);
        if retired {
            if info.trainable {
                self.threads[tid].douse.train(
                    info.producer_pc,
                    info.producer_hist,
                    info.consumers_renamed.min(u8::MAX as u32) as u8,
                );
            }
            if let Some(lt) = &mut self.lifetimes {
                lt.record_value(info.alloc_time, info.write_time, info.last_use, now);
            }
        }
        match &mut self.storage {
            Storage::Cached { cache, tracker, .. } => {
                cache.free(PhysReg(p), info.set, now);
                tracker.clear(PhysReg(p));
            }
            Storage::TwoLevel { file } => file.release(PhysReg(p)),
            Storage::Monolithic { .. } => {}
        }
        if let Some(ck) = self.checker.as_mut() {
            ck.on_clear(p);
        }
        self.preg_info[p as usize] = PregInfo::EMPTY;
        self.preg_time[p as usize] = PregTime::UNKNOWN;
        self.preg_gen[p as usize] = self.preg_gen[p as usize].wrapping_add(1);
        // Any waiter left here is squashed: a retired value's
        // correct-path consumers all issued before the overwriting
        // instruction retired (retirement is in order), and a squashed
        // value's consumers are younger and squashed with it.
        self.preg_waiters[p as usize].clear();
    }

    /// Collects the end-of-run results, consuming the core. The run's
    /// counters are already in `result`; storage statistics are moved
    /// out, not copied.
    pub(crate) fn finish(self) -> SimResult {
        let now = self.now;
        let (regcache, backing, twolevel) = match self.storage {
            Storage::Cached {
                mut cache, backing, ..
            } => {
                cache.finalize(now);
                let b = *backing.stats();
                (Some(cache.into_stats()), Some(b), None)
            }
            Storage::TwoLevel { file } => (None, None, Some(*file.stats())),
            Storage::Monolithic { .. } => (None, None, None),
        };
        // Per-thread predictors train independently; the headline
        // stats are the sum over contexts.
        let douse = self.threads.iter().fold(DouseStats::default(), |acc, t| {
            let s = t.douse.stats();
            DouseStats {
                predicted: acc.predicted + s.predicted,
                correct: acc.correct + s.correct,
                unknown: acc.unknown + s.unknown,
            }
        });
        let thread_retired: Vec<u64> = self.threads.iter().map(|t| t.retired).collect();
        let thread_machine_checks: Vec<u64> =
            self.threads.iter().map(|t| t.machine_checks).collect();
        SimResult {
            cycles: now,
            retired: thread_retired.iter().sum(),
            thread_retired,
            recoveries: self.threads.iter().map(|t| t.recoveries).sum(),
            machine_checks: thread_machine_checks.iter().sum(),
            thread_machine_checks,
            epochs: regcache.as_ref().map_or(0, |c| c.epochs),
            regcache,
            backing,
            twolevel,
            douse,
            memsys: *self.memsys.stats(),
            lifetimes: self.lifetimes.map(|lt| lt.finalize(now)),
            timeline: (!self.trace.is_empty()).then_some(Timeline { insts: self.trace }),
            profile: self.profiler.map(|p| p.finish()),
            ..self.result
        }
    }
}
