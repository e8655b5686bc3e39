//! Retire stage: in-order retirement from each thread's ROB head,
//! physical register reclamation into the register pool,
//! degree-predictor training, and the end-of-run result
//! collection. The retire width is a shared budget, spent across
//! threads in thread-id order.

use super::{CoreState, DynInst, PregTime, Storage};
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
                let t = &self.threads[tid];
                let Some(head) = t.window.front().filter(|_| t.renamed > 0) else {
                    break;
                };
                if head.exec_done > now {
                    break;
                }
                let DynInst {
                    seq,
                    inst,
                    mem_addr,
                    dest,
                    prev,
                    ..
                } = *head;
                debug_assert!(!head.wrong_path, "a wrong-path instruction retired");
                if inst.is_store() {
                    if stores == self.config.max_stores_per_retire {
                        break;
                    }
                    let addr = mem_addr.expect("store has an address");
                    if !self.memsys.store_retire(addr, now) {
                        break; // store buffer full: stall this thread
                    }
                    stores += 1;
                }
                let t = &mut self.threads[tid];
                t.window.pop_front();
                t.renamed -= 1;
                let slot = t
                    .sched
                    .pop_front()
                    .expect("sched is in lockstep with the rob");
                budget -= 1;
                t.retired += 1;
                if self.config.model_store_forwarding && inst.is_store() {
                    // Younger loads are now ordered by the store buffer
                    // in the memory system, not the LSQ.
                    let granule = mem_addr.expect("store has an address") / 8;
                    if let Some(stores) = t.store_granules.get_mut(&granule) {
                        stores.retain(|&(sseq, _)| sseq != seq);
                        if stores.is_empty() {
                            t.store_granules.remove(&granule);
                        }
                    }
                }
                if let Some(tr) = self.trace.get_mut(slot.age as usize) {
                    tr.retire = now;
                }
                t.last_retired_seq = seq;
                self.last_progress = now;
                if let Some(m) = t.retired_machine.as_mut() {
                    // Advancing in lockstep with retirement keeps it
                    // exactly at the thread's retired state.
                    let step = m.step();
                    if let Some(oracle) = t.oracle.as_mut() {
                        if let Err(report) = oracle.check_retire(now, step) {
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
                if inst == Inst::Halt {
                    t.halted = true;
                    break;
                }
                self.free_reg(dest, prev, true, now);
            }
            if budget == 0 {
                break;
            }
        }
    }

    /// Frees the register an instruction with destination `dest` and
    /// previous mapping `prev` gives up as it leaves the ROB: at
    /// retirement the value its destination overwrote (`prev`), at a
    /// squash its own destination. The destination's set assignment
    /// leaves with its producer either way (§4.2), but only a retired
    /// value trains the degree predictor and records a lifetime: a
    /// squashed one never completed one.
    pub(super) fn free_reg(
        &mut self,
        dest: Option<u16>,
        prev: Option<u16>,
        retired: bool,
        now: u64,
    ) {
        let (Some(d), Some(prev)) = (dest, prev) else {
            return;
        };
        let p = if retired { prev } else { d };
        let tid = self.pool.release(p);
        match &mut self.storage {
            Storage::Cached(c) => {
                // The tracker still holds the degree `d`'s set was
                // assigned for.
                let degree = c.tracker.predicted(PhysReg(d));
                c.assigner.release(c.values[d as usize].set, degree);
                let v = c.values[p as usize];
                if let Some((pc, hist)) = v.producer.filter(|_| retired) {
                    c.douse[tid].train(pc, hist, v.consumers.min(u8::MAX as u32) as u8);
                }
                c.cache.free(PhysReg(p), v.set, now);
                c.tracker.clear(PhysReg(p));
            }
            Storage::TwoLevel { file, .. } => file.release(PhysReg(p)),
            Storage::Monolithic => {}
        }
        if let Some(lt) = self.lifetimes.as_mut().filter(|_| retired) {
            lt.free(p, now);
        }
        if let Some(ck) = self.checker.as_mut() {
            ck.on_clear(p);
        }
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
        let mut douse = DouseStats::default();
        let (regcache, backing, twolevel) = match self.storage {
            Storage::Cached(mut c) => {
                c.cache.finalize(now);
                // Per-thread predictors train independently; the
                // headline stats are the sum over contexts.
                for s in c.douse.iter().map(|p| p.stats()) {
                    douse.predicted += s.predicted;
                    douse.correct += s.correct;
                    douse.unknown += s.unknown;
                }
                (Some(c.cache.into_stats()), Some(*c.backing.stats()), None)
            }
            Storage::TwoLevel { file, .. } => (None, None, Some(*file.stats())),
            Storage::Monolithic => (None, None, None),
        };
        let thread_retired: Vec<u64> = self.threads.iter().map(|t| t.retired).collect();
        SimResult {
            cycles: now,
            retired: thread_retired.iter().sum(),
            thread_retired,
            recoveries: self.threads.iter().map(|t| t.recoveries).sum(),
            thread_machine_checks: self.threads.iter().map(|t| t.machine_checks).collect(),
            epochs: self.result.epoch_timeline.len() as u64,
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
