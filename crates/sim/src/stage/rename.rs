//! Rename/dispatch stage: drains each thread's fetch→rename latch,
//! renames architectural registers against that thread's map, allocates
//! destinations from the register pool, and inserts into the
//! (shared-budget) ROB/window.
//!
//! Backpressure: dispatch stops at the shared ROB/window capacity; a
//! thread the pool cannot serve (its list is dry or it is at its cap)
//! stalls alone, letting the other threads keep dispatching from the
//! shared width budget.

use super::{
    CoreState, DynInst, FetchedEntry, IssueSlot, PregInfo, PregTime, Storage, ThreadId, NOT_ISSUED,
    NO_SRC,
};
use crate::trace::InstTrace;
use ubrc_core::PhysReg;

impl CoreState {
    pub(crate) fn dispatch(&mut self, now: u64) {
        let mut budget = self.config.fetch_width;
        for tid in 0..self.threads.len() {
            while budget > 0 {
                let Some(front) = self.threads[tid].fetch_latch.queue.front() else {
                    break;
                };
                if front.ready_at > now {
                    break;
                }
                if self.rob_len_total() == self.config.rob_entries
                    || self.window_count == self.config.window_entries
                {
                    // Shared capacity exhausted: no thread can dispatch.
                    return;
                }
                let has_dest = front.rec.inst.dest().is_some();
                if has_dest {
                    if !self.pool.can_alloc(tid) {
                        self.result.dispatch_stall_pregs += 1;
                        break;
                    }
                    if let Storage::TwoLevel { file } = &self.storage {
                        if file.free_count() == 0 {
                            self.result.dispatch_stall_pregs += 1;
                            return;
                        }
                    }
                }
                let entry = self.threads[tid]
                    .fetch_latch
                    .queue
                    .pop_front()
                    .expect("checked non-empty");
                self.rename_and_insert(tid, entry, now);
                budget -= 1;
            }
            if budget == 0 {
                break;
            }
        }
    }

    fn rename_and_insert(&mut self, tid: ThreadId, entry: FetchedEntry, now: u64) {
        let rec = entry.rec;
        let seq = self.threads[tid].seq;
        self.threads[tid].seq += 1;
        // Global dispatch-order stamp: orders instructions across
        // threads for oldest-first select (equal to `seq` when only
        // one thread runs).
        let age = self.age;
        self.age += 1;

        // Sources: current mappings in this thread's map table.
        let mut srcs = [NO_SRC; 2];
        for (slot, src) in rec.inst.sources().into_iter().enumerate() {
            if let Some(r) = src {
                let p = self.threads[tid].map[r.index() as usize];
                srcs[slot] = p;
                let info = &mut self.preg_info[p as usize];
                info.consumers_renamed += 1;
                info.consumers_outstanding += 1;
            }
        }

        // Destination: allocate from the pool and remap.
        let mut dest = None;
        let mut prev = None;
        if let Some(r) = rec.inst.dest() {
            let p = self.pool.alloc(tid);
            let old = self.threads[tid].map[r.index() as usize];
            self.threads[tid].map[r.index() as usize] = p;
            prev = Some(old);
            dest = Some(p);

            // The old value's architectural name is gone: transfer
            // eligibility (two-level) begins once consumers drain.
            let old_info = &mut self.preg_info[old as usize];
            old_info.reassigned_seq = Some(seq);
            if old_info.consumers_outstanding == 0 {
                if let Storage::TwoLevel { file } = &mut self.storage {
                    file.mark_eligible(PhysReg(old), seq);
                }
            }

            // Degree-of-use prediction for the new value.
            let prediction = self.threads[tid].douse.predict(rec.pc, entry.hist);
            self.preg_time[p as usize] = PregTime::UNKNOWN;
            let mut info = PregInfo {
                producer_pc: rec.pc,
                producer_hist: entry.hist,
                // Wrong-path values never complete a real lifetime, so
                // they do not train the degree predictor (their *reads*
                // of correct-path values still pollute use counts, as
                // in §3.4).
                trainable: !entry.wrong_path,
                alloc_time: now,
                active: true,
                ..PregInfo::EMPTY
            };
            match &mut self.storage {
                Storage::Cached {
                    cache,
                    assigner,
                    tracker,
                    ..
                } => {
                    let cfg = *cache.config();
                    tracker.init(
                        PhysReg(p),
                        prediction,
                        cfg.unknown_default,
                        cfg.max_use_count,
                    );
                    let degree = tracker.predicted(PhysReg(p));
                    if let Some(ck) = self.checker.as_mut() {
                        ck.on_init(
                            p,
                            tracker.remaining(PhysReg(p)),
                            tracker.is_pinned(PhysReg(p)),
                        );
                    }
                    info.predicted = degree;
                    info.set = assigner.assign(PhysReg(p), degree);
                    cache.produce(PhysReg(p));
                }
                Storage::TwoLevel { file } => {
                    let ok = file.try_allocate(PhysReg(p));
                    debug_assert!(ok, "dispatch checked the L1 free count");
                }
                Storage::Monolithic { .. } => {}
            }
            self.preg_info[p as usize] = info;
        }

        if (age as usize) < self.config.trace_instructions {
            self.trace.push(InstTrace {
                seq,
                pc: rec.pc,
                asm: rec.inst.to_string(),
                fetch: entry.fetch_cycle,
                dispatch: now,
                issue: 0,
                exec_start: 0,
                exec_done: 0,
                retire: 0,
                operands: [None, None],
                replays: 0,
                wrong_path: entry.wrong_path,
            });
        }
        if self.config.model_store_forwarding && rec.inst.is_store() {
            let granule = rec.mem_addr.expect("store has an address") / 8;
            self.threads[tid]
                .store_granules
                .entry(granule)
                .or_default()
                .push((seq, None));
        }
        let t = &mut self.threads[tid];
        t.rob.push_back(DynInst {
            seq,
            rec,
            dest,
            prev,
            exec_done: NOT_ISSUED,
            fetch_cycle: entry.fetch_cycle,
            mispredicted: entry.mispredicted,
            wrong_path: entry.wrong_path,
        });
        t.sched.push_back(IssueSlot {
            wake: now + 1,
            age,
            earliest_issue: now + 1,
            srcs,
        });
        t.armed.fit(t.retired, &t.sched);
        t.armed.arm(t.retired + (t.sched.len() - 1) as u64);
        t.due_hint = t.due_hint.min(now + 1);
        self.window_count += 1;
    }
}
