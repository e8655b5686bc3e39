//! Rename/dispatch stage: takes each thread's matured fetch→rename
//! latch entries, oldest first, renames their architectural registers
//! against that thread's map, allocates destinations from the register
//! pool, and admits them to the (shared-budget) ROB/window. An entry
//! never moves: rename fills it in place in the thread's window and
//! advances the window's `renamed` boundary past it.
//!
//! Backpressure: dispatch stops at the shared ROB/window capacity; a
//! thread the pool cannot serve (its list is dry or it is at its cap)
//! stalls alone, letting the other threads keep dispatching from the
//! shared width budget.

use super::{CoreState, DynInst, IssueSlot, PregTime, Storage, ThreadId, NO_SRC};
use crate::trace::InstTrace;
use ubrc_core::PhysReg;

impl CoreState {
    pub(crate) fn dispatch(&mut self, now: u64) {
        let mut budget = self.config.fetch_width;
        let frontend_stages = self.config.frontend_stages as u64;
        for tid in 0..self.threads.len() {
            while budget > 0 {
                let t = &self.threads[tid];
                let Some(front) = t.window.get(t.renamed) else {
                    break;
                };
                if front.fetch_cycle + frontend_stages > now {
                    break;
                }
                if self.rob_len_total() == self.config.rob_entries
                    || self.window_count == self.config.window_entries
                {
                    // Shared capacity exhausted: no thread can dispatch.
                    return;
                }
                let has_dest = front.inst.dest().is_some();
                if has_dest {
                    if !self.pool.can_alloc(tid) {
                        self.result.dispatch_stall_pregs += 1;
                        break;
                    }
                    if let Storage::TwoLevel { file, .. } = &self.storage {
                        if file.free_count() == 0 {
                            self.result.dispatch_stall_pregs += 1;
                            return;
                        }
                    }
                }
                self.rename_and_insert(tid, now);
                budget -= 1;
            }
            if budget == 0 {
                break;
            }
        }
    }

    /// Renames the oldest unrenamed entry of thread `tid`'s window.
    fn rename_and_insert(&mut self, tid: ThreadId, now: u64) {
        let idx = self.threads[tid].renamed;
        let DynInst {
            pc, inst, mem_addr, ..
        } = self.threads[tid].window[idx];
        let seq = self.threads[tid].seq;
        self.threads[tid].seq += 1;
        // Global dispatch-order stamp: orders instructions across
        // threads for oldest-first select (equal to `seq` when only
        // one thread runs).
        let age = self.age;
        self.age += 1;

        // Sources: current mappings in this thread's map table.
        let mut srcs = [NO_SRC; 2];
        for (slot, src) in inst.sources().into_iter().enumerate() {
            if let Some(r) = src {
                let p = self.threads[tid].map[r.index() as usize];
                srcs[slot] = p;
                match &mut self.storage {
                    Storage::Cached(c) => c.values[p as usize].consumers += 1,
                    Storage::TwoLevel { values, .. } => values[p as usize].unread += 1,
                    Storage::Monolithic => {}
                }
            }
        }

        // Destination: allocate from the pool and remap.
        let mut dest = None;
        let mut prev = None;
        if let Some(r) = inst.dest() {
            let p = self.pool.alloc(tid);
            let old = self.threads[tid].map[r.index() as usize];
            self.threads[tid].map[r.index() as usize] = p;
            prev = Some(old);
            dest = Some(p);

            // The old value's architectural name is gone: transfer
            // eligibility (two-level) begins once consumers drain.
            if let Storage::TwoLevel { file, values } = &mut self.storage {
                let v = &mut values[old as usize];
                v.reassigned = Some(seq);
                if v.unread == 0 {
                    file.mark_eligible(PhysReg(old), seq);
                }
            }

            self.preg_time[p as usize] = PregTime::UNKNOWN;
            if let Some(lt) = &mut self.lifetimes {
                lt.alloc(p, now);
            }
            let entry = &self.threads[tid].window[idx];
            self.storage
                .produce(p, Some((tid, entry)), self.checker.as_mut());
        }

        if (age as usize) < self.config.trace_instructions {
            let entry = &self.threads[tid].window[idx];
            self.trace.push(InstTrace {
                seq,
                pc,
                asm: inst.to_string(),
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
        if self.config.model_store_forwarding && inst.is_store() {
            let granule = mem_addr.expect("store has an address") / 8;
            self.threads[tid]
                .store_granules
                .entry(granule)
                .or_default()
                .push((seq, None));
        }
        let t = &mut self.threads[tid];
        let entry = &mut t.window[idx];
        entry.seq = seq;
        entry.dest = dest;
        entry.prev = prev;
        t.renamed += 1;
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
