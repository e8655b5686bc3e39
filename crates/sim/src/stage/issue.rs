//! Issue stage: event-driven wake-up/select, operand acquisition
//! (bypass / cache hit / miss), execution-latency charging, load-hit
//! speculation, and branch-resolution redirects.
//!
//! The window is shared between threads; select merges each thread's
//! due instructions oldest-first by the global dispatch `age` stamp.
//! Each thread's [`SelectCursor`] walks its armed-slot bitmap
//! ([`ThreadState::armed`]) from its oldest slot, which is age order,
//! and hands the merge one due slot at a time, so select stops at the
//! issue width without ordering or even visiting the rest of the
//! backlog.

use super::{
    CoreState, DynInst, IssueSlot, PregTime, Storage, ThreadId, ThreadState, NOT_ISSUED, NO_SRC,
    SCHED_ISSUED, SCHED_PARKED,
};
use crate::config::{FuPools, RegStorage};
use crate::trace::OperandPath;
use ubrc_core::PhysReg;
use ubrc_isa::ExecClass;

/// One thread's place in the select walk. It visits the thread's armed
/// slots word by word of [`ThreadState::armed`], oldest first, and
/// stops at each due one.
pub(crate) struct SelectCursor {
    tid: u32,
    /// Age and window index of the due slot the cursor stands on.
    age: u64,
    idx: u32,
    /// Absolute position of bit 0 of the current word, and the armed
    /// bits of that word not yet visited.
    word_pos: u64,
    bits: u64,
    /// One past the thread's youngest window position.
    end: u64,
    /// The earliest deadline among the armed slots passed as not due.
    min_wake: u64,
}

impl SelectCursor {
    /// A cursor before thread `tid`'s oldest slot.
    fn new(tid: ThreadId, t: &ThreadState) -> Self {
        let base = t.retired;
        let bits = if t.sched.is_empty() {
            0
        } else {
            t.armed.word(base) & (u64::MAX << (base % 64))
        };
        SelectCursor {
            tid: tid as u32,
            age: 0,
            idx: 0,
            word_pos: base & !63,
            bits,
            end: base + t.sched.len() as u64,
            min_wake: u64::MAX,
        }
    }

    /// Moves to the thread's next due slot in age order; `false` once
    /// no armed slot is left.
    fn next_due(&mut self, t: &ThreadState, now: u64) -> bool {
        loop {
            while self.bits == 0 {
                self.word_pos += 64;
                if self.word_pos >= self.end {
                    return false;
                }
                self.bits = t.armed.word(self.word_pos);
            }
            let pos = self.word_pos + u64::from(self.bits.trailing_zeros());
            self.bits &= self.bits - 1;
            let idx = (pos - t.retired) as usize;
            let s = &t.sched[idx];
            if s.wake <= now {
                self.age = s.age;
                self.idx = idx as u32;
                return true;
            }
            self.min_wake = self.min_wake.min(s.wake);
        }
    }
}

impl CoreState {
    /// Re-arms a waiting instruction's `next_wake` deadline: if a
    /// source's timing is unknown it parks on that register's waiter
    /// list (re-armed when the producer issues); otherwise the deadline
    /// becomes the earliest cycle every operand could be ready.
    ///
    /// Deadlines are lower bounds — readiness only moves *later* after
    /// being advertised (miss-raised `storage_avail`, load retimes),
    /// and an instruction that fails its ready check at the deadline
    /// simply re-arms itself — so no wake-up is ever lost.
    ///
    /// A register's waiters are always instructions of the thread
    /// holding it (a thread maps only registers it holds), so the
    /// waiter list stores the slot's window position and age.
    fn rearm_wake(&mut self, tid: ThreadId, idx: usize, lower: u64) {
        let slot = self.threads[tid].sched[idx];
        let pos = self.threads[tid].retired + idx as u64;
        let mut wake = lower.max(slot.earliest_issue);
        loop {
            let mut next = wake;
            for &p in slot.srcs.iter().filter(|&&p| p != NO_SRC) {
                let pt = self.preg_time[p as usize];
                if !pt.known {
                    self.preg_waiters[p as usize].push((pos, slot.age));
                    let t = &mut self.threads[tid];
                    t.sched[idx].wake = SCHED_PARKED;
                    t.armed.disarm(pos);
                    return;
                }
                next = next.max(pt.next_ready_at(next));
            }
            if next == wake {
                break;
            }
            wake = next;
        }
        let t = &mut self.threads[tid];
        t.sched[idx].wake = wake;
        t.armed.arm(pos);
        t.due_hint = t.due_hint.min(wake);
    }

    /// Un-parks everything waiting on `p`, called when the producer
    /// issues and `p`'s timing becomes known. The deadline is reset
    /// lazily to the next cycle; the select walk recomputes it from the
    /// now-known timing on examination.
    fn wake_preg_waiters(&mut self, p: u16, now: u64) {
        if self.preg_waiters[p as usize].is_empty() {
            return;
        }
        let tid = self.thread_of_preg(p);
        let t = &mut self.threads[tid];
        let mut waiters = std::mem::take(&mut self.preg_waiters[p as usize]);
        for (pos, age) in waiters.drain(..) {
            // A retired waiter fell below the window, and a squashed
            // one's position may hold a younger instruction since; ages
            // are unique, so only the waiter itself matches.
            let slot = pos.checked_sub(t.retired);
            let Some(s) = slot.and_then(|i| t.sched.get_mut(i as usize)) else {
                continue;
            };
            if s.age == age && s.wake != SCHED_ISSUED {
                s.wake = now + 1;
                t.armed.arm(pos);
                t.due_hint = t.due_hint.min(now + 1);
            }
        }
        // Hand the (empty) buffer back to keep its capacity.
        self.preg_waiters[p as usize] = waiters;
    }

    pub(crate) fn issue(&mut self, now: u64) {
        let squashing = self.replay.take(now);
        let mut pool_used = [0usize; FuPools::NUM_POOLS];
        let mut total = 0;

        // Select oldest-ready-first across threads, in global dispatch
        // `age` order (with one thread this is exactly the order the
        // full-window scan visited), examining only the instructions
        // whose wake deadline has arrived. Instructions losing a slot
        // to issue width or a full FU pool keep a due deadline and are
        // re-examined next cycle; a failed ready check re-arms the
        // deadline.
        let mut selected = std::mem::take(&mut self.selected_buf);
        let mut cursors = std::mem::take(&mut self.cursors);
        selected.clear();
        cursors.clear();
        for (tid, t) in self.threads.iter_mut().enumerate() {
            // Nothing in this thread's window can be due yet: skip the
            // walk outright. `due_hint` is a lower bound, so skipping
            // never drops a due instruction.
            if t.due_hint > now {
                continue;
            }
            let mut cursor = SelectCursor::new(tid, t);
            if cursor.next_due(t, now) {
                // A due slot may survive the issue loop (lost slot) and
                // stay due, so the hint must not rise past `now`.
                t.due_hint = now;
                cursors.push(cursor);
            } else {
                // The cursor passed every armed slot: the exact
                // minimum governs the next walk.
                t.due_hint = cursor.min_wake;
            }
        }
        // Lazy k-way merge of the per-thread age-ordered cursors: each
        // step takes the lowest age among the (at most nthreads)
        // cursors, which visits due slots in exactly the order a fully
        // merged and sorted list would, and the loop usually stops at
        // the issue width with most of the backlog never visited.
        // Advancing a cursor before its slot is examined is safe: the
        // examination changes only that slot's deadline and bit.
        while total < self.config.issue_width && !cursors.is_empty() {
            let mut best = 0;
            for r in 1..cursors.len() {
                if cursors[r].age < cursors[best].age {
                    best = r;
                }
            }
            let c = &mut cursors[best];
            let (tid, i) = (c.tid as usize, c.idx as usize);
            if !c.next_due(&self.threads[tid], now) {
                cursors.swap_remove(best);
            }
            let slot = &self.threads[tid].sched[i];
            debug_assert_eq!(self.threads[tid].window[i].exec_done, NOT_ISSUED);
            let ready = slot.earliest_issue <= now
                && slot
                    .srcs
                    .iter()
                    .all(|&p| p == NO_SRC || self.preg_time[p as usize].operand_ready(now));
            if !ready {
                self.rearm_wake(tid, i, now + 1);
                continue;
            }
            let inst = &self.threads[tid].window[i];
            if self.config.model_store_forwarding && inst.inst.is_load() {
                let granule = inst.mem_addr.expect("load has an address") / 8;
                if let Some(stores) = self.threads[tid].store_granules.get(&granule) {
                    // The youngest store older than this load is the
                    // one it forwards from; it must have executed.
                    let blocking = stores
                        .iter()
                        .rev()
                        .find(|&&(sseq, _)| sseq < inst.seq)
                        .is_some_and(|&(_, done)| done.is_none_or(|d| d > now));
                    if blocking {
                        self.result.store_forward_stalls += 1;
                        continue;
                    }
                }
            }
            let inst = &self.threads[tid].window[i];
            let class = inst.inst.class();
            let pool = FuPools::pool_index(class);
            if pool_used[pool] == self.config.fu.size(class) {
                continue;
            }
            pool_used[pool] += 1;
            total += 1;
            selected.push((inst.seq, tid as u32, i as u32));
        }
        self.cursors = cursors;

        if squashing {
            // Register-cache miss in the previous cycle: everything
            // issuing now replays (§5.2). The slots are consumed but no
            // effects occur; independents may reissue next cycle (their
            // deadlines stay due).
            self.result.replayed += selected.len() as u64;
            for &(_, tid, i) in &selected {
                let slot = &mut self.threads[tid as usize].sched[i as usize];
                slot.earliest_issue = now + 1;
                let age = slot.age;
                if let Some(t) = self.trace.get_mut(age as usize) {
                    t.replays += 1;
                }
            }
        } else {
            for &(seq, tid, i) in &selected {
                // A wrong-path squash during this loop removes a
                // thread's ROB tail; later selections pointing into it
                // are gone.
                let (tid, i) = (tid as usize, i as usize);
                let t = &self.threads[tid];
                if i >= t.renamed || t.window[i].seq != seq {
                    continue;
                }
                self.issue_one(tid, i, now);
                // A detected backing-file fault escalates to a machine
                // check: the thread's entire in-flight state is
                // squashed and replayed from its last retirement.
                // Later selections for the thread fall to the
                // staleness guard above.
                if let Some(mc) = self.pending_machine_check.take() {
                    self.machine_check_squash(mc, now);
                }
            }
        }
        self.selected_buf = selected;
    }

    fn issue_one(&mut self, tid: ThreadId, idx: usize, now: u64) {
        let DynInst {
            seq,
            inst,
            mem_addr,
            fetch_cycle,
            dest,
            mispredicted,
            ..
        } = self.threads[tid].window[idx];
        let IssueSlot { srcs, age, .. } = self.threads[tid].sched[idx];
        let class = inst.class();
        let rl = self.config.storage.read_latency() as u64;

        // Obtain each source operand: bypass, storage hit, or miss.
        let protected = self.config.storage.protected();
        let mut counter_scrubs: u32 = 0;
        let mut parity_fill_latency: Option<u64> = None;
        let mut machine_check = false;
        let mut miss_avail: u64 = 0;
        let mut operand_paths: [Option<OperandPath>; 2] = [None, None];
        for (slot, p) in srcs.into_iter().enumerate().filter(|&(_, p)| p != NO_SRC) {
            let t = self.preg_time[p as usize];
            if t.on_bypass(now) {
                self.result.operands_bypassed += 1;
                operand_paths[slot] = Some(OperandPath::Bypass((now - t.bypass_start) as u8));
                let stage = now - t.bypass_start;
                if let Storage::Cached(c) = &mut self.storage {
                    if stage == 0 {
                        // First-stage bypass: visible to the write
                        // decision (§3.1). The consume reads the use
                        // counter, so a protected read detects a
                        // flipped counter and scrubs it first.
                        if protected && !c.tracker.parity_ok(PhysReg(p)) {
                            c.tracker.scrub(PhysReg(p));
                            if let Some(ck) = self.checker.as_mut() {
                                ck.on_scrub(p);
                            }
                            counter_scrubs += 1;
                        }
                        c.tracker.consume(PhysReg(p));
                        c.values[p as usize].pre_write_bypasses += 1;
                        if let Some(ck) = self.checker.as_mut() {
                            ck.on_consume(p);
                        }
                    } else {
                        // Later stage: decrement the cache entry once
                        // the write has landed.
                        let gen = self.preg_gen[p as usize];
                        self.events.bypass_decs.push(t.storage_avail, (p, gen));
                    }
                }
            } else {
                // Storage path.
                self.result.operands_from_storage += 1;
                operand_paths[slot] = Some(OperandPath::Storage);
                if let Storage::Cached(c) = &mut self.storage {
                    let set = c.values[p as usize].set;
                    operand_paths[slot] = Some(OperandPath::CacheHit);
                    // A protected read checks the entry's parity tag
                    // first: a flipped data bit invalidates the entry,
                    // which turns this read into an ordinary miss —
                    // the re-fill from the backing file IS the
                    // recovery (the cache is write-through, so the
                    // backing word is a clean copy).
                    let parity_fault = protected && c.cache.take_parity_fault(PhysReg(p), set, now);
                    if !c.cache.read(PhysReg(p), set, now) {
                        operand_paths[slot] = Some(OperandPath::CacheMiss);
                        if protected && !c.backing.parity_ok(PhysReg(p)) {
                            // The architected copy itself is corrupt:
                            // no clean copy exists anywhere, so the
                            // thread takes a machine check (squash and
                            // replay from its last retirement). The
                            // word is rewritten when the producer
                            // re-executes; scrub the tag now so the
                            // replayed read passes.
                            c.backing.scrub(PhysReg(p));
                            machine_check = true;
                        }
                        // Miss (Figure 3 star): file read through the
                        // single port, after the producer's write.
                        let avail = c.backing.read(PhysReg(p), now + 1);
                        let gen = self.preg_gen[p as usize];
                        self.events.fills.push(avail, (p, gen));
                        if let Some(ck) = self.checker.as_mut() {
                            ck.on_fill_scheduled(p, gen, avail);
                        }
                        self.preg_time[p as usize].storage_avail = avail + 1;
                        self.replay.mark(now + 1);
                        self.result.miss_events += 1;
                        miss_avail = miss_avail.max(avail);
                        if parity_fault {
                            // Recovery latency: the cycles this
                            // consumer waits for the re-fill.
                            let lat = (avail + 1).saturating_sub(now);
                            parity_fill_latency = Some(parity_fill_latency.unwrap_or(0).max(lat));
                        }
                    }
                }
            }
            // The value is actually read when the consumer enters
            // execute (issue + storage read), which is what the
            // live-time statistics measure.
            if let Some(lt) = &mut self.lifetimes {
                lt.read(p, now + rl + 1);
            }
            if let Storage::TwoLevel { file, values } = &mut self.storage {
                let v = &mut values[p as usize];
                v.unread = v.unread.saturating_sub(1);
                if let (0, Some(rseq)) = (v.unread, v.reassigned) {
                    file.mark_eligible(PhysReg(p), rseq);
                }
            }
        }

        for _ in 0..counter_scrubs {
            self.note_recovery(tid, now, 0);
        }
        if let Some(lat) = parity_fill_latency {
            self.note_recovery(tid, now, lat);
        }
        if machine_check {
            // Processed by the issue loop right after this instruction;
            // everything this call mutated (including the fill just
            // scheduled) is torn down by the squash's generation bumps.
            self.pending_machine_check = Some(tid);
        }

        // Effective issue time: delayed by the latest miss (the value
        // arrives at `avail`; execution begins the next cycle).
        let eff_issue = if miss_avail > 0 {
            now.max(miss_avail.saturating_sub(rl))
        } else {
            now
        };

        // Execution latency; loads consult the memory hierarchy.
        let mut load_missed = false;
        let x = if class == ExecClass::Load {
            let addr = mem_addr.expect("load has an address");
            let real = self.memsys.load_latency(addr, now);
            load_missed = real > ExecClass::Load.latency();
            real
        } else {
            class.latency()
        };
        let exec_done = eff_issue + rl + x as u64;

        // Load-hit speculation (21264-style, the model the paper reuses
        // for register cache misses): the scheduler advertises the
        // L1-hit latency; a miss squashes the two-cycle issue shadow
        // and the true readiness is installed at detection.
        let speculate_hit = load_missed && self.config.load_hit_speculation && dest.is_some();

        // Destination value timing and deferred cache write.
        if let Some(d) = dest {
            let adv_x = if speculate_hit {
                ExecClass::Load.latency() as u64
            } else {
                x as u64
            };
            let bypass_start = eff_issue + adv_x;
            let bypass_end = bypass_start + self.config.bypass_stages as u64 - 1;
            let storage_avail = match self.config.storage {
                // A monolithic file's value is readable only after the
                // full write completes AND a full read can start after
                // it: consumers in between stall (the issue-restriction
                // gap of §2.2 that grows with file latency).
                RegStorage::Monolithic { write_latency, .. } => {
                    eff_issue + adv_x + rl + write_latency as u64
                }
                RegStorage::Cached { .. } | RegStorage::TwoLevel(_) => bypass_end + 1,
            };
            self.preg_time[d as usize] = PregTime {
                known: true,
                bypass_start,
                bypass_end,
                storage_avail,
            };
            // The value's timing just became known: wake consumers
            // parked on it. (On a load-hit mis-speculation they wake
            // against the advertised timing, issue into the squashed
            // shadow, and re-key — exactly as the scan model replayed
            // them.)
            self.wake_preg_waiters(d, now);
            if speculate_hit {
                // The miss is detected as the first shadow dependents
                // head for execute: both advertised bypass cycles are
                // squashed (the 21264's two-cycle shadow) and the true
                // timing is installed at the end of the shadow.
                let detect = bypass_end;
                self.replay.mark(bypass_start);
                self.replay.mark(detect);
                self.result.load_miss_speculations += 1;
                let real_bypass_start = eff_issue + x as u64;
                let real_bypass_end = real_bypass_start + self.config.bypass_stages as u64 - 1;
                let real_storage = match self.config.storage {
                    RegStorage::Monolithic { write_latency, .. } => {
                        exec_done + write_latency as u64
                    }
                    _ => real_bypass_end + 1,
                };
                let real = PregTime {
                    known: true,
                    bypass_start: real_bypass_start,
                    bypass_end: real_bypass_end,
                    storage_avail: real_storage,
                };
                self.events
                    .retimes
                    .push(detect, (d, self.preg_gen[d as usize], real));
            }
            if let Some(lt) = &mut self.lifetimes {
                lt.write(d, exec_done);
            }
            if let Storage::Cached(c) = &mut self.storage {
                c.backing.write(PhysReg(d), exec_done + 1);
                let gen = self.preg_gen[d as usize];
                self.events.writes.push(exec_done + 1, (d, gen));
            }
        }

        // Branch resolution redirects this thread's fetch (and squashes
        // the wrong path when one was fetched); the other thread's
        // front end never notices.
        if mispredicted {
            let mut resume =
                (exec_done + 1).max(fetch_cycle + self.config.min_branch_penalty as u64);
            if self.threads[tid].wrong_path == Some(seq) {
                self.squash_wrong_path(tid, seq, now);
            }
            if let Storage::TwoLevel { file, .. } = &mut self.storage {
                // Values speculatively moved to the L2 by wrong-path
                // reassignments return during the refill.
                let count = file.on_mispredict(seq);
                resume += file.recovery_stall(count, resume.saturating_sub(now));
            }
            let t = &mut self.threads[tid];
            t.fetch_resume = resume;
            if t.waiting_on_branch == Some(seq) {
                t.waiting_on_branch = None;
            }
        }

        if self.config.model_store_forwarding && inst.is_store() {
            let granule = mem_addr.expect("store has an address") / 8;
            if let Some(stores) = self.threads[tid].store_granules.get_mut(&granule) {
                if let Some(entry) = stores.iter_mut().find(|e| e.0 == seq) {
                    entry.1 = Some(exec_done);
                }
            }
        }
        let t = &mut self.threads[tid];
        t.window[idx].exec_done = exec_done;
        t.sched[idx].wake = SCHED_ISSUED;
        t.armed.disarm(t.retired + idx as u64);
        self.window_count -= 1;
        if let Some(t) = self.trace.get_mut(age as usize) {
            t.issue = now;
            t.exec_start = eff_issue + rl + 1;
            t.exec_done = exec_done;
            t.operands = operand_paths;
        }
    }
}
