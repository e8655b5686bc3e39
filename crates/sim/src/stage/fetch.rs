//! Fetch stage: picks a hardware thread with an ICOUNT-style chooser,
//! pulls its records from the functional emulator through the I-cache
//! model, runs the (per-thread) branch predictors, and appends each
//! fetched instruction to the thread's window, whose unrenamed tail is
//! the fetch → rename latch. Begins wrong-path fetch at mispredicted
//! branches (checkpointing that thread's front end) and back-pressures
//! on a full latch.

use super::{CoreState, DynInst, ThreadId, NOT_ISSUED};
use crate::check::SimError;
use crate::config::FetchPolicy;
use crate::inject::FaultKind;
use ubrc_emu::{ExecRecord, StepOutcome};
use ubrc_isa::Inst;

impl CoreState {
    fn next_record(&mut self, tid: ThreadId) -> Option<ExecRecord> {
        let t = &mut self.threads[tid];
        if t.stream_done {
            return None;
        }
        if t.machine.in_speculation() {
            // Wrong-path execution may fault or halt; either simply
            // ends speculative fetch until the branch resolves.
            return match t.machine.step() {
                Ok(StepOutcome::Executed(r)) => Some(r),
                Ok(StepOutcome::Halted) | Err(_) => None,
            };
        }
        match t.machine.step() {
            Ok(StepOutcome::Executed(r)) => {
                if r.inst == Inst::Halt {
                    t.stream_done = true;
                }
                Some(r)
            }
            Ok(StepOutcome::Halted) => {
                t.stream_done = true;
                None
            }
            Err(e) => {
                // A correct-path fault means the workload itself is
                // broken; surface it as a structured error at the end
                // of this cycle instead of panicking mid-fetch.
                t.stream_done = true;
                self.error = Some(Box::new(SimError::Emu(e)));
                None
            }
        }
    }

    /// Whether thread `tid` can fetch this cycle.
    fn fetch_eligible(&self, tid: ThreadId, now: u64) -> bool {
        let t = &self.threads[tid];
        !t.halt_fetched
            && t.waiting_on_branch.is_none()
            && now >= t.fetch_resume
            && t.latch_len() < self.latch_cap()
    }

    /// ICOUNT-style fetch chooser (fewest in-flight instructions):
    /// among the threads able to fetch this cycle, pick the one with
    /// the fewest instructions between fetch and retirement (its
    /// window's length), breaking ties toward the lower thread id. A
    /// pure function of architectural state — seedless, so replays are
    /// bit-identical.
    fn choose_fetch_thread(&self, now: u64) -> Option<ThreadId> {
        self.threads
            .iter()
            .enumerate()
            .filter(|&(tid, _)| self.fetch_eligible(tid, now))
            .min_by_key(|&(tid, t)| (t.window.len(), tid))
            .map(|(tid, _)| tid)
    }

    /// Round-robin chooser: the first eligible thread strictly after the
    /// last one granted a slot, wrapping. Also deterministic.
    fn choose_round_robin(&self, now: u64) -> Option<ThreadId> {
        let n = self.threads.len();
        (1..=n)
            .map(|step| (self.last_fetch_tid + step) % n)
            .find(|&tid| self.fetch_eligible(tid, now))
    }

    pub(crate) fn fetch(&mut self, now: u64) {
        match self.config.fetch_policy {
            FetchPolicy::Icount => {
                if let Some(tid) = self.choose_fetch_thread(now) {
                    self.fetch_thread(tid, now);
                }
            }
            FetchPolicy::RoundRobin => {
                if let Some(tid) = self.choose_round_robin(now) {
                    self.last_fetch_tid = tid;
                    self.fetch_thread(tid, now);
                }
            }
            FetchPolicy::Icount28 => {
                // The two least-loaded eligible threads each fetch a
                // block, lowest ICOUNT first (one thread degenerates to
                // plain ICOUNT). Eligibility is re-evaluated for the
                // second slot: the first block may have filled the latch
                // or stalled fetch for its thread.
                let Some(first) = self.choose_fetch_thread(now) else {
                    return;
                };
                self.fetch_thread(first, now);
                if let Some(second) = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|&(tid, _)| tid != first && self.fetch_eligible(tid, now))
                    .min_by_key(|&(tid, t)| (t.window.len(), tid))
                    .map(|(tid, _)| tid)
                {
                    self.fetch_thread(second, now);
                }
            }
        }
    }

    fn fetch_thread(&mut self, tid: ThreadId, now: u64) {
        let latch_cap = self.latch_cap();
        // Validation keeps the line size a power of two.
        let line_shift = self.config.memsys.l1.line_bytes.trailing_zeros();
        let mut line: Option<u64> = None;
        for _ in 0..self.config.fetch_width {
            if self.threads[tid].latch_len() >= latch_cap {
                break;
            }
            // The emulator runs one record ahead of fetch, so a record
            // an I-cache miss stalls stays peeked for the refetch.
            if self.threads[tid].peeked.is_none() {
                self.threads[tid].peeked = self.next_record(tid);
            }
            // Model the I-cache at line granularity, on the peeked
            // record in place.
            let Some(pc) = self.threads[tid].peeked.as_ref().map(|r| r.pc) else {
                break;
            };
            let this_line = pc >> line_shift;
            if line != Some(this_line) {
                let extra = self.memsys.fetch_latency(pc);
                if extra > 0 {
                    self.threads[tid].fetch_resume = now + extra as u64;
                    break;
                }
                line = Some(this_line);
            }
            let mut rec = self.threads[tid].peeked.take().expect("filled");
            let on_wrong_path = self.threads[tid].wrong_path.is_some();
            if let Some(inj) = self.injector.as_mut() {
                if inj.armed_for(FaultKind::CorruptRecord) && !on_wrong_path {
                    if let Some(v) = rec.dest_val.filter(|_| rec.inst != Inst::Halt) {
                        // Timing-neutral: `dest_val` never feeds the
                        // timing model, so only the oracle can see this.
                        rec.dest_val = Some(v ^ (1u64 << (inj.next_u64() % 64)));
                        inj.disarm(FaultKind::CorruptRecord);
                    }
                }
            }
            let t = &mut self.threads[tid];
            let hist = t.ghist;
            let mut mispredicted = false;
            let mut end_block = false;

            // The wrong target to fetch down on a misprediction, when
            // one exists (None for unknown indirect targets).
            let mut wrong_target: Option<u64> = None;
            match rec.inst {
                Inst::Branch { off, .. } => {
                    self.result.cond_branches += 1;
                    let t = &mut self.threads[tid];
                    let pred = t.branch_pred.predict(rec.pc, t.ghist);
                    t.branch_pred.update(rec.pc, t.ghist, rec.taken, pred);
                    t.ghist.push(rec.taken);
                    if pred != rec.taken {
                        self.result.branch_mispredicts += 1;
                        mispredicted = true;
                        wrong_target = Some(if rec.taken {
                            rec.pc + 4 // predicted not-taken: fall through
                        } else {
                            rec.pc
                                .wrapping_add(4)
                                .wrapping_add((off as i64 as u64).wrapping_mul(4))
                        });
                    }
                    end_block = rec.taken;
                }
                Inst::Jump { link, .. } => {
                    // Direct target + perfect BTB: never mispredicts.
                    if link {
                        t.ras.push(rec.pc + 4);
                    }
                    end_block = true;
                }
                Inst::JumpReg { .. } => {
                    self.result.indirect_branches += 1;
                    let t = &mut self.threads[tid];
                    let predicted_target = if rec.inst.is_return() {
                        t.ras.pop()
                    } else {
                        t.indirect.predict(rec.pc, t.ghist)
                    };
                    t.indirect.update(rec.pc, t.ghist, rec.next_pc);
                    if rec.inst.is_call() {
                        t.ras.push(rec.pc + 4);
                    }
                    if predicted_target != Some(rec.next_pc) {
                        self.result.indirect_mispredicts += 1;
                        mispredicted = true;
                        wrong_target = predicted_target;
                    }
                    end_block = true;
                }
                _ => {}
            }

            let is_halt = rec.inst == Inst::Halt;
            let t = &mut self.threads[tid];
            t.window.push_back(DynInst {
                seq: 0,
                pc: rec.pc,
                inst: rec.inst,
                mem_addr: rec.mem_addr,
                exec_done: NOT_ISSUED,
                fetch_cycle: now,
                hist,
                dest: None,
                prev: None,
                mispredicted,
                wrong_path: on_wrong_path,
            });
            if let Some(o) = t.oracle.as_mut() {
                o.records.push_back(rec);
            }
            if mispredicted {
                // The seq the branch will get at rename: the thread's
                // latch renames FIFO with consecutive per-thread seqs.
                let branch_seq = t.seq + t.latch_len() as u64 - 1;
                if let (Some(wt), false) = (wrong_target, on_wrong_path) {
                    // Begin wrong-path fetch at the predicted target.
                    // Checkpoints restore the front end at the squash,
                    // which unwinds the rename map itself. The RAS
                    // checkpoint copies into a persistent buffer (no
                    // per-branch allocation).
                    t.wrong_path = Some(branch_seq);
                    t.wp_ghist = t.ghist;
                    t.wp_ras.copy_from(&t.ras);
                    t.peeked = None;
                    t.machine.enter_speculation(wt);
                } else {
                    // Unknown wrong target, or already on a wrong path
                    // (nested speculation): stall fetch until the
                    // branch resolves.
                    t.waiting_on_branch = Some(branch_seq);
                }
                break;
            }
            if is_halt {
                if !on_wrong_path {
                    t.halt_fetched = true;
                }
                break;
            }
            if end_block {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::Simulator;
    use ubrc_workloads::{workload_by_name, Scale};

    /// Fetch back-pressures on the fetch→rename latch: with dispatch
    /// stalled by a tiny ROB, the window's unrenamed tail fills to
    /// exactly `fetch_width * (frontend_stages + 1)` entries and no
    /// further, and the ROB itself never exceeds its capacity.
    #[test]
    fn fetch_stops_at_the_latch_capacity_when_dispatch_stalls() {
        let w = workload_by_name("crc", Scale::Tiny).unwrap();
        let mut config = SimConfig::paper_default();
        config.rob_entries = 4;
        let cap = config.fetch_width * (config.frontend_stages as usize + 1);
        let mut sim = Simulator::try_new_smt(vec![w.assemble().unwrap()], config).unwrap();
        let mut latch_peak = 0;
        for _ in 0..2_000 {
            sim.core.cycle();
            let t = &sim.core.threads[0];
            latch_peak = latch_peak.max(t.latch_len());
            assert!(t.latch_len() <= cap, "latch overflow");
            assert!(t.renamed <= 4, "dispatch ignored the ROB cap");
        }
        assert_eq!(
            latch_peak, cap,
            "the latch should fill while the ROB stalls"
        );
    }
}
