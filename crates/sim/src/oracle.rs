//! Lockstep co-simulation oracle.
//!
//! The thread's retired-state machine (`ThreadState::retired_machine`)
//! replays the program one instruction per *retirement*: because
//! retirement is in program order and wrong-path work never retires,
//! its next step must agree with the record the pipeline carried for
//! the retiring instruction — fetch PC, control-flow outcome, effective
//! address, and the architectural result bits. A mismatch means the
//! pipeline's record stream was corrupted somewhere between fetch and
//! retirement (or the two machines genuinely diverged), and is reported
//! structurally instead of panicking.

use crate::check::{DivergenceReport, RetiredEvent};
use std::collections::VecDeque;
use ubrc_emu::{EmuError, ExecRecord, StepOutcome};

/// How many retirements the divergence report replays.
const HISTORY: usize = 8;

pub(crate) struct Oracle {
    recent: VecDeque<RetiredEvent>,
}

impl Oracle {
    pub(crate) fn new() -> Self {
        Self {
            recent: VecDeque::with_capacity(HISTORY),
        }
    }

    fn report(
        &self,
        cycle: u64,
        actual: &ExecRecord,
        field: &'static str,
        expected: String,
        got: String,
    ) -> Box<DivergenceReport> {
        Box::new(DivergenceReport {
            cycle,
            seq: actual.seq,
            rob_slot: 0,
            pc: actual.pc,
            asm: actual.inst.to_string(),
            field,
            expected,
            actual: got,
            recent: self.recent.iter().cloned().collect(),
        })
    }

    /// Compares the retired-state machine's `step` with the record the
    /// pipeline is retiring.
    pub(crate) fn check_retire(
        &mut self,
        cycle: u64,
        actual: &ExecRecord,
        step: Result<StepOutcome, EmuError>,
    ) -> Result<(), Box<DivergenceReport>> {
        let expected = match step {
            Ok(StepOutcome::Executed(r)) => r,
            Ok(StepOutcome::Halted) => {
                return Err(self.report(
                    cycle,
                    actual,
                    "stream",
                    "machine already halted; nothing left to retire".into(),
                    format!("pipeline retired `{}`", actual.inst),
                ));
            }
            Err(e) => {
                return Err(self.report(
                    cycle,
                    actual,
                    "execution",
                    "fault-free step".into(),
                    format!("oracle machine faulted: {e}"),
                ));
            }
        };

        macro_rules! cmp {
            ($field:ident) => {
                if expected.$field != actual.$field {
                    return Err(self.report(
                        cycle,
                        actual,
                        stringify!($field),
                        format!("{:?}", expected.$field),
                        format!("{:?}", actual.$field),
                    ));
                }
            };
        }
        cmp!(seq);
        cmp!(pc);
        cmp!(inst);
        cmp!(next_pc);
        cmp!(taken);
        cmp!(mem_addr);
        cmp!(dest_val);

        if self.recent.len() == HISTORY {
            self.recent.pop_front();
        }
        self.recent.push_back(RetiredEvent {
            seq: actual.seq,
            cycle,
            pc: actual.pc,
            inst: actual.inst,
        });
        Ok(())
    }
}
