//! Per-instruction pipeline traces and Figure-3-style timeline
//! rendering.
//!
//! When [`crate::SimConfig::trace_instructions`] is non-zero, the
//! simulator records the stage timing of the first N instructions. The
//! [`Timeline::render`] output mirrors Figure 3 of the paper: one row
//! per instruction, one column per cycle, with markers for fetch,
//! dispatch, issue, execute, and retire.
//!
//! ```text
//! seq pc       instruction        2         3
//!                                 0123456789012345
//!   7 0x101c   ld r1, 8(r1)       F..........DI-XW
//! ```

use std::fmt::Write as _;

/// How one source operand was obtained (§2.2's communication paths).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperandPath {
    /// Caught on the bypass network at the given stage (0-based).
    Bypass(u8),
    /// Read from the register cache (hit).
    CacheHit,
    /// Missed in the register cache; fetched from the backing file.
    CacheMiss,
    /// Read from a monolithic or two-level register file.
    Storage,
}

/// Stage timing of one traced instruction.
#[derive(Clone, Debug)]
pub struct InstTrace {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Fetch address.
    pub pc: u64,
    /// Disassembly.
    pub asm: String,
    /// Cycle fetched.
    pub fetch: u64,
    /// Cycle dispatched into the window (after rename).
    pub dispatch: u64,
    /// Cycle issued (the final, successful issue).
    pub issue: u64,
    /// First execution cycle.
    pub exec_start: u64,
    /// Last execution cycle.
    pub exec_done: u64,
    /// Cycle retired.
    pub retire: u64,
    /// Paths by which the source operands arrived.
    pub operands: [Option<OperandPath>; 2],
    /// Times this instruction was squashed by miss replay.
    pub replays: u32,
    /// The instruction was fetched down a mispredicted path and was
    /// squashed at branch resolution (it never retires).
    pub wrong_path: bool,
}

/// An ordered collection of instruction traces.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Traces in dynamic order.
    pub insts: Vec<InstTrace>,
}

impl Timeline {
    /// Renders the timeline as a text pipeline diagram.
    ///
    /// Markers: `F` fetch, `D` dispatch, `I` issue, `X` execute,
    /// `W` writeback (last execute cycle), `R` retire, `.` in flight,
    /// `r` a replay (squashed issue). Rows are clipped to `max_width`
    /// columns starting at the earliest fetch cycle.
    pub fn render(&self, max_width: usize) -> String {
        let Some(first) = self.insts.first() else {
            return String::from("(empty timeline)\n");
        };
        let base = first.fetch;
        let mut out = String::new();
        let label_w = 38;
        let _ = writeln!(
            out,
            "{:<label_w$} cycle {base} +",
            "seq pc         instruction",
        );
        for t in &self.insts {
            let mut row = vec![b' '; max_width];
            let mark = |cycle: u64, ch: u8, row: &mut Vec<u8>| {
                let col = cycle.saturating_sub(base) as usize;
                if col < max_width {
                    row[col] = ch;
                }
            };
            // In-flight dots from fetch to retire first, then stage
            // letters on top.
            let end = t.retire.min(base + max_width as u64 - 1);
            for c in t.fetch..=end {
                mark(c, b'.', &mut row);
            }
            mark(t.fetch, b'F', &mut row);
            mark(t.dispatch, b'D', &mut row);
            mark(t.issue, b'I', &mut row);
            for c in t.exec_start..=t.exec_done.min(base + max_width as u64 - 1) {
                mark(c, b'X', &mut row);
            }
            mark(t.exec_done, b'W', &mut row);
            mark(t.retire, b'R', &mut row);
            let ops: String = t
                .operands
                .iter()
                .flatten()
                .map(|p| match p {
                    OperandPath::Bypass(0) => 'b',
                    OperandPath::Bypass(_) => 'B',
                    OperandPath::CacheHit => 'c',
                    OperandPath::CacheMiss => 'M',
                    OperandPath::Storage => 's',
                })
                .collect();
            let wp = if t.wrong_path { " WP" } else { "" };
            let label = format!("{:>3} {:#08x} {} [{}]{}", t.seq, t.pc, t.asm, ops, wp);
            let _ = writeln!(
                out,
                "{:<label_w$} {}",
                truncate(&label, label_w),
                String::from_utf8_lossy(&row).trim_end()
            );
        }
        out
    }
}

fn truncate(s: &str, w: usize) -> String {
    if s.len() <= w {
        s.to_string()
    } else {
        format!("{}…", &s[..w - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(seq: u64, fetch: u64, issue: u64, done: u64, retire: u64) -> InstTrace {
        InstTrace {
            seq,
            pc: 0x1000 + 4 * seq,
            asm: "add r1, r1, r1".into(),
            fetch,
            dispatch: fetch + 11,
            issue,
            exec_start: issue + 2,
            exec_done: done,
            retire,
            operands: [Some(OperandPath::Bypass(0)), None],
            replays: 0,
            wrong_path: false,
        }
    }

    #[test]
    fn render_marks_all_stages() {
        let tl = Timeline {
            insts: vec![t(0, 0, 12, 15, 16)],
        };
        let s = tl.render(40);
        let row = s.lines().nth(1).unwrap();
        assert!(row.contains('F'));
        assert!(row.contains('D'));
        assert!(row.contains('I'));
        assert!(row.contains('W'));
        assert!(row.contains('R'));
        assert!(row.contains("[b]"));
    }

    #[test]
    fn render_clips_to_width() {
        let tl = Timeline {
            insts: vec![t(0, 0, 500, 503, 504)],
        };
        let s = tl.render(30);
        for line in s.lines() {
            assert!(line.len() <= 38 + 1 + 30 + 8);
        }
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        let tl = Timeline::default();
        assert_eq!(tl.render(10), "(empty timeline)\n");
    }
}
