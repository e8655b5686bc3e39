use crate::inst::Inst;
use std::collections::BTreeMap;

/// Default base address of the text (code) segment.
pub const TEXT_BASE: u64 = 0x1000;
/// Default base address of the data segment.
pub const DATA_BASE: u64 = 0x0010_0000;

/// An assembled program: a code segment, a data segment, and the symbol
/// table produced by the assembler.
///
/// Instructions are 4 bytes each; `text[i]` lives at address
/// `text_base + 4 * i`. Execution starts at [`Program::entry`] (the
/// address of the `main` label if one exists, otherwise `text_base`).
///
/// # Examples
///
/// ```
/// use ubrc_isa::assemble;
///
/// let prog = assemble("main: addi r1, r0, 5\n halt\n")?;
/// assert_eq!(prog.text.len(), 2);
/// assert_eq!(prog.entry, prog.text_base);
/// assert!(prog.fetch(prog.entry).is_some());
/// # Ok::<(), ubrc_isa::AsmError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Address of `text[0]`.
    pub text_base: u64,
    /// The instruction stream.
    pub text: Vec<Inst>,
    /// Address of `data[0]`.
    pub data_base: u64,
    /// Initial contents of the data segment.
    pub data: Vec<u8>,
    /// Initial program counter.
    pub entry: u64,
    /// Label addresses, code and data alike.
    pub symbols: BTreeMap<String, u64>,
}

impl Program {
    /// The instruction at byte address `pc`, or `None` outside the text
    /// segment (including unaligned addresses).
    pub fn fetch(&self, pc: u64) -> Option<Inst> {
        if pc < self.text_base || !(pc - self.text_base).is_multiple_of(4) {
            return None;
        }
        self.text.get(((pc - self.text_base) / 4) as usize).copied()
    }

    /// The address of a label.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn fetch_bounds_and_alignment() {
        let p = Program {
            text_base: 0x1000,
            text: vec![Inst::Nop, Inst::Halt],
            ..Program::default()
        };
        assert_eq!(p.fetch(0x1000), Some(Inst::Nop));
        assert_eq!(p.fetch(0x1004), Some(Inst::Halt));
        assert_eq!(p.fetch(0x1008), None);
        assert_eq!(p.fetch(0x1002), None);
        assert_eq!(p.fetch(0xff8), None);
    }
}
