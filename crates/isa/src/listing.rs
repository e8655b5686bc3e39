//! Program listings (disassembly).
//!
//! The listing renders a [`Program`] the way an `objdump`-style tool
//! would: addresses, mnemonics, and label annotations from the symbol
//! table.

use crate::program::Program;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a disassembly listing of the text segment.
///
/// # Examples
///
/// ```
/// use ubrc_isa::{assemble, listing};
///
/// let p = assemble("main: li r1, 2\n loop: subi r1, r1, 1\n bnez r1, loop\n halt\n")?;
/// let text = listing(&p);
/// assert!(text.contains("loop:"));
/// assert!(text.contains("addi r1, r1, -1"));
/// # Ok::<(), ubrc_isa::AsmError>(())
/// ```
pub fn listing(program: &Program) -> String {
    // Invert the symbol table for label annotations.
    let mut labels: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for (name, &addr) in &program.symbols {
        labels.entry(addr).or_default().push(name);
    }
    let mut out = String::new();
    for (i, inst) in program.text.iter().enumerate() {
        let addr = program.text_base + 4 * i as u64;
        if let Some(names) = labels.get(&addr) {
            for name in names {
                let _ = writeln!(out, "{name}:");
            }
        }
        let marker = if addr == program.entry { ">" } else { " " };
        let _ = writeln!(out, "{marker}{addr:#010x}:  {inst}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn sample() -> Program {
        assemble(
            ".data\nv: .quad 9\n.text\n\
             main: la r1, v\n\
                   ld r2, 0(r1)\n\
             done: halt\n",
        )
        .unwrap()
    }

    #[test]
    fn listing_contains_labels_addresses_and_mnemonics() {
        let p = sample();
        let l = listing(&p);
        assert!(l.contains("main:"));
        assert!(l.contains("done:"));
        assert!(l.contains("ld r2, 0(r1)"));
        assert!(l.contains(">")); // entry marker
        assert!(l.contains("0x00001000"));
    }
}
