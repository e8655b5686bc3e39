//! The UBRC instruction set: a 64-bit RISC ISA, an assembler, and a
//! disassembler.
//!
//! This crate is the substrate ISA for the reproduction of Butts & Sohi,
//! *Use-Based Register Caching with Decoupled Indexing* (ISCA 2004). The
//! paper's evaluation ran Alpha binaries; this ISA stands in for Alpha
//! with the same register model (32 integer + 32 floating-point
//! architectural registers over a unified physical file, `r0` hardwired
//! to zero) and the same execution latency classes (see [`ExecClass`]).
//!
//! # Examples
//!
//! Assemble and inspect a small program:
//!
//! ```
//! use ubrc_isa::assemble;
//!
//! let program = assemble(
//!     "main: li   r1, 4
//!      loop: subi r1, r1, 1
//!            bnez r1, loop
//!            halt",
//! )?;
//! assert_eq!(program.text.len(), 4);
//! assert_eq!(program.text[1].to_string(), "addi r1, r1, -1");
//! # Ok::<(), ubrc_isa::AsmError>(())
//! ```

#![warn(missing_docs)]

mod asm;
mod inst;
mod listing;
mod program;
mod reg;

pub use asm::{assemble, assemble_at, AsmError};
pub use inst::{AluImmOp, AluOp, BranchCond, CvtDir, ExecClass, FpuOp, Inst, MemWidth};
pub use listing::listing;
pub use program::{Program, DATA_BASE, TEXT_BASE};
pub use reg::{Reg, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS, RA, SP, ZERO};
