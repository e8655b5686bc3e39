//! Benchmark kernels and synthetic dataflow traces for the UBRC
//! register-caching simulator.
//!
//! The paper evaluated on SPECint 2000; those binaries (and the Alpha
//! toolchain) are not redistributable, so this crate provides the
//! substitute workload suite described in DESIGN.md: twelve hand-written
//! kernels spanning the behaviour space the paper's evaluation exercises
//! (pointer chasing, sorting, hashing, recursion, branchy dispatch,
//! floating-point pipelines), four extended FP/mixed kernels
//! ([`extended_suite`]) for the extension experiments, plus a
//! [`synthetic`] program generator with a controllable degree-of-use
//! distribution. One table names all 16 kernels' constructors;
//! [`suite`], [`extended_suite`], [`workload_by_name`], [`kernel_pairs`]
//! and [`kernel_quads`] build from it, each only the kernels it returns.
//!
//! Every kernel carries architectural checks — expected register or
//! memory values computed by a Rust mirror of the same algorithm — so the
//! whole stack (assembler, emulator, and by extension the timing
//! simulator's oracle) is validated end to end.
//!
//! # Examples
//!
//! ```
//! use ubrc_workloads::{suite, Scale};
//!
//! let workloads = suite(Scale::Tiny);
//! assert_eq!(workloads.len(), 12);
//! for w in &workloads {
//!     w.run_checks().unwrap(); // assemble, emulate, verify results
//! }
//! ```

#![warn(missing_docs)]

mod kernels;
mod kernels_ext;
pub mod synthetic;

pub use kernels::{
    extended_suite, kernel_names, kernel_pairs, kernel_quads, suite, workload_by_name, Scale,
};

use std::error::Error;
use std::fmt;
use ubrc_emu::Machine;
use ubrc_isa::{assemble, AsmError, Program};

/// An architectural check evaluated after a workload halts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Check {
    /// Integer register `reg` must equal `expected`.
    IntReg {
        /// Register index in `0..32`.
        reg: u8,
        /// Expected final value.
        expected: u64,
    },
    /// The quadword at data label `symbol` must equal `expected`.
    MemU64 {
        /// Data-segment label.
        symbol: String,
        /// Expected little-endian quadword (use `f64::to_bits` for
        /// floating-point results).
        expected: u64,
    },
}

/// Why a workload failed validation.
#[derive(Debug)]
pub enum WorkloadError {
    /// The kernel source failed to assemble.
    Asm(AsmError),
    /// The emulator faulted.
    Emu(ubrc_emu::EmuError),
    /// The program ran past its step budget without halting.
    DidNotHalt,
    /// A [`Check`] failed.
    CheckFailed {
        /// The failing check.
        check: Check,
        /// The value actually observed.
        actual: u64,
    },
    /// A [`Check::MemU64`] named a symbol the program does not define
    /// (a bug in the kernel generator, reported instead of panicking so
    /// the harness can say which workload is broken).
    UnknownCheckSymbol {
        /// The missing data symbol.
        symbol: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Asm(e) => write!(f, "assembly failed: {e}"),
            WorkloadError::Emu(e) => write!(f, "emulation failed: {e}"),
            WorkloadError::DidNotHalt => write!(f, "program did not halt within budget"),
            WorkloadError::CheckFailed { check, actual } => {
                write!(f, "check {check:?} failed: actual {actual:#x}")
            }
            WorkloadError::UnknownCheckSymbol { symbol } => {
                write!(f, "check references unknown data symbol `{symbol}`")
            }
        }
    }
}

impl Error for WorkloadError {}

impl From<AsmError> for WorkloadError {
    fn from(e: AsmError) -> Self {
        WorkloadError::Asm(e)
    }
}

impl From<ubrc_emu::EmuError> for WorkloadError {
    fn from(e: ubrc_emu::EmuError) -> Self {
        WorkloadError::Emu(e)
    }
}

/// A benchmark kernel: assembly source plus expected results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Short name used in experiment reports (e.g. `"qsort"`).
    pub name: &'static str,
    /// One-line description of what the kernel stresses.
    pub description: &'static str,
    /// Assembly source text.
    pub source: String,
    /// Architectural checks applied after the program halts.
    pub checks: Vec<Check>,
    /// Emulation step budget used by [`Workload::run_checks`].
    pub max_steps: u64,
}

impl Workload {
    /// Assembles the kernel.
    ///
    /// # Errors
    ///
    /// Returns the assembler error if the source is invalid (this would
    /// be a bug in the kernel generator).
    pub fn assemble(&self) -> Result<Program, AsmError> {
        assemble(&self.source)
    }

    /// Assembles, emulates to halt, and verifies every check.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] on assembly failure, an emulation
    /// fault, a missed halt, or a failed check.
    pub fn run_checks(&self) -> Result<Machine, WorkloadError> {
        let program = self.assemble()?;
        let mut m = Machine::new(program);
        m.run(self.max_steps)?;
        if !m.is_halted() {
            return Err(WorkloadError::DidNotHalt);
        }
        for check in &self.checks {
            let actual = match check {
                Check::IntReg { reg, .. } => m.int_reg(*reg),
                Check::MemU64 { symbol, .. } => {
                    let addr = m.program().symbol(symbol).ok_or_else(|| {
                        WorkloadError::UnknownCheckSymbol {
                            symbol: symbol.clone(),
                        }
                    })?;
                    m.read_u64(addr)?
                }
            };
            let expected = match check {
                Check::IntReg { expected, .. } | Check::MemU64 { expected, .. } => *expected,
            };
            if actual != expected {
                return Err(WorkloadError::CheckFailed {
                    check: check.clone(),
                    actual,
                });
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_failure_reports_actual_value() {
        let w = Workload {
            name: "bad",
            description: "deliberately failing check",
            source: "main: li r1, 2\n halt\n".into(),
            checks: vec![Check::IntReg {
                reg: 1,
                expected: 3,
            }],
            max_steps: 100,
        };
        match w.run_checks() {
            Err(WorkloadError::CheckFailed { actual, .. }) => assert_eq!(actual, 2),
            other => panic!("expected check failure, got {other:?}"),
        }
    }

    #[test]
    fn li_with_a_text_label_runs_to_halt() {
        // Pass 1 sizes `li` with a label as two instructions before the
        // label's address is known; a one-instruction expansion used to
        // leave every later label one instruction early.
        let target = ubrc_isa::TEXT_BASE + 12;
        let w = Workload {
            name: "li-label",
            description: "li of a text label, then a branch over it",
            source: "main: li r1, target\n b done\ntarget: addi r2, r0, 7\ndone: halt\n".into(),
            checks: vec![
                Check::IntReg {
                    reg: 1,
                    expected: target,
                },
                Check::IntReg {
                    reg: 2,
                    expected: 0,
                },
            ],
            max_steps: 100,
        };
        let m = w.run_checks().unwrap();
        assert_eq!(m.program().symbol("target"), Some(target));
    }

    #[test]
    fn non_halting_workload_is_detected() {
        let w = Workload {
            name: "spin",
            description: "infinite loop",
            source: "main: b main\n".into(),
            checks: vec![],
            max_steps: 1000,
        };
        assert!(matches!(w.run_checks(), Err(WorkloadError::DidNotHalt)));
    }
}
