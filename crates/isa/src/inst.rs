use crate::reg::Reg;
use std::fmt;

/// Register-register integer ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `rd = rs + rt`
    Add,
    /// `rd = rs - rt`
    Sub,
    /// `rd = rs * rt` (low 64 bits)
    Mul,
    /// `rd = rs / rt` (signed; division by zero yields 0)
    Div,
    /// `rd = rs % rt` (signed; modulo by zero yields `rs`)
    Rem,
    /// `rd = rs & rt`
    And,
    /// `rd = rs | rt`
    Or,
    /// `rd = rs ^ rt`
    Xor,
    /// `rd = !(rs | rt)`
    Nor,
    /// `rd = rs << (rt & 63)`
    Sll,
    /// `rd = (rs as u64) >> (rt & 63)`
    Srl,
    /// `rd = (rs as i64) >> (rt & 63)`
    Sra,
    /// `rd = (rs as i64) < (rt as i64)`
    Slt,
    /// `rd = (rs as u64) < (rt as u64)`
    Sltu,
}

/// Register-immediate integer ALU operations (16-bit immediate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// `rd = rs + sext(imm)`
    Addi,
    /// `rd = rs & zext(imm)`
    Andi,
    /// `rd = rs | zext(imm)`
    Ori,
    /// `rd = rs ^ zext(imm)`
    Xori,
    /// `rd = rs << (imm & 63)`
    Slli,
    /// `rd = (rs as u64) >> (imm & 63)`
    Srli,
    /// `rd = (rs as i64) >> (imm & 63)`
    Srai,
    /// `rd = (rs as i64) < sext(imm)`
    Slti,
    /// `rd = (rs as u64) < (sext(imm) as u64)`
    Sltiu,
}

/// Memory access width in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte
    Byte,
    /// 2 bytes
    Half,
    /// 4 bytes
    Word,
    /// 8 bytes
    Quad,
}

impl MemWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
            MemWidth::Quad => 8,
        }
    }
}

/// Branch comparison conditions (`rs` vs `rt`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `rs == rt`
    Eq,
    /// `rs != rt`
    Ne,
    /// signed `rs < rt`
    Lt,
    /// signed `rs >= rt`
    Ge,
    /// unsigned `rs < rt`
    Ltu,
    /// unsigned `rs >= rt`
    Geu,
}

/// Floating-point operations (double precision).
///
/// The compare variants (`Feq`, `Flt`, `Fle`) write an integer register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// `fd = fs + ft`
    Fadd,
    /// `fd = fs - ft`
    Fsub,
    /// `fd = fs * ft`
    Fmul,
    /// `fd = fs / ft`
    Fdiv,
    /// `fd = -fs` (`ft` ignored)
    Fneg,
    /// `fd = fs` (`ft` ignored)
    Fmov,
    /// `rd = (fs == ft) as u64`
    Feq,
    /// `rd = (fs < ft) as u64`
    Flt,
    /// `rd = (fs <= ft) as u64`
    Fle,
}

impl FpuOp {
    /// True for the compare operations, which write an integer register.
    pub const fn writes_int(self) -> bool {
        matches!(self, FpuOp::Feq | FpuOp::Flt | FpuOp::Fle)
    }
}

/// Direction of an int/float conversion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CvtDir {
    /// Integer register (as `i64`) to floating-point register.
    IntToFp,
    /// Floating-point register to integer register (truncating).
    FpToInt,
}

/// One decoded instruction of the UBRC ISA.
///
/// The ISA is a 64-bit RISC with fixed 32-bit encodings, 32 integer and 32
/// floating-point architectural registers (see [`Reg`]), PC-relative
/// branches, and absolute-offset jumps. It exists to feed the timing
/// simulator with realistic dataflow, standing in for the Alpha ISA the
/// paper used (see DESIGN.md).
///
/// # Examples
///
/// ```
/// use ubrc_isa::{AluOp, Inst, Reg};
///
/// let add = Inst::Alu { op: AluOp::Add, rd: Reg::int(3), rs: Reg::int(1), rt: Reg::int(2) };
/// assert_eq!(add.dest(), Some(Reg::int(3)));
/// assert_eq!(add.to_string(), "add r3, r1, r2");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Register-register integer ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// Register-immediate integer ALU operation.
    AluImm {
        /// Operation.
        op: AluImmOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// 16-bit immediate.
        imm: i16,
    },
    /// Load upper immediate: `rd = (imm as u64) << 16`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Immediate placed in bits 31..16.
        imm: u16,
    },
    /// Memory load into `rd` from `base + off`. `signed` selects sign
    /// extension for sub-quad widths; `rd` may be a floating-point
    /// register (for `fld`, which is always `Quad`).
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend sub-quad loads.
        signed: bool,
        /// Destination register (may be floating-point for `fld`).
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i16,
    },
    /// Memory store of `src` to `base + off`. `src` may be a
    /// floating-point register (for `fsd`, which is always `Quad`).
    Store {
        /// Access width.
        width: MemWidth,
        /// Data register (may be floating-point for `fsd`).
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i16,
    },
    /// Conditional PC-relative branch; `off` is in instructions relative
    /// to the next PC.
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// First compared register.
        rs: Reg,
        /// Second compared register.
        rt: Reg,
        /// Offset in instructions relative to the next PC.
        off: i16,
    },
    /// Unconditional PC-relative jump (`off` in instructions relative to
    /// the next PC); `link` writes the return address to `r31`.
    Jump {
        /// Write the return address to `r31`.
        link: bool,
        /// Offset in instructions relative to the next PC.
        off: i32,
    },
    /// Indirect jump to the address in `rs`; `link` writes the return
    /// address to `rd`. `jr rs` is `JumpReg { link: false, rd: r0, rs }`.
    JumpReg {
        /// Write the return address to `rd`.
        link: bool,
        /// Link register destination.
        rd: Reg,
        /// Register holding the target address.
        rs: Reg,
    },
    /// Floating-point operation.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination register (integer for the compares).
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register (ignored by `fneg`/`fmov`).
        rt: Reg,
    },
    /// Int/float conversion.
    Cvt {
        /// Conversion direction.
        dir: CvtDir,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// No operation (skipped by the fetch model, like the paper's nops).
    Nop,
    /// Stops the program.
    Halt,
}

/// Execution resource class of an instruction, with the latencies of
/// Table 1 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// 1-cycle integer ALU (6 units).
    IntAlu,
    /// 2-cycle branch resolution (2 units); includes jumps.
    Branch,
    /// 4-cycle integer multiplier (2 units).
    IntMul,
    /// 18-cycle integer divide (shares the multiplier units).
    IntDiv,
    /// 3-cycle floating-point ALU (4 units).
    FpAlu,
    /// 4-cycle floating-point multiply (2 units).
    FpMul,
    /// 18-cycle floating-point divide (shares the FP multiplier units).
    FpDiv,
    /// Load: 4-cycle load-to-use on an L1 hit (misses add memory time).
    Load,
    /// Store: 3 cycles from execute to earliest retirement.
    Store,
}

impl ExecClass {
    /// Nominal execution latency in cycles (L1-hit latency for loads).
    pub const fn latency(self) -> u32 {
        match self {
            ExecClass::IntAlu => 1,
            ExecClass::Branch => 2,
            ExecClass::IntMul => 4,
            ExecClass::IntDiv => 18,
            ExecClass::FpAlu => 3,
            ExecClass::FpMul => 4,
            ExecClass::FpDiv => 18,
            ExecClass::Load => 4,
            ExecClass::Store => 3,
        }
    }
}

impl Inst {
    /// The execution resource class (and hence latency) of the
    /// instruction. `Nop` and `Halt` execute on the integer ALUs.
    pub fn class(self) -> ExecClass {
        match self {
            Inst::Alu { op, .. } => match op {
                AluOp::Mul => ExecClass::IntMul,
                AluOp::Div | AluOp::Rem => ExecClass::IntDiv,
                _ => ExecClass::IntAlu,
            },
            Inst::AluImm { .. } | Inst::Lui { .. } | Inst::Nop | Inst::Halt => ExecClass::IntAlu,
            Inst::Load { .. } => ExecClass::Load,
            Inst::Store { .. } => ExecClass::Store,
            Inst::Branch { .. } | Inst::Jump { .. } | Inst::JumpReg { .. } => ExecClass::Branch,
            Inst::Fpu { op, .. } => match op {
                FpuOp::Fmul => ExecClass::FpMul,
                FpuOp::Fdiv => ExecClass::FpDiv,
                _ => ExecClass::FpAlu,
            },
            Inst::Cvt { .. } => ExecClass::FpAlu,
        }
    }

    /// The destination architectural register, if any.
    ///
    /// Writes to `r0` are reported as `None`: they are architecturally
    /// discarded, so rename allocates nothing for them.
    pub fn dest(self) -> Option<Reg> {
        let rd = match self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Lui { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Fpu { rd, .. }
            | Inst::Cvt { rd, .. } => rd,
            Inst::Jump { link: true, .. } => crate::reg::RA,
            Inst::JumpReg { link: true, rd, .. } => rd,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// The source architectural registers, in operand order.
    ///
    /// Reads of `r0` are omitted: they never consume a physical register
    /// value, so they create no use.
    pub fn sources(self) -> [Option<Reg>; 2] {
        let raw: [Option<Reg>; 2] = match self {
            Inst::Alu { rs, rt, .. } => [Some(rs), Some(rt)],
            Inst::AluImm { rs, .. } => [Some(rs), None],
            Inst::Lui { .. } | Inst::Jump { .. } | Inst::Nop | Inst::Halt => [None, None],
            Inst::Load { base, .. } => [Some(base), None],
            Inst::Store { src, base, .. } => [Some(src), Some(base)],
            Inst::Branch { rs, rt, .. } => [Some(rs), Some(rt)],
            Inst::JumpReg { rs, .. } => [Some(rs), None],
            Inst::Fpu { op, rs, rt, .. } => match op {
                FpuOp::Fneg | FpuOp::Fmov => [Some(rs), None],
                _ => [Some(rs), Some(rt)],
            },
            Inst::Cvt { rs, .. } => [Some(rs), None],
        };
        raw.map(|r| r.filter(|r| !r.is_zero()))
    }

    /// True for conditional branches only.
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// True for loads.
    pub fn is_load(self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// True for stores.
    pub fn is_store(self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// True for subroutine calls (they push the return address stack).
    pub fn is_call(self) -> bool {
        matches!(
            self,
            Inst::Jump { link: true, .. } | Inst::JumpReg { link: true, .. }
        )
    }

    /// True for returns: an indirect jump through `r31` without link
    /// (they pop the return address stack).
    pub fn is_return(self) -> bool {
        matches!(self, Inst::JumpReg { link: false, rs, .. } if rs == crate::reg::RA)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs, rt } => {
                let m = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Mul => "mul",
                    AluOp::Div => "div",
                    AluOp::Rem => "rem",
                    AluOp::And => "and",
                    AluOp::Or => "or",
                    AluOp::Xor => "xor",
                    AluOp::Nor => "nor",
                    AluOp::Sll => "sll",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                };
                write!(f, "{m} {rd}, {rs}, {rt}")
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let m = match op {
                    AluImmOp::Addi => "addi",
                    AluImmOp::Andi => "andi",
                    AluImmOp::Ori => "ori",
                    AluImmOp::Xori => "xori",
                    AluImmOp::Slli => "slli",
                    AluImmOp::Srli => "srli",
                    AluImmOp::Srai => "srai",
                    AluImmOp::Slti => "slti",
                    AluImmOp::Sltiu => "sltiu",
                };
                write!(f, "{m} {rd}, {rs}, {imm}")
            }
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Inst::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let m = match (width, signed, rd.is_fp()) {
                    (_, _, true) => "fld",
                    (MemWidth::Byte, true, _) => "lb",
                    (MemWidth::Byte, false, _) => "lbu",
                    (MemWidth::Half, true, _) => "lh",
                    (MemWidth::Half, false, _) => "lhu",
                    (MemWidth::Word, true, _) => "lw",
                    (MemWidth::Word, false, _) => "lwu",
                    (MemWidth::Quad, _, _) => "ld",
                };
                write!(f, "{m} {rd}, {off}({base})")
            }
            Inst::Store {
                width,
                src,
                base,
                off,
            } => {
                let m = match (width, src.is_fp()) {
                    (_, true) => "fsd",
                    (MemWidth::Byte, _) => "sb",
                    (MemWidth::Half, _) => "sh",
                    (MemWidth::Word, _) => "sw",
                    (MemWidth::Quad, _) => "sd",
                };
                write!(f, "{m} {src}, {off}({base})")
            }
            Inst::Branch { cond, rs, rt, off } => {
                let m = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{m} {rs}, {rt}, {off}")
            }
            Inst::Jump { link, off } => {
                write!(f, "{} {off}", if link { "jal" } else { "j" })
            }
            Inst::JumpReg { link, rd, rs } => {
                if link {
                    write!(f, "jalr {rd}, {rs}")
                } else {
                    write!(f, "jr {rs}")
                }
            }
            Inst::Fpu { op, rd, rs, rt } => {
                let m = match op {
                    FpuOp::Fadd => "fadd",
                    FpuOp::Fsub => "fsub",
                    FpuOp::Fmul => "fmul",
                    FpuOp::Fdiv => "fdiv",
                    FpuOp::Fneg => "fneg",
                    FpuOp::Fmov => "fmov",
                    FpuOp::Feq => "feq",
                    FpuOp::Flt => "flt",
                    FpuOp::Fle => "fle",
                };
                match op {
                    FpuOp::Fneg | FpuOp::Fmov => write!(f, "{m} {rd}, {rs}"),
                    _ => write!(f, "{m} {rd}, {rs}, {rt}"),
                }
            }
            Inst::Cvt { dir, rd, rs } => match dir {
                CvtDir::IntToFp => write!(f, "cvtif {rd}, {rs}"),
                CvtDir::FpToInt => write!(f, "cvtfi {rd}, {rs}"),
            },
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{RA, ZERO};

    #[test]
    fn dest_of_r0_write_is_none() {
        let i = Inst::AluImm {
            op: AluImmOp::Addi,
            rd: ZERO,
            rs: Reg::int(1),
            imm: 4,
        };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn sources_omit_r0() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::int(1),
            rs: ZERO,
            rt: Reg::int(2),
        };
        assert_eq!(i.sources(), [None, Some(Reg::int(2))]);
    }

    #[test]
    fn jal_writes_ra() {
        let i = Inst::Jump { link: true, off: 4 };
        assert_eq!(i.dest(), Some(RA));
        assert!(i.is_call());
        assert!(!i.is_return());
    }

    #[test]
    fn jr_ra_is_a_return() {
        let i = Inst::JumpReg {
            link: false,
            rd: ZERO,
            rs: RA,
        };
        assert!(i.is_return());
        assert_eq!(i.dest(), None);
        assert_eq!(i.sources(), [Some(RA), None]);
    }

    #[test]
    fn store_has_two_sources_and_no_dest() {
        let i = Inst::Store {
            width: MemWidth::Quad,
            src: Reg::int(4),
            base: Reg::int(5),
            off: 8,
        };
        assert_eq!(i.dest(), None);
        assert_eq!(i.sources(), [Some(Reg::int(4)), Some(Reg::int(5))]);
        assert!(i.is_store());
    }

    #[test]
    fn latency_classes_match_table1() {
        assert_eq!(ExecClass::IntAlu.latency(), 1);
        assert_eq!(ExecClass::Branch.latency(), 2);
        assert_eq!(ExecClass::IntMul.latency(), 4);
        assert_eq!(ExecClass::FpAlu.latency(), 3);
        assert_eq!(ExecClass::FpMul.latency(), 4);
        assert_eq!(ExecClass::FpDiv.latency(), 18);
        assert_eq!(ExecClass::Load.latency(), 4);
        assert_eq!(ExecClass::Store.latency(), 3);
    }

    #[test]
    fn class_dispatch() {
        let mul = Inst::Alu {
            op: AluOp::Mul,
            rd: Reg::int(1),
            rs: Reg::int(2),
            rt: Reg::int(3),
        };
        assert_eq!(mul.class(), ExecClass::IntMul);
        let fdiv = Inst::Fpu {
            op: FpuOp::Fdiv,
            rd: Reg::fp(1),
            rs: Reg::fp(2),
            rt: Reg::fp(3),
        };
        assert_eq!(fdiv.class(), ExecClass::FpDiv);
        assert_eq!(Inst::Nop.class(), ExecClass::IntAlu);
    }

    #[test]
    fn fp_compare_writes_int() {
        assert!(FpuOp::Flt.writes_int());
        assert!(!FpuOp::Fadd.writes_int());
    }

    #[test]
    fn fmov_has_single_source() {
        let i = Inst::Fpu {
            op: FpuOp::Fmov,
            rd: Reg::fp(1),
            rs: Reg::fp(2),
            rt: Reg::fp(0),
        };
        assert_eq!(i.sources(), [Some(Reg::fp(2)), None]);
    }

    #[test]
    fn display_roundtrip_examples() {
        let i = Inst::Load {
            width: MemWidth::Quad,
            signed: true,
            rd: Reg::int(2),
            base: Reg::int(3),
            off: -8,
        };
        assert_eq!(i.to_string(), "ld r2, -8(r3)");
        assert_eq!(Inst::Halt.to_string(), "halt");
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
        assert_eq!(MemWidth::Quad.bytes(), 8);
    }
}
