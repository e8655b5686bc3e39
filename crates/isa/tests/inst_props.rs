//! Property tests over every constructible instruction: it displays
//! without panicking, and its operands never name the zero register.

use proptest::prelude::*;
use ubrc_isa::{AluImmOp, AluOp, BranchCond, CvtDir, FpuOp, Inst, MemWidth, Reg};

fn any_int_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::int)
}

fn any_fp_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::fp)
}

fn any_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Nor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
    ]
}

fn any_alu_imm_op() -> impl Strategy<Value = AluImmOp> {
    prop_oneof![
        Just(AluImmOp::Addi),
        Just(AluImmOp::Andi),
        Just(AluImmOp::Ori),
        Just(AluImmOp::Xori),
        Just(AluImmOp::Slli),
        Just(AluImmOp::Srli),
        Just(AluImmOp::Srai),
        Just(AluImmOp::Slti),
        Just(AluImmOp::Sltiu),
    ]
}

fn any_width() -> impl Strategy<Value = MemWidth> {
    prop_oneof![
        Just(MemWidth::Byte),
        Just(MemWidth::Half),
        Just(MemWidth::Word),
        Just(MemWidth::Quad),
    ]
}

fn any_cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn any_fpu3_op() -> impl Strategy<Value = FpuOp> {
    prop_oneof![
        Just(FpuOp::Fadd),
        Just(FpuOp::Fsub),
        Just(FpuOp::Fmul),
        Just(FpuOp::Fdiv),
        Just(FpuOp::Fneg),
        Just(FpuOp::Fmov),
        Just(FpuOp::Feq),
        Just(FpuOp::Flt),
        Just(FpuOp::Fle),
    ]
}

fn any_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        (any_alu_op(), any_int_reg(), any_int_reg(), any_int_reg())
            .prop_map(|(op, rd, rs, rt)| Inst::Alu { op, rd, rs, rt }),
        (any_alu_imm_op(), any_int_reg(), any_int_reg(), any::<i16>())
            .prop_map(|(op, rd, rs, imm)| Inst::AluImm { op, rd, rs, imm }),
        (any_int_reg(), any::<u16>()).prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (
            any_width(),
            any::<bool>(),
            any_int_reg(),
            any_int_reg(),
            any::<i16>()
        )
            .prop_map(|(width, signed, rd, base, off)| Inst::Load {
                width,
                signed: signed || width == MemWidth::Quad,
                rd,
                base,
                off
            }),
        (any_fp_reg(), any_int_reg(), any::<i16>()).prop_map(|(rd, base, off)| Inst::Load {
            width: MemWidth::Quad,
            signed: true,
            rd,
            base,
            off
        }),
        (any_width(), any_int_reg(), any_int_reg(), any::<i16>()).prop_map(
            |(width, src, base, off)| Inst::Store {
                width,
                src,
                base,
                off
            }
        ),
        (any_fp_reg(), any_int_reg(), any::<i16>()).prop_map(|(src, base, off)| Inst::Store {
            width: MemWidth::Quad,
            src,
            base,
            off
        }),
        (any_cond(), any_int_reg(), any_int_reg(), any::<i16>())
            .prop_map(|(cond, rs, rt, off)| Inst::Branch { cond, rs, rt, off }),
        (any::<bool>(), -(1i32 << 25)..(1i32 << 25))
            .prop_map(|(link, off)| Inst::Jump { link, off }),
        (any::<bool>(), any_int_reg(), any_int_reg()).prop_map(|(link, rd, rs)| Inst::JumpReg {
            link,
            rd,
            rs
        }),
        (any_fpu3_op(), any_fp_reg(), any_fp_reg(), any_fp_reg()).prop_map(|(op, rd, rs, rt)| {
            let rd = if op.writes_int() {
                Reg::int(rd.bank_index())
            } else {
                rd
            };
            Inst::Fpu { op, rd, rs, rt }
        }),
        (any::<bool>(), 0u8..32, 0u8..32).prop_map(|(to_fp, a, b)| if to_fp {
            Inst::Cvt {
                dir: CvtDir::IntToFp,
                rd: Reg::fp(a),
                rs: Reg::int(b),
            }
        } else {
            Inst::Cvt {
                dir: CvtDir::FpToInt,
                rd: Reg::int(a),
                rs: Reg::fp(b),
            }
        }),
    ]
}

proptest! {
    #[test]
    fn display_never_panics(inst in any_inst()) {
        let _ = inst.to_string();
    }

    #[test]
    fn sources_and_dest_never_include_r0(inst in any_inst()) {
        prop_assert!(inst.dest() != Some(Reg::int(0)));
        for s in inst.sources().into_iter().flatten() {
            prop_assert!(!s.is_zero());
        }
    }
}
