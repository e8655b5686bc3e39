//! Property test of the emulator's paged memory: byte for byte it must
//! behave like one flat, zero-filled array of `mem_size` bytes, at page
//! boundaries, at the top of the address space and across rolled-back
//! wrong paths.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ubrc_emu::{EmuError, Machine, StepOutcome};
use ubrc_isa::{Inst, MemWidth, Program, Reg};

const PAGE: u64 = 4096;
const TEXT_BASE: u64 = 0x1000;
/// The data segment starts just below the first page boundary, so it
/// straddles it.
const DATA_BASE: u64 = PAGE - 8;

/// The memory instructions under test, as (width, load, sign-extend):
/// `sb sh sw sd lb lbu lh lhu lw lwu ld`.
const ACCESSES: [(MemWidth, bool, bool); 11] = [
    (MemWidth::Byte, false, false),
    (MemWidth::Half, false, false),
    (MemWidth::Word, false, false),
    (MemWidth::Quad, false, false),
    (MemWidth::Byte, true, true),
    (MemWidth::Byte, true, false),
    (MemWidth::Half, true, true),
    (MemWidth::Half, true, false),
    (MemWidth::Word, true, true),
    (MemWidth::Word, true, false),
    (MemWidth::Quad, true, false),
];

/// A program of `jr r5`, then each access of [`ACCESSES`] followed by
/// another `jr r5`. Access `k` is reached by pointing r5 at it; it
/// stores r2 or loads r3 at the address in r1, and returns to a `jr`.
fn menu(data: Vec<u8>) -> Program {
    let jr = Inst::JumpReg {
        link: false,
        rd: Reg::int(0),
        rs: Reg::int(5),
    };
    let mut text = vec![jr];
    for &(width, load, signed) in &ACCESSES {
        text.push(if load {
            Inst::Load {
                width,
                signed,
                rd: Reg::int(3),
                base: Reg::int(1),
                off: 0,
            }
        } else {
            Inst::Store {
                width,
                src: Reg::int(2),
                base: Reg::int(1),
                off: 0,
            }
        });
        text.push(jr);
    }
    Program {
        text_base: TEXT_BASE,
        text,
        data_base: DATA_BASE,
        data,
        entry: TEXT_BASE,
        symbols: Default::default(),
    }
}

/// The address of access `k` in [`menu`]'s text.
fn access_pc(k: usize) -> u64 {
    TEXT_BASE + 4 * (2 * k as u64 + 1)
}

/// The little-endian value of the model's `n` bytes at `a`.
fn model_load(model: &[u8], a: u64, n: u64) -> u64 {
    let mut buf = [0u8; 8];
    buf[..n as usize].copy_from_slice(&model[a as usize..(a + n) as usize]);
    u64::from_le_bytes(buf)
}

/// Compares every byte of the machine's memory with the model.
fn assert_same_memory(m: &Machine, model: &[u8]) -> Result<(), TestCaseError> {
    let last = model.len() as u64 - 8;
    for a in (0..last).step_by(8).chain([last]) {
        prop_assert_eq!(m.read_u64(a), Ok(model_load(model, a, 8)), "at {:#x}", a);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each step is `(op, at_end, page, delta, value)`. An `op` below
    /// 11 runs that access of [`ACCESSES`]; 11 enters a wrong path and
    /// 12 rolls it back. The access goes to `delta` bytes from the
    /// top of memory if `at_end`, else from the boundary at `page`
    /// pages. An access that faults is retried at the page boundary,
    /// which is always in range, so the program can go on.
    #[test]
    fn paged_memory_matches_a_flat_model(
        pages in 4u64..6,
        tail in prop_oneof![Just(0u64), 1u64..PAGE],
        data in vec(any::<u8>(), 0..17),
        speculate in any::<bool>(),
        steps in vec((0usize..13, any::<bool>(), 1u64..4, -10i64..10, any::<u64>()), 1..60),
    ) {
        let mem_size = pages * PAGE + tail;
        let mut m = Machine::try_with_mem_size(menu(data.clone()), mem_size as usize).unwrap();
        let mut model = vec![0u8; mem_size as usize];
        model[DATA_BASE as usize..DATA_BASE as usize + data.len()].copy_from_slice(&data);
        let mut before_wrong_path: Option<Vec<u8>> = None;

        for (op, at_end, page, delta, value) in steps {
            if op == 11 {
                if speculate && before_wrong_path.is_none() {
                    m.enter_speculation(m.pc());
                    before_wrong_path = Some(model.clone());
                }
                continue;
            }
            if op == 12 {
                if let Some(saved) = before_wrong_path.take() {
                    m.abort_speculation();
                    model = saved;
                    assert_same_memory(&m, &model)?;
                }
                continue;
            }
            let (width, load, signed) = ACCESSES[op];
            let n = width.bytes();
            let in_range = (page * PAGE).wrapping_add_signed(delta);
            let mut addr = if at_end {
                mem_size.wrapping_add_signed(delta)
            } else {
                in_range
            };
            m.set_int_reg(5, access_pc(op));
            prop_assert!(matches!(m.step(), Ok(StepOutcome::Executed(_))));
            m.set_int_reg(1, addr);
            m.set_int_reg(2, value);
            let mut outcome = m.step();
            if addr + n > mem_size {
                prop_assert_eq!(outcome, Err(EmuError::BadAccess { pc: access_pc(op), addr }));
                addr = in_range;
                m.set_int_reg(1, addr);
                outcome = m.step();
            }
            let record = match outcome {
                Ok(StepOutcome::Executed(record)) => record,
                other => return Err(format!("{other:?} at {addr:#x}")),
            };
            prop_assert_eq!(record.mem_addr, Some(addr));
            if load {
                let raw = model_load(&model, addr, n);
                let shift = 64 - 8 * n as u32;
                let expected = if signed { ((raw << shift) as i64 >> shift) as u64 } else { raw };
                prop_assert_eq!(record.dest_val, Some(expected), "{:?} load at {:#x}", width, addr);
            } else {
                let a = addr as usize;
                model[a..a + n as usize].copy_from_slice(&value.to_le_bytes()[..n as usize]);
            }
        }
        assert_same_memory(&m, &model)?;
        if let Some(saved) = before_wrong_path {
            m.abort_speculation();
            assert_same_memory(&m, &saved)?;
        }
    }
}
