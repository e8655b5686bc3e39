use crate::record::ExecRecord;
use std::error::Error;
use std::fmt;
use ubrc_isa::{AluImmOp, AluOp, BranchCond, CvtDir, FpuOp, Inst, MemWidth, Program, Reg};

/// Default address space: 16 MiB, enough for every bundled workload.
/// It bounds addresses; it is not allocated. Memory is mapped one page
/// at a time, on the page's first write, so a machine holds only the
/// pages written so far, the data segment's included.
pub const DEFAULT_MEM_SIZE: usize = 16 << 20;

/// Bytes per page of emulator memory.
const PAGE_SIZE: usize = 4096;

/// Runtime error raised by the emulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmuError {
    /// The program counter left the text segment (or became unaligned).
    BadPc {
        /// The offending program counter.
        pc: u64,
    },
    /// A load or store touched memory outside the address space.
    BadAccess {
        /// PC of the faulting instruction.
        pc: u64,
        /// The out-of-range effective address.
        addr: u64,
    },
    /// The program's data segment does not fit in the machine's memory.
    ProgramTooLarge {
        /// First byte past the end of the data segment.
        required: u64,
        /// Bytes of memory actually available.
        available: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadPc { pc } => write!(f, "bad program counter {pc:#x}"),
            EmuError::BadAccess { pc, addr } => {
                write!(f, "bad memory access to {addr:#x} at pc {pc:#x}")
            }
            EmuError::ProgramTooLarge {
                required,
                available,
            } => {
                write!(
                    f,
                    "data segment needs {required} bytes but only {available} are available"
                )
            }
        }
    }
}

impl Error for EmuError {}

/// Result of a single [`Machine::step`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StepOutcome {
    /// An instruction executed (including the `halt` itself).
    Executed(ExecRecord),
    /// The machine had already halted; nothing executed.
    Halted,
}

/// Undo-log entry recorded while executing speculatively.
#[derive(Clone, Debug)]
enum Undo {
    IntReg(u8, u64),
    FpReg(u8, f64),
    Mem(u64, [u8; 8], u8),
}

/// Snapshot taken when speculation begins.
#[derive(Clone, Debug)]
struct SpecCheckpoint {
    pc: u64,
    icount: u64,
    halted: bool,
}

/// The architectural state of one program: registers, memory, and PC.
///
/// See the crate docs for an end-to-end example.
pub struct Machine {
    program: std::sync::Arc<Program>,
    /// Little-endian memory, page `i` holding addresses
    /// `i * PAGE_SIZE..(i + 1) * PAGE_SIZE`. A page is `None`, and reads
    /// as zero, until its first write.
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// The address bound: an access that reaches it faults.
    mem_size: usize,
    int_regs: [u64; 32],
    fp_regs: [f64; 32],
    pc: u64,
    halted: bool,
    icount: u64,
    spec: Option<SpecCheckpoint>,
    undo: Vec<Undo>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.pc)
            .field("halted", &self.halted)
            .field("icount", &self.icount)
            .field("mem_size", &self.mem_size)
            .finish_non_exhaustive()
    }
}

impl Clone for Machine {
    fn clone(&self) -> Self {
        Self {
            program: std::sync::Arc::clone(&self.program),
            pages: self.pages.clone(),
            spec: self.spec.clone(),
            undo: self.undo.clone(),
            ..*self
        }
    }

    /// Makes `self` a copy of `source` in place. It copies only the
    /// pages `source` has mapped: a page mapped on both sides is
    /// overwritten in its existing buffer, a page only `self` had
    /// mapped is freed, and the page table itself is reused.
    /// Machine-check recovery restores a thread's machine this way.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            program,
            pages,
            mem_size,
            int_regs,
            fp_regs,
            pc,
            halted,
            icount,
            spec,
            undo,
        } = source;
        self.program.clone_from(program);
        self.pages.clone_from(pages);
        self.mem_size = *mem_size;
        self.int_regs = *int_regs;
        self.fp_regs = *fp_regs;
        self.pc = *pc;
        self.halted = *halted;
        self.icount = *icount;
        self.spec.clone_from(spec);
        self.undo.clone_from(undo);
    }
}

impl Machine {
    /// Creates a machine with [`DEFAULT_MEM_SIZE`] bytes of address
    /// space and loads the program (data segment copied in, stack
    /// pointer at the top of memory).
    ///
    /// # Panics
    ///
    /// Panics if the program's data segment does not fit in memory.
    /// Use [`Machine::try_with_mem_size`] for a fallible variant.
    pub fn new(program: Program) -> Self {
        match Self::try_with_mem_size(program, DEFAULT_MEM_SIZE) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a machine with `mem_size` bytes of address space:
    /// returns [`EmuError::ProgramTooLarge`] instead of panicking when
    /// the data segment does not fit.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::ProgramTooLarge`] when the program's data
    /// segment extends past `mem_size`.
    pub fn try_with_mem_size(program: Program, mem_size: usize) -> Result<Self, EmuError> {
        Self::from_shared(std::sync::Arc::new(program), mem_size)
    }

    /// Creates a fresh machine — initial architectural state, memory
    /// reloaded from the data segment — over the *same* program, shared
    /// rather than deep-copied. This is how the lockstep oracle gets
    /// its second machine without duplicating the instruction stream.
    /// Like any new machine, it maps only the data segment's pages.
    pub fn fork_fresh(&self) -> Self {
        Self::from_shared(std::sync::Arc::clone(&self.program), self.mem_size)
            .expect("the source machine already loaded this program")
    }

    fn from_shared(program: std::sync::Arc<Program>, mem_size: usize) -> Result<Self, EmuError> {
        let base = program.data_base as usize;
        let end = base + program.data.len();
        if end > mem_size {
            return Err(EmuError::ProgramTooLarge {
                required: end as u64,
                available: mem_size as u64,
            });
        }
        let mut int_regs = [0u64; 32];
        int_regs[ubrc_isa::SP.index() as usize] = (mem_size as u64 - 64) & !15;
        let mut machine = Self {
            pc: program.entry,
            program: std::sync::Arc::clone(&program),
            pages: vec![None; mem_size.div_ceil(PAGE_SIZE)],
            mem_size,
            int_regs,
            fp_regs: [0.0; 32],
            halted: false,
            icount: 0,
            spec: None,
            undo: Vec::new(),
        };
        machine.write_bytes(base, &program.data);
        Ok(machine)
    }

    /// The current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// True once a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn instruction_count(&self) -> u64 {
        self.icount
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Reads integer register `i` (`r0` is always zero).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn int_reg(&self, i: u8) -> u64 {
        self.int_regs[i as usize]
    }

    /// Reads floating-point register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn fp_reg(&self, i: u8) -> f64 {
        self.fp_regs[i as usize]
    }

    /// Sets integer register `i` (writes to `r0` are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn set_int_reg(&mut self, i: u8, v: u64) {
        if i != 0 {
            self.int_regs[i as usize] = v;
        }
    }

    fn reg_u64(&self, r: Reg) -> u64 {
        debug_assert!(r.is_int());
        self.int_regs[r.bank_index() as usize]
    }

    fn reg_f64(&self, r: Reg) -> f64 {
        debug_assert!(r.is_fp());
        self.fp_regs[r.bank_index() as usize]
    }

    fn write_reg(&mut self, r: Reg, v: u64) {
        if r.is_int() {
            if !r.is_zero() {
                if self.spec.is_some() {
                    self.undo.push(Undo::IntReg(
                        r.bank_index(),
                        self.int_regs[r.bank_index() as usize],
                    ));
                }
                self.int_regs[r.bank_index() as usize] = v;
            }
        } else {
            self.write_fp(r, f64::from_bits(v));
        }
    }

    fn write_fp(&mut self, r: Reg, v: f64) {
        debug_assert!(r.is_fp());
        if self.spec.is_some() {
            self.undo.push(Undo::FpReg(
                r.bank_index(),
                self.fp_regs[r.bank_index() as usize],
            ));
        }
        self.fp_regs[r.bank_index() as usize] = v;
    }

    /// Copies the bytes at `a..a + out.len()` into `out`. An unmapped
    /// page reads as zero and stays unmapped. The caller has checked
    /// the range against `mem_size`.
    fn read_bytes(&self, a: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let (page, off) = ((a + done) / PAGE_SIZE, (a + done) % PAGE_SIZE);
            let n = (out.len() - done).min(PAGE_SIZE - off);
            let dst = &mut out[done..done + n];
            match &self.pages[page] {
                Some(bytes) => dst.copy_from_slice(&bytes[off..off + n]),
                None => dst.fill(0),
            }
            done += n;
        }
    }

    /// Copies `src` to the bytes at `a..a + src.len()`, mapping each
    /// page on its first write. The caller has checked the range
    /// against `mem_size`.
    fn write_bytes(&mut self, a: usize, src: &[u8]) {
        let mut done = 0;
        while done < src.len() {
            let (page, off) = ((a + done) / PAGE_SIZE, (a + done) % PAGE_SIZE);
            let n = (src.len() - done).min(PAGE_SIZE - off);
            let bytes = self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_SIZE]));
            bytes[off..off + n].copy_from_slice(&src[done..done + n]);
            done += n;
        }
    }

    /// Reads `width` bytes at `addr`, little-endian.
    fn mem_read(&self, pc: u64, addr: u64, width: MemWidth) -> Result<u64, EmuError> {
        let n = width.bytes() as usize;
        let a = addr as usize;
        if addr.checked_add(width.bytes()).is_none() || a + n > self.mem_size {
            return Err(EmuError::BadAccess { pc, addr });
        }
        let mut buf = [0u8; 8];
        self.read_bytes(a, &mut buf[..n]);
        Ok(u64::from_le_bytes(buf))
    }

    fn mem_write(&mut self, pc: u64, addr: u64, width: MemWidth, v: u64) -> Result<(), EmuError> {
        let n = width.bytes() as usize;
        let a = addr as usize;
        if addr.checked_add(width.bytes()).is_none() || a + n > self.mem_size {
            return Err(EmuError::BadAccess { pc, addr });
        }
        if self.spec.is_some() {
            let mut old = [0u8; 8];
            self.read_bytes(a, &mut old[..n]);
            self.undo.push(Undo::Mem(addr, old, n as u8));
        }
        self.write_bytes(a, &v.to_le_bytes()[..n]);
        Ok(())
    }

    /// Reads a 64-bit value from memory (for tests and workload setup).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::BadAccess`] when out of range.
    pub fn read_u64(&self, addr: u64) -> Result<u64, EmuError> {
        self.mem_read(self.pc, addr, MemWidth::Quad)
    }

    /// Writes a 64-bit value to memory (for tests and workload setup).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::BadAccess`] when out of range.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), EmuError> {
        self.mem_write(self.pc, addr, MemWidth::Quad, v)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on a bad PC or memory fault; the machine
    /// state is unspecified-but-safe afterwards.
    pub fn step(&mut self) -> Result<StepOutcome, EmuError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let inst = self.program.fetch(pc).ok_or(EmuError::BadPc { pc })?;
        let mut next_pc = pc + 4;
        let mut taken = false;
        let mut mem_addr = None;
        let mut dest_val = None;

        match inst {
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
            }
            Inst::Alu { op, rd, rs, rt } => {
                let a = self.reg_u64(rs);
                let b = self.reg_u64(rt);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            (a as i64).wrapping_div(b as i64) as u64
                        }
                    }
                    AluOp::Rem => {
                        if b == 0 {
                            a
                        } else {
                            (a as i64).wrapping_rem(b as i64) as u64
                        }
                    }
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Nor => !(a | b),
                    AluOp::Sll => a << (b & 63),
                    AluOp::Srl => a >> (b & 63),
                    AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
                    AluOp::Slt => ((a as i64) < (b as i64)) as u64,
                    AluOp::Sltu => (a < b) as u64,
                };
                self.write_reg(rd, v);
                dest_val = Some(v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let a = self.reg_u64(rs);
                let se = imm as i64 as u64;
                let ze = imm as u16 as u64;
                let v = match op {
                    AluImmOp::Addi => a.wrapping_add(se),
                    AluImmOp::Andi => a & ze,
                    AluImmOp::Ori => a | ze,
                    AluImmOp::Xori => a ^ ze,
                    AluImmOp::Slli => a << (imm as u16 & 63),
                    AluImmOp::Srli => a >> (imm as u16 & 63),
                    AluImmOp::Srai => ((a as i64) >> (imm as u16 & 63)) as u64,
                    AluImmOp::Slti => ((a as i64) < imm as i64) as u64,
                    AluImmOp::Sltiu => (a < se) as u64,
                };
                self.write_reg(rd, v);
                dest_val = Some(v);
            }
            Inst::Lui { rd, imm } => {
                let v = (imm as u64) << 16;
                self.write_reg(rd, v);
                dest_val = Some(v);
            }
            Inst::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let addr = self.reg_u64(base).wrapping_add(off as i64 as u64);
                mem_addr = Some(addr);
                let raw = self.mem_read(pc, addr, width)?;
                let v = if signed && width != MemWidth::Quad {
                    let shift = 64 - 8 * width.bytes();
                    ((raw << shift) as i64 >> shift) as u64
                } else {
                    raw
                };
                self.write_reg(rd, v);
                dest_val = Some(v);
            }
            Inst::Store {
                width,
                src,
                base,
                off,
            } => {
                let addr = self.reg_u64(base).wrapping_add(off as i64 as u64);
                mem_addr = Some(addr);
                let v = if src.is_fp() {
                    self.reg_f64(src).to_bits()
                } else {
                    self.reg_u64(src)
                };
                self.mem_write(pc, addr, width, v)?;
                dest_val = Some(v);
            }
            Inst::Branch { cond, rs, rt, off } => {
                let a = self.reg_u64(rs);
                let b = self.reg_u64(rt);
                taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i64) < (b as i64),
                    BranchCond::Ge => (a as i64) >= (b as i64),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = pc
                        .wrapping_add(4)
                        .wrapping_add((off as i64 as u64).wrapping_mul(4));
                }
            }
            Inst::Jump { link, off } => {
                taken = true;
                if link {
                    self.write_reg(ubrc_isa::RA, pc + 4);
                    dest_val = Some(pc + 4);
                }
                next_pc = pc
                    .wrapping_add(4)
                    .wrapping_add((off as i64 as u64).wrapping_mul(4));
            }
            Inst::JumpReg { link, rd, rs } => {
                taken = true;
                let target = self.reg_u64(rs);
                if link {
                    self.write_reg(rd, pc + 4);
                    dest_val = Some(pc + 4);
                }
                next_pc = target;
            }
            Inst::Fpu { op, rd, rs, rt } => {
                let a = self.reg_f64(rs);
                enum FpuResult {
                    Fp(f64),
                    Int(u64),
                }
                let v = match op {
                    FpuOp::Fadd => FpuResult::Fp(a + self.reg_f64(rt)),
                    FpuOp::Fsub => FpuResult::Fp(a - self.reg_f64(rt)),
                    FpuOp::Fmul => FpuResult::Fp(a * self.reg_f64(rt)),
                    FpuOp::Fdiv => FpuResult::Fp(a / self.reg_f64(rt)),
                    FpuOp::Fneg => FpuResult::Fp(-a),
                    FpuOp::Fmov => FpuResult::Fp(a),
                    FpuOp::Feq => FpuResult::Int((a == self.reg_f64(rt)) as u64),
                    FpuOp::Flt => FpuResult::Int((a < self.reg_f64(rt)) as u64),
                    FpuOp::Fle => FpuResult::Int((a <= self.reg_f64(rt)) as u64),
                };
                match v {
                    FpuResult::Fp(x) => {
                        self.write_fp(rd, x);
                        dest_val = Some(x.to_bits());
                    }
                    FpuResult::Int(x) => {
                        self.write_reg(rd, x);
                        dest_val = Some(x);
                    }
                }
            }
            Inst::Cvt { dir, rd, rs } => match dir {
                CvtDir::IntToFp => {
                    let v = self.reg_u64(rs) as i64 as f64;
                    self.write_fp(rd, v);
                    dest_val = Some(v.to_bits());
                }
                CvtDir::FpToInt => {
                    let v = self.reg_f64(rs) as i64 as u64;
                    self.write_reg(rd, v);
                    dest_val = Some(v);
                }
            },
        }

        if self.halted {
            next_pc = pc;
        }
        let record = ExecRecord {
            seq: self.icount,
            pc,
            inst,
            next_pc,
            taken,
            mem_addr,
            dest_val,
        };
        self.pc = next_pc;
        self.icount += 1;
        Ok(StepOutcome::Executed(record))
    }

    /// Begins speculative (wrong-path) execution at `wrong_pc`. All
    /// architectural effects from this point are recorded in an undo
    /// log; [`Machine::abort_speculation`] rolls them back. Used by the
    /// timing simulator to fetch down mispredicted branch paths.
    ///
    /// # Panics
    ///
    /// Panics if the machine is already speculating (the timing model
    /// stalls on nested mispredictions instead of nesting wrong paths).
    pub fn enter_speculation(&mut self, wrong_pc: u64) {
        assert!(self.spec.is_none(), "nested speculation is not supported");
        self.spec = Some(SpecCheckpoint {
            pc: self.pc,
            icount: self.icount,
            halted: self.halted,
        });
        self.undo.clear();
        self.pc = wrong_pc;
        self.halted = false;
    }

    /// True while executing a wrong path begun by
    /// [`Machine::enter_speculation`].
    pub fn in_speculation(&self) -> bool {
        self.spec.is_some()
    }

    /// Rolls back every effect of the current speculation and resumes
    /// the correct path.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not speculating.
    pub fn abort_speculation(&mut self) {
        let cp = self.spec.take().expect("not speculating");
        // Taken out so the replay can write memory; put back to keep
        // its allocation for the next wrong path.
        let mut log = std::mem::take(&mut self.undo);
        for undo in log.drain(..).rev() {
            match undo {
                Undo::IntReg(i, v) => self.int_regs[i as usize] = v,
                Undo::FpReg(i, v) => self.fp_regs[i as usize] = v,
                Undo::Mem(addr, old, n) => self.write_bytes(addr as usize, &old[..n as usize]),
            }
        }
        self.undo = log;
        self.pc = cp.pc;
        self.icount = cp.icount;
        self.halted = cp.halted;
    }

    /// Runs until `halt` or until `max_steps` instructions have executed.
    /// Returns the number of instructions executed by this call.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EmuError`] encountered.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, EmuError> {
        let mut n = 0;
        while n < max_steps {
            match self.step()? {
                StepOutcome::Executed(_) => n += 1,
                StepOutcome::Halted => break,
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubrc_isa::assemble;

    fn run_asm(src: &str) -> Machine {
        let p = assemble(src).expect("assembles");
        let mut m = Machine::new(p);
        m.run(1_000_000).expect("runs");
        assert!(m.is_halted(), "program did not halt");
        m
    }

    #[test]
    fn arithmetic_and_logic() {
        let m = run_asm(
            "main: li r1, 7\n\
                   li r2, 3\n\
                   add r3, r1, r2\n\
                   sub r4, r1, r2\n\
                   mul r5, r1, r2\n\
                   div r6, r1, r2\n\
                   rem r7, r1, r2\n\
                   and r8, r1, r2\n\
                   or  r9, r1, r2\n\
                   xor r10, r1, r2\n\
                   halt\n",
        );
        assert_eq!(m.int_reg(3), 10);
        assert_eq!(m.int_reg(4), 4);
        assert_eq!(m.int_reg(5), 21);
        assert_eq!(m.int_reg(6), 2);
        assert_eq!(m.int_reg(7), 1);
        assert_eq!(m.int_reg(8), 3);
        assert_eq!(m.int_reg(9), 7);
        assert_eq!(m.int_reg(10), 4);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let m = run_asm(
            "main: li r1, 9\n\
                   div r2, r1, r0\n\
                   rem r3, r1, r0\n\
                   halt\n",
        );
        assert_eq!(m.int_reg(2), 0);
        assert_eq!(m.int_reg(3), 9);
    }

    #[test]
    fn shifts_and_compares() {
        let m = run_asm(
            "main: li r1, 1\n\
                   slli r2, r1, 40\n\
                   li r3, -8\n\
                   srai r4, r3, 2\n\
                   srli r5, r3, 60\n\
                   slt r6, r3, r1\n\
                   sltu r7, r3, r1\n\
                   halt\n",
        );
        assert_eq!(m.int_reg(2), 1 << 40);
        assert_eq!(m.int_reg(4) as i64, -2);
        assert_eq!(m.int_reg(5), 0xf);
        assert_eq!(m.int_reg(6), 1);
        assert_eq!(m.int_reg(7), 0); // -8 as unsigned is huge
    }

    #[test]
    fn memory_widths_and_sign_extension() {
        let m = run_asm(
            ".data\n\
             x: .quad 0\n\
             .text\n\
             main: la r1, x\n\
                   li r2, -1\n\
                   sb r2, 0(r1)\n\
                   lb r3, 0(r1)\n\
                   lbu r4, 0(r1)\n\
                   li r5, 0x8000\n\
                   sh r5, 2(r1)\n\
                   lh r6, 2(r1)\n\
                   lhu r7, 2(r1)\n\
                   halt\n",
        );
        assert_eq!(m.int_reg(3) as i64, -1);
        assert_eq!(m.int_reg(4), 0xff);
        assert_eq!(m.int_reg(6) as i64, -32768);
        assert_eq!(m.int_reg(7), 0x8000);
    }

    #[test]
    fn loop_and_branches() {
        let m = run_asm(
            "main: li r1, 5\n\
                   li r2, 0\n\
             loop: add r2, r2, r1\n\
                   subi r1, r1, 1\n\
                   bgtz r1, loop\n\
                   halt\n",
        );
        assert_eq!(m.int_reg(2), 15);
    }

    #[test]
    fn call_and_return() {
        let m = run_asm(
            "main: li r1, 4\n\
                   call square\n\
                   halt\n\
             square: mul r2, r1, r1\n\
                   ret\n",
        );
        assert_eq!(m.int_reg(2), 16);
    }

    #[test]
    fn stack_discipline() {
        let m = run_asm(
            "main: subi sp, sp, 16\n\
                   li r1, 42\n\
                   sd r1, 0(sp)\n\
                   li r1, 0\n\
                   ld r2, 0(sp)\n\
                   addi sp, sp, 16\n\
                   halt\n",
        );
        assert_eq!(m.int_reg(2), 42);
    }

    #[test]
    fn floating_point_path() {
        let m = run_asm(
            ".data\n\
             a: .double 1.5\n\
             b: .double 2.5\n\
             out: .space 8\n\
             .text\n\
             main: la r1, a\n\
                   fld f1, 0(r1)\n\
                   fld f2, 8(r1)\n\
                   fadd f3, f1, f2\n\
                   fmul f4, f1, f2\n\
                   flt r2, f1, f2\n\
                   cvtfi r3, f4\n\
                   la r4, out\n\
                   fsd f3, 0(r4)\n\
                   halt\n",
        );
        assert_eq!(m.fp_reg(3), 4.0);
        assert_eq!(m.fp_reg(4), 3.75);
        assert_eq!(m.int_reg(2), 1);
        assert_eq!(m.int_reg(3), 3);
        let out = m.program().symbol("out").unwrap();
        assert_eq!(f64::from_bits(m.read_u64(out).unwrap()), 4.0);
    }

    #[test]
    fn records_carry_control_and_memory_info() {
        let p = assemble(
            "main: li r1, 1\n\
                   beqz r1, main\n\
                   sd r1, 128(r0)\n\
                   halt\n",
        )
        .unwrap();
        let mut m = Machine::new(p);
        let r1 = match m.step().unwrap() {
            StepOutcome::Executed(r) => r,
            _ => panic!(),
        };
        assert_eq!(r1.seq, 0);
        assert!(!r1.redirects());
        let rb = match m.step().unwrap() {
            StepOutcome::Executed(r) => r,
            _ => panic!(),
        };
        assert!(!rb.taken);
        let rs = match m.step().unwrap() {
            StepOutcome::Executed(r) => r,
            _ => panic!(),
        };
        assert_eq!(rs.mem_addr, Some(128));
        let rh = match m.step().unwrap() {
            StepOutcome::Executed(r) => r,
            _ => panic!(),
        };
        assert_eq!(rh.inst, Inst::Halt);
        assert_eq!(m.step().unwrap(), StepOutcome::Halted);
    }

    #[test]
    fn bad_pc_faults() {
        let p = assemble("main: jr r1\n halt\n").unwrap();
        let mut m = Machine::new(p);
        m.set_int_reg(1, 0xdead_0000);
        m.step().unwrap(); // the jump itself executes
        let e = m.step().unwrap_err();
        assert_eq!(e, EmuError::BadPc { pc: 0xdead_0000 });
    }

    #[test]
    fn bad_access_faults() {
        let p = assemble("main: ld r2, 0(r1)\n halt\n").unwrap();
        let mut m = Machine::new(p);
        m.set_int_reg(1, u64::MAX - 2);
        let e = m.step().unwrap_err();
        assert!(matches!(e, EmuError::BadAccess { .. }));
        assert!(e.to_string().contains("bad memory access"));
    }

    #[test]
    fn writes_to_r0_are_discarded() {
        let m = run_asm("main: li r1, 3\n add r0, r1, r1\n halt\n");
        assert_eq!(m.int_reg(0), 0);
    }

    #[test]
    fn run_respects_step_budget() {
        let p = assemble("main: b main\n").unwrap();
        let mut m = Machine::new(p);
        let n = m.run(100).unwrap();
        assert_eq!(n, 100);
        assert!(!m.is_halted());
    }

    /// The numbers of the pages `m` has mapped.
    fn mapped(m: &Machine) -> Vec<usize> {
        (0..m.pages.len())
            .filter(|&i| m.pages[i].is_some())
            .collect()
    }

    /// A machine whose 16-byte data segment straddles the boundary
    /// between pages 2 and 3.
    fn straddling_data() -> Machine {
        let src = ".data\n x: .quad 0x1111\n y: .quad 0x2222\n.text\n main: halt\n";
        let base = 3 * PAGE_SIZE as u64 - 8;
        Machine::new(ubrc_isa::assemble_at(src, 0x1000, base).unwrap())
    }

    #[test]
    fn untouched_pages_read_as_zero_and_stay_unmapped() {
        let p = assemble("main: ld r2, 0(r1)\n halt\n").unwrap();
        let mut m = Machine::new(p);
        let addr = 7 * PAGE_SIZE as u64 - 3;
        m.set_int_reg(1, addr);
        m.set_int_reg(2, 5);
        m.step().unwrap();
        assert_eq!(m.int_reg(2), 0);
        assert_eq!(m.read_u64(DEFAULT_MEM_SIZE as u64 - 8), Ok(0));
        assert!(mapped(&m).is_empty());
    }

    #[test]
    fn a_fresh_machine_maps_only_its_data_pages() {
        let m = straddling_data();
        assert_eq!(mapped(&m), [2, 3]);
        assert_eq!(m.read_u64(3 * PAGE_SIZE as u64 - 8), Ok(0x1111));
        assert_eq!(m.read_u64(3 * PAGE_SIZE as u64), Ok(0x2222));
        assert_eq!(m.pages.len(), DEFAULT_MEM_SIZE / PAGE_SIZE);
    }

    #[test]
    fn fork_fresh_maps_only_data_pages() {
        let mut m = straddling_data();
        m.write_u64(3 * PAGE_SIZE as u64, 7).unwrap();
        m.write_u64(9 * PAGE_SIZE as u64 - 4, 8).unwrap();
        assert_eq!(mapped(&m), [2, 3, 8, 9]);
        let fresh = m.fork_fresh();
        assert_eq!(mapped(&fresh), [2, 3]);
        assert_eq!(fresh.read_u64(3 * PAGE_SIZE as u64), Ok(0x2222));
        assert_eq!(fresh.read_u64(9 * PAGE_SIZE as u64 - 4), Ok(0));
    }

    #[test]
    fn a_restore_after_divergent_writes_reads_like_the_retired_machine() {
        let mut squashed = straddling_data();
        let mut retired = squashed.fork_fresh();
        let page = |i: usize| (i * PAGE_SIZE) as u64;
        retired.write_u64(page(10), 1).unwrap();
        retired.write_u64(page(40) - 4, 2).unwrap();
        retired.set_int_reg(4, 3);
        squashed.write_u64(page(10), 99).unwrap();
        squashed.write_u64(page(20), 98).unwrap();
        squashed.write_u64(page(3), 97).unwrap();
        squashed.enter_speculation(0x1000);
        squashed.write_u64(page(30) + 8, 96).unwrap();
        assert_eq!(mapped(&squashed), [2, 3, 10, 20, 30]);
        let kept = squashed.pages[10].as_deref().map(std::ptr::from_ref);

        squashed.clone_from(&retired);
        assert_eq!(mapped(&squashed), [2, 3, 10, 39, 40]);
        assert!(squashed.pages == retired.pages);
        assert_eq!(squashed.pages[10].as_deref().map(std::ptr::from_ref), kept);
        assert!(!squashed.in_speculation());
        assert_eq!(squashed.pc(), retired.pc());
        assert_eq!(squashed.int_reg(4), 3);
        for addr in [
            page(3) - 8,
            page(3),
            page(10),
            page(20),
            page(30) + 8,
            page(40) - 4,
        ] {
            assert_eq!(
                squashed.read_u64(addr),
                retired.read_u64(addr),
                "at {addr:#x}"
            );
        }
        let copy = retired.clone();
        assert!(copy.pages == retired.pages);
        assert_eq!((copy.pc(), copy.int_reg(4)), (retired.pc(), 3));
    }

    #[test]
    fn a_quad_four_bytes_below_the_top_faults() {
        let mut m = straddling_data();
        let addr = DEFAULT_MEM_SIZE as u64 - 4;
        let fault = Err(EmuError::BadAccess { pc: m.pc(), addr });
        assert_eq!(m.read_u64(addr), fault);
        assert_eq!(m.write_u64(addr, 1), fault.map(|_| ()));
        assert_eq!(mapped(&m), [2, 3]);
    }

    #[test]
    fn sp_is_initialized_high_and_aligned() {
        let p = assemble("main: halt\n").unwrap();
        let m = Machine::new(p);
        let sp = m.int_reg(ubrc_isa::SP.index());
        assert_eq!(sp % 16, 0);
        assert!(sp as usize <= DEFAULT_MEM_SIZE);
        assert!(sp as usize >= DEFAULT_MEM_SIZE - 128);
    }
}
