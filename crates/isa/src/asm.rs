//! A two-pass text assembler for the UBRC ISA.
//!
//! Syntax overview (see the `workloads` crate for full kernels):
//!
//! ```text
//! ; comments run to end of line (also `#` and `//`)
//! .data
//! arr:    .quad 1, 2, 3
//! pi:     .double 3.14159
//! buf:    .space 64
//! .text
//! main:   la   r1, arr
//!         ld   r2, 0(r1)
//!         addi r2, r2, 1
//!         beqz r2, done
//!         call helper
//! done:   halt
//! helper: ret
//! ```
//!
//! Registers are `r0..r31` (aliases `zero`, `sp`, `ra`) and `f0..f31`.
//! Pseudo-instructions (`li`, `la`, `mov`, `b`, `beqz`, `bnez`, `bltz`,
//! `bgez`, `ble`, `bgt`, `subi`, `call`, `ret`, `neg`, `not`) expand to
//! one or two real instructions.

use crate::inst::{AluImmOp, AluOp, BranchCond, CvtDir, FpuOp, Inst, MemWidth};
use crate::program::{Program, DATA_BASE, TEXT_BASE};
use crate::reg::Reg;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// An assembly error with the 1-based source line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

/// Where a number is expected: a literal, a symbol, or an operand that
/// is neither (a register or a memory operand), which pass 2 rejects
/// when it resolves the value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Value<'s> {
    Imm(i64),
    Sym(&'s str),
    Invalid,
}

/// One operand, borrowing its symbol from the source.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Operand<'s> {
    Reg(Reg),
    Imm(i64),
    Sym(&'s str),
    /// `off(base)`; the offset may be a literal or a symbol.
    Mem {
        off: Value<'s>,
        base: Reg,
    },
}

impl<'s> Operand<'s> {
    fn value(self) -> Value<'s> {
        match self {
            Operand::Imm(v) => Value::Imm(v),
            Operand::Sym(s) => Value::Sym(s),
            Operand::Reg(_) | Operand::Mem { .. } => Value::Invalid,
        }
    }
}

/// The most operands any instruction reads. Further operands are
/// parsed, so a malformed one is still an error, and counted, so they
/// are reported as surplus.
const MAX_OPERANDS: usize = 3;

#[derive(Clone, Debug, PartialEq)]
enum Stmt<'s> {
    Label(&'s str),
    Text,
    Data,
    /// `.quad`, `.word`, `.half`, `.byte` or `.double`: the `items` of
    /// the shared data-item vector, `width` bytes each (a `.double`
    /// item is its bit pattern).
    Values {
        width: usize,
        items: Range<usize>,
    },
    Space(u64),
    Align(u64),
    Inst {
        /// As written; matched without regard to ASCII case.
        mnemonic: &'s str,
        /// The first `len` operands written, up to [`MAX_OPERANDS`].
        operands: [Operand<'s>; MAX_OPERANDS],
        /// How many operands are written.
        len: usize,
    },
}

/// What pass 1 lays out and pass 2 emits: each statement with its
/// 1-based line, and the items of every data directive in one vector.
struct Parsed<'s> {
    stmts: Vec<(usize, Stmt<'s>)>,
    items: Vec<Value<'s>>,
}

fn parse_reg(tok: &str) -> Option<Reg> {
    match tok {
        "zero" => return Some(Reg::int(0)),
        "sp" => return Some(crate::reg::SP),
        "ra" => return Some(crate::reg::RA),
        _ => {}
    }
    // `split_at(1)` would panic on an empty token (e.g. from the
    // malformed memory operand `0()`) or a multi-byte first char, so
    // split bytewise and reject anything that is not ASCII `r`/`f`.
    if !tok.is_ascii() || tok.len() < 2 {
        return None;
    }
    let (bank, rest) = tok.split_at(1);
    let idx: u8 = rest.parse().ok()?;
    if idx >= 32 {
        return None;
    }
    match bank {
        "r" => Some(Reg::int(idx)),
        "f" => Some(Reg::fp(idx)),
        _ => None,
    }
}

fn parse_int(tok: &str) -> Option<i64> {
    let (neg, t) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        t.parse::<i64>().ok()?
    };
    // `--9223372036854775808` would negate `i64::MIN`.
    if neg {
        v.checked_neg()
    } else {
        Some(v)
    }
}

fn is_symbol(tok: &str) -> bool {
    tok.bytes()
        .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
        && tok
            .bytes()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand<'_>, AsmError> {
    let tok = tok.trim();
    if tok.is_empty() {
        return err(line, "empty operand");
    }
    // Memory operand: off(base).
    if let Some(open) = tok.find('(') {
        if !tok.ends_with(')') {
            return err(line, format!("malformed memory operand `{tok}`"));
        }
        let off_str = &tok[..open];
        let base_str = &tok[open + 1..tok.len() - 1];
        let base = parse_reg(base_str).ok_or_else(|| AsmError {
            line,
            msg: format!("bad base register `{base_str}`"),
        })?;
        // `off_str` holds no `(`, so the offset is never itself a
        // memory operand.
        let off = if off_str.is_empty() {
            Value::Imm(0)
        } else {
            parse_operand(off_str, line)?.value()
        };
        return Ok(Operand::Mem { off, base });
    }
    if let Some(r) = parse_reg(tok) {
        return Ok(Operand::Reg(r));
    }
    if let Some(v) = parse_int(tok) {
        return Ok(Operand::Imm(v));
    }
    if is_symbol(tok) {
        return Ok(Operand::Sym(tok));
    }
    err(line, format!("unrecognized operand `{tok}`"))
}

/// The bytes [`split_line`] stops at: comment starts and the colon.
const LINE_SPECIAL: [bool; 256] = {
    let mut special = [false; 256];
    special[b';' as usize] = true;
    special[b'#' as usize] = true;
    special[b'/' as usize] = true;
    special[b':' as usize] = true;
    special
};

/// Splits a raw line in one byte scan: the code before its comment
/// (the first `;`, `#` or `//`), and whether that code holds a colon,
/// which only a line with labels needs looked at again.
fn split_line(raw: &str) -> (&str, bool) {
    let bytes = raw.as_bytes();
    let mut colon = false;
    for (i, &b) in bytes.iter().enumerate() {
        if !LINE_SPECIAL[b as usize] {
            continue;
        }
        match b {
            b':' => colon = true,
            b'/' if bytes.get(i + 1) != Some(&b'/') => {}
            _ => return (&raw[..i], colon),
        }
    }
    (raw, colon)
}

/// Reads a plain decimal item, `-?[0-9]+` between ASCII blanks, from the
/// start of `bytes`, up to the comma that ends it or the end. Returns
/// its value and length, or `None` for any other spelling (or a
/// magnitude beyond `i64`), which [`parse_operand`] then reads: this is
/// only its fast path, and agrees with it wherever it answers.
fn decimal_item(bytes: &[u8]) -> Option<(i64, usize)> {
    let blank = |b: &u8| *b == b' ' || *b == b'\t';
    let mut i = bytes.iter().take_while(|b| blank(b)).count();
    let neg = bytes.get(i) == Some(&b'-');
    i += usize::from(neg);
    let digits_start = i;
    let mut v: i64 = 0;
    while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
        v = v.checked_mul(10)?.checked_add(i64::from(b - b'0'))?;
        i += 1;
    }
    if i == digits_start {
        return None;
    }
    i += bytes[i..].iter().take_while(|b| blank(b)).count();
    match bytes.get(i) {
        None | Some(b',') => Some((if neg { -v } else { v }, i)),
        Some(_) => None,
    }
}

/// Parses the comma-separated items of a data list onto `items`.
fn parse_items<'s>(args: &'s str, line: usize, items: &mut Vec<Value<'s>>) -> Result<(), AsmError> {
    let mut start = 0;
    loop {
        let rest = &args[start..];
        let (value, len) = match decimal_item(rest.as_bytes()) {
            Some((v, len)) => (Value::Imm(v), len),
            None => {
                let len = rest.find(',').unwrap_or(rest.len());
                (parse_operand(&rest[..len], line)?.value(), len)
            }
        };
        items.push(value);
        if len == rest.len() {
            return Ok(());
        }
        start += len + 1;
    }
}

/// Splits a directive or instruction at its first whitespace.
fn split_word(s: &str) -> (&str, &str) {
    match s.find(char::is_whitespace) {
        Some(i) => s.split_at(i),
        None => (s, ""),
    }
}

fn parse(source: &str) -> Result<Parsed<'_>, AsmError> {
    let mut stmts = Vec::new();
    let mut items = Vec::new();
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let (code, has_colon) = split_line(raw);
        let mut rest = code.trim();
        // Leading labels (possibly several).
        if has_colon {
            while let Some(colon) = rest.find(':') {
                let (name, after) = rest.split_at(colon);
                let name = name.trim();
                if !is_symbol(name) {
                    break;
                }
                stmts.push((line, Stmt::Label(name)));
                rest = after[1..].trim();
            }
        }
        if rest.is_empty() {
            continue;
        }
        if let Some(directive) = rest.strip_prefix('.') {
            let (name, args) = split_word(directive);
            let args = args.trim();
            let mut values = |width: usize| -> Result<Stmt<'_>, AsmError> {
                let start = items.len();
                parse_items(args, line, &mut items)?;
                Ok(Stmt::Values {
                    width,
                    items: start..items.len(),
                })
            };
            let stmt = match name {
                "text" => Stmt::Text,
                "data" => Stmt::Data,
                "quad" => values(8)?,
                "word" => values(4)?,
                "half" => values(2)?,
                "byte" => values(1)?,
                "double" => {
                    let start = items.len();
                    for t in args.split(',') {
                        let Ok(d) = t.trim().parse::<f64>() else {
                            return err(line, format!("bad .double list `{args}`"));
                        };
                        items.push(Value::Imm(d.to_bits() as i64));
                    }
                    Stmt::Values {
                        width: 8,
                        items: start..items.len(),
                    }
                }
                "space" => match parse_int(args) {
                    Some(n) if n >= 0 => Stmt::Space(n as u64),
                    _ => return err(line, format!("bad .space size `{args}`")),
                },
                "align" => match parse_int(args) {
                    Some(n) if n > 0 && (n as u64).is_power_of_two() => Stmt::Align(n as u64),
                    _ => return err(line, format!("bad .align `{args}` (power of two required)")),
                },
                other => return err(line, format!("unknown directive `.{other}`")),
            };
            stmts.push((line, stmt));
            continue;
        }
        // Instruction: mnemonic [operands, ...]
        let (mnemonic, ops) = split_word(rest);
        let ops = ops.trim();
        let mut operands = [Operand::Imm(0); MAX_OPERANDS];
        let mut len = 0;
        if !ops.is_empty() {
            for t in ops.split(',') {
                let op = parse_operand(t, line)?;
                if len < MAX_OPERANDS {
                    operands[len] = op;
                }
                len += 1;
            }
        }
        stmts.push((
            line,
            Stmt::Inst {
                mnemonic,
                operands,
                len,
            },
        ));
    }
    Ok(Parsed { stmts, items })
}

/// Whether a statement lays out data: pass 1 rejects one in `.text`.
fn is_data(stmt: &Stmt<'_>) -> bool {
    matches!(stmt, Stmt::Values { .. } | Stmt::Space(_) | Stmt::Align(_))
}

/// Number of real instructions a (pseudo-)instruction expands to. A
/// symbol's address is not known in pass 1, so `li` with a symbol is
/// sized for the two-instruction form, as `la` always is; pass 2 pads
/// a shorter expansion with `nop`.
fn inst_size(mnemonic: &str, operands: &[Operand<'_>]) -> usize {
    if mnemonic.eq_ignore_ascii_case("la") {
        return 2;
    }
    if mnemonic.eq_ignore_ascii_case("li") {
        return match operands.get(1) {
            Some(Operand::Imm(v)) if i16::try_from(*v).is_ok() => 1,
            _ => 2,
        };
    }
    1
}

/// An instruction's operands as pass 2 reads them. It notes how many
/// the mnemonic reads, so one written past those is an error rather
/// than dropped.
struct Operands<'a> {
    given: &'a [Operand<'a>],
    read: Cell<usize>,
}

impl<'a> Operands<'a> {
    fn get(&self, i: usize) -> Option<&Operand<'a>> {
        self.read.set(self.read.get().max(i + 1));
        self.given.get(i)
    }

    fn first(&self) -> Option<&Operand<'a>> {
        self.get(0)
    }
}

struct Emitter<'a> {
    symbols: &'a BTreeMap<String, u64>,
    out: Vec<Inst>,
    text_base: u64,
}

impl Emitter<'_> {
    fn pc(&self) -> u64 {
        self.text_base + 4 * self.out.len() as u64
    }

    fn value(&self, v: Value<'_>, line: usize) -> Result<i64, AsmError> {
        match v {
            Value::Imm(v) => Ok(v),
            Value::Sym(s) => match self.symbols.get(s) {
                Some(&addr) => Ok(addr as i64),
                None => err(line, format!("undefined symbol `{s}`")),
            },
            Value::Invalid => err(line, "expected an immediate or symbol"),
        }
    }

    fn resolve(
        &self,
        op: Option<&Operand<'_>>,
        line: usize,
        missing: &str,
    ) -> Result<i64, AsmError> {
        match op {
            Some(op) => self.value(op.value(), line),
            None => err(line, missing),
        }
    }

    fn want_reg(&self, op: Option<&Operand<'_>>, line: usize) -> Result<Reg, AsmError> {
        match op {
            Some(Operand::Reg(r)) => Ok(*r),
            _ => err(line, "expected a register operand"),
        }
    }

    fn want_imm16(&self, op: Option<&Operand<'_>>, line: usize) -> Result<i16, AsmError> {
        let v = self.resolve(op, line, "missing immediate operand")?;
        i16::try_from(v).map_err(|_| AsmError {
            line,
            msg: format!("immediate {v} does not fit in 16 signed bits"),
        })
    }

    fn want_mem(&self, op: Option<&Operand<'_>>, line: usize) -> Result<(i16, Reg), AsmError> {
        match op {
            Some(&Operand::Mem { off, base }) => {
                let v = self.value(off, line)?;
                let off = i16::try_from(v).map_err(|_| AsmError {
                    line,
                    msg: format!("memory offset {v} does not fit in 16 signed bits"),
                })?;
                Ok((off, base))
            }
            _ => err(line, "expected a memory operand `off(base)`"),
        }
    }

    /// The distance in instructions from the next instruction to `op`.
    fn target_delta(
        &self,
        op: Option<&Operand<'_>>,
        line: usize,
        missing: &str,
    ) -> Result<i64, AsmError> {
        let target = self.resolve(op, line, missing)?;
        Ok((target - (self.pc() as i64 + 4)) / 4)
    }

    fn branch_off(&self, op: Option<&Operand<'_>>, line: usize) -> Result<i16, AsmError> {
        let delta = self.target_delta(op, line, "missing branch target")?;
        i16::try_from(delta).map_err(|_| AsmError {
            line,
            msg: format!("branch target {delta} instructions away exceeds range"),
        })
    }

    fn jump_off(&self, op: Option<&Operand<'_>>, line: usize) -> Result<i32, AsmError> {
        let delta = self.target_delta(op, line, "missing jump target")?;
        i32::try_from(delta).map_err(|_| AsmError {
            line,
            msg: "jump target exceeds range".into(),
        })
    }

    fn emit_li(&mut self, rd: Reg, v: i64, line: usize) -> Result<(), AsmError> {
        if let Ok(imm) = i16::try_from(v) {
            self.out.push(Inst::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs: Reg::int(0),
                imm,
            });
            return Ok(());
        }
        let Ok(uv) = u32::try_from(v) else {
            return err(
                line,
                format!("immediate {v} not representable (must fit in i16 or u32)"),
            );
        };
        self.out.push(Inst::Lui {
            rd,
            imm: (uv >> 16) as u16,
        });
        self.out.push(Inst::AluImm {
            op: AluImmOp::Ori,
            rd,
            rs: rd,
            imm: (uv & 0xffff) as i16,
        });
        Ok(())
    }

    fn alu(&self, op: AluOp, ops: &Operands<'_>, line: usize) -> Result<Inst, AsmError> {
        let rd = self.want_reg(ops.first(), line)?;
        let rs = self.want_reg(ops.get(1), line)?;
        let rt = self.want_reg(ops.get(2), line)?;
        Ok(Inst::Alu { op, rd, rs, rt })
    }

    fn alu_imm(&self, op: AluImmOp, ops: &Operands<'_>, line: usize) -> Result<Inst, AsmError> {
        let rd = self.want_reg(ops.first(), line)?;
        let rs = self.want_reg(ops.get(1), line)?;
        let imm = self.want_imm16(ops.get(2), line)?;
        Ok(Inst::AluImm { op, rd, rs, imm })
    }

    fn load(
        &self,
        width: MemWidth,
        signed: bool,
        ops: &Operands<'_>,
        line: usize,
    ) -> Result<Inst, AsmError> {
        let rd = self.want_reg(ops.first(), line)?;
        let (off, base) = self.want_mem(ops.get(1), line)?;
        Ok(Inst::Load {
            width,
            signed,
            rd,
            base,
            off,
        })
    }

    fn store(&self, width: MemWidth, ops: &Operands<'_>, line: usize) -> Result<Inst, AsmError> {
        let src = self.want_reg(ops.first(), line)?;
        let (off, base) = self.want_mem(ops.get(1), line)?;
        Ok(Inst::Store {
            width,
            src,
            base,
            off,
        })
    }

    fn branch(
        &self,
        cond: BranchCond,
        swap: bool,
        ops: &Operands<'_>,
        line: usize,
    ) -> Result<Inst, AsmError> {
        let a = self.want_reg(ops.first(), line)?;
        let b = self.want_reg(ops.get(1), line)?;
        let off = self.branch_off(ops.get(2), line)?;
        let (rs, rt) = if swap { (b, a) } else { (a, b) };
        Ok(Inst::Branch { cond, rs, rt, off })
    }

    /// Branch pseudo against zero: `beqz rs, target`.
    fn branch_z(
        &self,
        cond: BranchCond,
        zero_first: bool,
        ops: &Operands<'_>,
        line: usize,
    ) -> Result<Inst, AsmError> {
        let r = self.want_reg(ops.first(), line)?;
        let off = self.branch_off(ops.get(1), line)?;
        let z = Reg::int(0);
        let (rs, rt) = if zero_first { (z, r) } else { (r, z) };
        Ok(Inst::Branch { cond, rs, rt, off })
    }

    fn fpu(&self, op: FpuOp, ops: &Operands<'_>, line: usize) -> Result<Inst, AsmError> {
        let rd = self.want_reg(ops.first(), line)?;
        let rs = self.want_reg(ops.get(1), line)?;
        let rt = self.want_reg(ops.get(2), line)?;
        Ok(Inst::Fpu { op, rd, rs, rt })
    }

    /// A two-register form: `rd, rs`.
    fn rd_rs(&self, ops: &Operands<'_>, line: usize) -> Result<(Reg, Reg), AsmError> {
        Ok((
            self.want_reg(ops.first(), line)?,
            self.want_reg(ops.get(1), line)?,
        ))
    }

    fn emit(&mut self, mnemonic: &str, ops: &Operands<'_>, line: usize) -> Result<(), AsmError> {
        // Copied only for the rare mnemonic written with upper case.
        let lower: Cow<'_, str> = if mnemonic.bytes().any(|b| b.is_ascii_uppercase()) {
            mnemonic.to_ascii_lowercase().into()
        } else {
            mnemonic.into()
        };
        let inst = match &*lower {
            "add" => self.alu(AluOp::Add, ops, line)?,
            "sub" => self.alu(AluOp::Sub, ops, line)?,
            "mul" => self.alu(AluOp::Mul, ops, line)?,
            "div" => self.alu(AluOp::Div, ops, line)?,
            "rem" => self.alu(AluOp::Rem, ops, line)?,
            "and" => self.alu(AluOp::And, ops, line)?,
            "or" => self.alu(AluOp::Or, ops, line)?,
            "xor" => self.alu(AluOp::Xor, ops, line)?,
            "nor" => self.alu(AluOp::Nor, ops, line)?,
            "sll" => self.alu(AluOp::Sll, ops, line)?,
            "srl" => self.alu(AluOp::Srl, ops, line)?,
            "sra" => self.alu(AluOp::Sra, ops, line)?,
            "slt" => self.alu(AluOp::Slt, ops, line)?,
            "sltu" => self.alu(AluOp::Sltu, ops, line)?,
            "addi" => self.alu_imm(AluImmOp::Addi, ops, line)?,
            "andi" => self.alu_imm(AluImmOp::Andi, ops, line)?,
            "ori" => self.alu_imm(AluImmOp::Ori, ops, line)?,
            "xori" => self.alu_imm(AluImmOp::Xori, ops, line)?,
            "slli" => self.alu_imm(AluImmOp::Slli, ops, line)?,
            "srli" => self.alu_imm(AluImmOp::Srli, ops, line)?,
            "srai" => self.alu_imm(AluImmOp::Srai, ops, line)?,
            "slti" => self.alu_imm(AluImmOp::Slti, ops, line)?,
            "sltiu" => self.alu_imm(AluImmOp::Sltiu, ops, line)?,
            "subi" => {
                let rd = self.want_reg(ops.first(), line)?;
                let rs = self.want_reg(ops.get(1), line)?;
                let imm = self.want_imm16(ops.get(2), line)?;
                let neg = imm.checked_neg().ok_or_else(|| AsmError {
                    line,
                    msg: "subi immediate out of range".into(),
                })?;
                Inst::AluImm {
                    op: AluImmOp::Addi,
                    rd,
                    rs,
                    imm: neg,
                }
            }
            "lui" => {
                let rd = self.want_reg(ops.first(), line)?;
                let v = self.resolve(ops.get(1), line, "missing immediate")?;
                let imm = u16::try_from(v).map_err(|_| AsmError {
                    line,
                    msg: format!("lui immediate {v} does not fit in 16 bits"),
                })?;
                Inst::Lui { rd, imm }
            }
            "lb" => self.load(MemWidth::Byte, true, ops, line)?,
            "lbu" => self.load(MemWidth::Byte, false, ops, line)?,
            "lh" => self.load(MemWidth::Half, true, ops, line)?,
            "lhu" => self.load(MemWidth::Half, false, ops, line)?,
            "lw" => self.load(MemWidth::Word, true, ops, line)?,
            "lwu" => self.load(MemWidth::Word, false, ops, line)?,
            "ld" | "fld" => self.load(MemWidth::Quad, true, ops, line)?,
            "sb" => self.store(MemWidth::Byte, ops, line)?,
            "sh" => self.store(MemWidth::Half, ops, line)?,
            "sw" => self.store(MemWidth::Word, ops, line)?,
            "sd" | "fsd" => self.store(MemWidth::Quad, ops, line)?,
            "beq" => self.branch(BranchCond::Eq, false, ops, line)?,
            "bne" => self.branch(BranchCond::Ne, false, ops, line)?,
            "blt" => self.branch(BranchCond::Lt, false, ops, line)?,
            "bge" => self.branch(BranchCond::Ge, false, ops, line)?,
            "bltu" => self.branch(BranchCond::Ltu, false, ops, line)?,
            "bgeu" => self.branch(BranchCond::Geu, false, ops, line)?,
            "ble" => self.branch(BranchCond::Ge, true, ops, line)?,
            "bgt" => self.branch(BranchCond::Lt, true, ops, line)?,
            "beqz" => self.branch_z(BranchCond::Eq, false, ops, line)?,
            "bnez" => self.branch_z(BranchCond::Ne, false, ops, line)?,
            "bltz" => self.branch_z(BranchCond::Lt, false, ops, line)?,
            "bgez" => self.branch_z(BranchCond::Ge, false, ops, line)?,
            "bgtz" => self.branch_z(BranchCond::Lt, true, ops, line)?,
            "blez" => self.branch_z(BranchCond::Ge, true, ops, line)?,
            "b" => Inst::Branch {
                cond: BranchCond::Eq,
                rs: Reg::int(0),
                rt: Reg::int(0),
                off: self.branch_off(ops.first(), line)?,
            },
            "j" => Inst::Jump {
                link: false,
                off: self.jump_off(ops.first(), line)?,
            },
            "jal" | "call" => Inst::Jump {
                link: true,
                off: self.jump_off(ops.first(), line)?,
            },
            "jr" => Inst::JumpReg {
                link: false,
                rd: Reg::int(0),
                rs: self.want_reg(ops.first(), line)?,
            },
            "jalr" => {
                let (rd, rs) = self.rd_rs(ops, line)?;
                Inst::JumpReg { link: true, rd, rs }
            }
            "ret" => Inst::JumpReg {
                link: false,
                rd: Reg::int(0),
                rs: crate::reg::RA,
            },
            "fadd" => self.fpu(FpuOp::Fadd, ops, line)?,
            "fsub" => self.fpu(FpuOp::Fsub, ops, line)?,
            "fmul" => self.fpu(FpuOp::Fmul, ops, line)?,
            "fdiv" => self.fpu(FpuOp::Fdiv, ops, line)?,
            "feq" => self.fpu(FpuOp::Feq, ops, line)?,
            "flt" => self.fpu(FpuOp::Flt, ops, line)?,
            "fle" => self.fpu(FpuOp::Fle, ops, line)?,
            name @ ("fneg" | "fmov") => {
                let op = if name == "fneg" {
                    FpuOp::Fneg
                } else {
                    FpuOp::Fmov
                };
                let (rd, rs) = self.rd_rs(ops, line)?;
                Inst::Fpu {
                    op,
                    rd,
                    rs,
                    rt: Reg::fp(0),
                }
            }
            "cvtif" => {
                let (rd, rs) = self.rd_rs(ops, line)?;
                Inst::Cvt {
                    dir: CvtDir::IntToFp,
                    rd,
                    rs,
                }
            }
            "cvtfi" => {
                let (rd, rs) = self.rd_rs(ops, line)?;
                Inst::Cvt {
                    dir: CvtDir::FpToInt,
                    rd,
                    rs,
                }
            }
            "mov" => {
                let (rd, rs) = self.rd_rs(ops, line)?;
                Inst::AluImm {
                    op: AluImmOp::Addi,
                    rd,
                    rs,
                    imm: 0,
                }
            }
            "neg" => {
                let (rd, rs) = self.rd_rs(ops, line)?;
                Inst::Alu {
                    op: AluOp::Sub,
                    rd,
                    rs: Reg::int(0),
                    rt: rs,
                }
            }
            "not" => {
                let (rd, rs) = self.rd_rs(ops, line)?;
                Inst::Alu {
                    op: AluOp::Nor,
                    rd,
                    rs,
                    rt: Reg::int(0),
                }
            }
            name @ ("li" | "la") => {
                let rd = self.want_reg(ops.first(), line)?;
                let missing = if name == "li" {
                    "missing immediate"
                } else {
                    "missing symbol"
                };
                let v = self.resolve(ops.get(1), line, missing)?;
                let before = self.out.len();
                self.emit_li(rd, v, line)?;
                // Keep the size promised by pass 1.
                while self.out.len() < before + inst_size(name, ops.given) {
                    self.out.push(Inst::Nop);
                }
                return Ok(());
            }
            "nop" => Inst::Nop,
            "halt" => Inst::Halt,
            _ => {
                return err(
                    line,
                    format!("unknown mnemonic `{}`", mnemonic.to_lowercase()),
                )
            }
        };
        self.out.push(inst);
        Ok(())
    }
}

/// Assembles source text into a [`Program`] at the default segment bases.
///
/// # Errors
///
/// Returns [`AsmError`] (with a line number) for syntax errors, unknown
/// mnemonics/directives, undefined or duplicate labels, and out-of-range
/// immediates or branch targets.
///
/// # Examples
///
/// ```
/// use ubrc_isa::assemble;
///
/// let p = assemble(
///     "main: li r1, 10\n\
///      loop: subi r1, r1, 1\n\
///            bnez r1, loop\n\
///            halt\n",
/// )?;
/// assert_eq!(p.text.len(), 4);
/// # Ok::<(), ubrc_isa::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_at(source, TEXT_BASE, DATA_BASE)
}

/// Assembles with explicit text/data segment base addresses.
///
/// # Errors
///
/// As for [`assemble`].
pub fn assemble_at(source: &str, text_base: u64, data_base: u64) -> Result<Program, AsmError> {
    let Parsed { stmts, items } = parse(source)?;

    // Pass 1: lay out symbols.
    let mut symbols: BTreeMap<String, u64> = BTreeMap::new();
    let mut in_text = true;
    let mut text_len = 0u64; // in instructions
    let mut data_len = 0u64; // in bytes
    for (line, stmt) in &stmts {
        if in_text && is_data(stmt) {
            return err(*line, "data directive outside .data");
        }
        match stmt {
            Stmt::Text => in_text = true,
            Stmt::Data => in_text = false,
            Stmt::Label(name) => {
                let addr = if in_text {
                    text_base + 4 * text_len
                } else {
                    data_base + data_len
                };
                if symbols.insert((*name).to_owned(), addr).is_some() {
                    return err(*line, format!("duplicate label `{name}`"));
                }
            }
            Stmt::Inst {
                mnemonic,
                operands,
                len,
            } => {
                if !in_text {
                    return err(*line, "instruction outside .text");
                }
                text_len += inst_size(mnemonic, &operands[..(*len).min(MAX_OPERANDS)]) as u64;
            }
            Stmt::Values { width, items } => data_len += (width * items.len()) as u64,
            Stmt::Space(n) => data_len += n,
            Stmt::Align(n) => data_len = data_len.next_multiple_of(*n),
        }
    }

    // Pass 2: emit.
    let mut emitter = Emitter {
        symbols: &symbols,
        out: Vec::with_capacity(text_len as usize),
        text_base,
    };
    let mut data: Vec<u8> = Vec::with_capacity(data_len as usize);
    for (line, stmt) in &stmts {
        match stmt {
            Stmt::Text | Stmt::Data | Stmt::Label(_) => {}
            Stmt::Inst {
                mnemonic,
                operands,
                len,
            } => {
                let ops = Operands {
                    given: &operands[..(*len).min(MAX_OPERANDS)],
                    read: Cell::new(0),
                };
                emitter.emit(mnemonic, &ops, *line)?;
                let read = ops.read.get();
                if *len > read {
                    return err(
                        *line,
                        format!(
                            "`{}` takes {read} operand{}, not {len}",
                            mnemonic.to_ascii_lowercase(),
                            if read == 1 { "" } else { "s" }
                        ),
                    );
                }
            }
            Stmt::Values {
                width,
                items: range,
            } => {
                for &item in &items[range.clone()] {
                    let val = emitter.value(item, *line)?;
                    data.extend_from_slice(&val.to_le_bytes()[..*width]);
                }
            }
            Stmt::Space(n) => data.resize(data.len() + *n as usize, 0),
            Stmt::Align(n) => {
                let target = (data.len() as u64).next_multiple_of(*n) as usize;
                data.resize(target, 0);
            }
        }
    }
    debug_assert_eq!(emitter.out.len() as u64, text_len);
    debug_assert_eq!(data.len() as u64, data_len);

    let entry = symbols.get("main").copied().unwrap_or(text_base);
    Ok(Program {
        text_base,
        text: emitter.out,
        data_base,
        data,
        entry,
        symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_branch_offsets() {
        let p = assemble(
            "main: addi r1, r0, 3\n\
             loop: subi r1, r1, 1\n\
                   bnez r1, loop\n\
                   halt\n",
        )
        .unwrap();
        assert_eq!(p.text.len(), 4);
        match p.text[2] {
            Inst::Branch { cond, off, .. } => {
                assert_eq!(cond, BranchCond::Ne);
                assert_eq!(off, -2); // back to `loop` from pc+4
            }
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn li_small_is_one_instruction_large_is_two() {
        let p = assemble("li r1, 5\nli r2, 0x12345\nhalt\n").unwrap();
        assert_eq!(p.text.len(), 4);
        assert_eq!(
            p.text[0],
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::int(1),
                rs: Reg::int(0),
                imm: 5
            }
        );
        assert_eq!(
            p.text[1],
            Inst::Lui {
                rd: Reg::int(2),
                imm: 0x1
            }
        );
        assert_eq!(
            p.text[2],
            Inst::AluImm {
                op: AluImmOp::Ori,
                rd: Reg::int(2),
                rs: Reg::int(2),
                imm: 0x2345
            }
        );
    }

    #[test]
    fn la_resolves_data_labels() {
        let p = assemble(
            ".data\n\
             x: .quad 7\n\
             y: .quad 8, 9\n\
             .text\n\
             main: la r1, y\n\
                   halt\n",
        )
        .unwrap();
        assert_eq!(p.symbol("x"), Some(DATA_BASE));
        assert_eq!(p.symbol("y"), Some(DATA_BASE + 8));
        assert_eq!(p.data.len(), 24);
        assert_eq!(&p.data[0..8], &7u64.to_le_bytes());
    }

    #[test]
    fn data_directives_layout() {
        let p = assemble(
            ".data\n\
             a: .byte 1, 2\n\
             .align 4\n\
             b: .word 3\n\
             c: .space 5\n\
             d: .double 1.5\n",
        )
        .unwrap();
        assert_eq!(p.symbol("a"), Some(DATA_BASE));
        assert_eq!(p.symbol("b"), Some(DATA_BASE + 4));
        assert_eq!(p.symbol("c"), Some(DATA_BASE + 8));
        assert_eq!(p.symbol("d"), Some(DATA_BASE + 13));
        assert_eq!(&p.data[13..21], &1.5f64.to_bits().to_le_bytes());
    }

    #[test]
    fn entry_defaults_to_main_label() {
        let p = assemble("nop\nmain: halt\n").unwrap();
        assert_eq!(p.entry, p.text_base + 4);
        let p2 = assemble("halt\n").unwrap();
        assert_eq!(p2.entry, p2.text_base);
    }

    #[test]
    fn call_and_ret_expand() {
        let p = assemble(
            "main: call f\n\
                   halt\n\
             f:    ret\n",
        )
        .unwrap();
        assert_eq!(p.text[0], Inst::Jump { link: true, off: 1 });
        assert!(p.text[2].is_return());
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("x: nop\nx: nop\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn undefined_symbol_is_an_error() {
        let e = assemble("main: la r1, nowhere\nhalt\n").unwrap_err();
        assert!(e.msg.contains("undefined symbol"));
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = assemble("nop\nfrobnicate r1, r2\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn decimal_fast_path_agrees_with_parse_operand() {
        // Each item with the value the fast path reads, or `None` where
        // it leaves the item to `parse_operand`.
        let cases: [(&str, Option<i64>); 16] = [
            ("5", Some(5)),
            ("-0", Some(0)),
            ("007", Some(7)),
            ("\t5\t", Some(5)),
            (" -12 ,3", Some(-12)),
            ("9223372036854775807", Some(i64::MAX)),
            ("+5", None),
            ("-", None),
            ("", None),
            ("5 6", None),
            ("0x10", None),
            ("r5", None),
            ("5\u{a0}", None),
            ("9223372036854775808", None),
            ("-9223372036854775808", None),
            ("--5", None),
        ];
        for (item, want) in cases {
            let fast = decimal_item(item.as_bytes());
            assert_eq!(fast.map(|(v, _)| v), want, "{item:?}");
            if let Some((v, len)) = fast {
                assert_eq!(len, item.find(',').unwrap_or(item.len()), "{item:?}");
                assert_eq!(
                    parse_operand(&item[..len], 1),
                    Ok(Operand::Imm(v)),
                    "{item:?}"
                );
            }
        }
    }

    #[test]
    fn mnemonics_ignore_ascii_case() {
        let upper = assemble("main: LI r1, 5\n Addi r1, r1, 1\n HALT\n").unwrap();
        let lower = assemble("main: li r1, 5\n addi r1, r1, 1\n halt\n").unwrap();
        assert_eq!(upper, lower);
        let e = assemble("main: FROBNICATE r1\n").unwrap_err();
        assert_eq!(e.msg, "unknown mnemonic `frobnicate`");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = assemble(
            "; leading comment\n\
             \n\
             main: nop # trailing\n\
                   halt // also trailing\n",
        )
        .unwrap();
        assert_eq!(p.text.len(), 2);
    }

    #[test]
    fn memory_operands_with_symbolic_offsets() {
        let p =
            assemble(".data\nbase: .space 16\n.text\nmain: ld r1, 8(r2)\n sd r1, (r3)\n halt\n")
                .unwrap();
        assert_eq!(
            p.text[0],
            Inst::Load {
                width: MemWidth::Quad,
                signed: true,
                rd: Reg::int(1),
                base: Reg::int(2),
                off: 8
            }
        );
        assert_eq!(
            p.text[1],
            Inst::Store {
                width: MemWidth::Quad,
                src: Reg::int(1),
                base: Reg::int(3),
                off: 0
            }
        );
    }

    #[test]
    fn register_aliases() {
        let p = assemble("main: mov sp, ra\n addi r1, zero, 1\n halt\n").unwrap();
        assert_eq!(
            p.text[0],
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: crate::reg::SP,
                rs: crate::reg::RA,
                imm: 0
            }
        );
    }

    #[test]
    fn swapped_branch_pseudos() {
        let p = assemble("main: ble r1, r2, main\n bgt r3, r4, main\n halt\n").unwrap();
        match p.text[0] {
            Inst::Branch { cond, rs, rt, .. } => {
                assert_eq!(cond, BranchCond::Ge);
                assert_eq!(rs, Reg::int(2));
                assert_eq!(rt, Reg::int(1));
            }
            _ => panic!(),
        }
        match p.text[1] {
            Inst::Branch { cond, rs, rt, .. } => {
                assert_eq!(cond, BranchCond::Lt);
                assert_eq!(rs, Reg::int(4));
                assert_eq!(rt, Reg::int(3));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn fp_instructions_assemble() {
        let p = assemble(
            ".data\nv: .double 2.0\n.text\n\
             main: la r1, v\n\
                   fld f1, 0(r1)\n\
                   fadd f2, f1, f1\n\
                   fmov f3, f2\n\
                   cvtfi r2, f3\n\
                   halt\n",
        )
        .unwrap();
        assert_eq!(p.text.len(), 7);
        match p.text[2] {
            Inst::Load { rd, .. } => assert!(rd.is_fp()),
            _ => panic!(),
        }
    }
}
