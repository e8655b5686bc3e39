//! Error-path tests for the assembler: every malformed input must
//! produce a line-numbered error, never a panic or silent misassembly.

use ubrc_isa::{assemble, AsmError};

fn err_of(src: &str) -> AsmError {
    assemble(src).expect_err("source must be rejected")
}

#[test]
fn bad_register_names() {
    let e = err_of("main: add r32, r1, r2\n");
    assert_eq!(e.line, 1);
    let e = err_of("main: add rx, r1, r2\n");
    assert_eq!(e.line, 1);
    // f-registers cannot take integer ALU ops operands? They can be
    // parsed; but a malformed bank digit must fail.
    let e = err_of("main: fadd f32, f1, f2\n");
    assert_eq!(e.line, 1);
}

#[test]
fn immediate_range_checks() {
    assert!(assemble("main: addi r1, r0, 32767\nhalt\n").is_ok());
    let e = err_of("main: addi r1, r0, 32768\n");
    assert!(e.msg.contains("16 signed bits"));
    assert!(assemble("main: addi r1, r0, -32768\nhalt\n").is_ok());
    let e = err_of("main: addi r1, r0, -32769\n");
    assert!(e.msg.contains("16 signed bits"));
}

#[test]
fn li_range_checks() {
    assert!(assemble("main: li r1, 0xffffffff\nhalt\n").is_ok());
    let e = err_of("main: li r1, 0x100000000\n");
    assert!(e.msg.contains("not representable"));
}

#[test]
fn memory_operand_errors() {
    let e = err_of("main: ld r1, 8(r99)\n");
    assert!(e.msg.contains("bad base register"));
    let e = err_of("main: ld r1, 8(r2\n");
    assert!(e.msg.contains("malformed") || e.msg.contains("unrecognized"));
    let e = err_of("main: ld r1, 70000(r2)\n");
    assert!(e.msg.contains("16 signed bits"));
}

#[test]
fn degenerate_memory_operands_do_not_panic() {
    // `0()` leaves an empty base token; the register parser used to
    // slice into it byte-blind. These must all be line-numbered errors.
    for src in [
        "main: ld r1, 0()\n",
        "main: sd r1, ()\n",
        "main: ld r1, 8(é)\n",
        "main: ld r1, 8(r)\n",
        "main: add r1, é, r2\n",
    ] {
        let e = err_of(src);
        assert_eq!(e.line, 1, "wrong line for {src:?}");
    }
}

#[test]
fn negating_the_minimum_is_an_error() {
    // `-` then `-9223372036854775808` would negate `i64::MIN`.
    for (src, line) in [
        ("main: li r1, --9223372036854775808\n", 1),
        (".data\nx: .quad --9223372036854775808\n", 2),
    ] {
        let e = err_of(src);
        assert_eq!(e.line, line, "wrong line for {src:?}");
        assert!(e.msg.contains("unrecognized operand"), "{src:?}: {}", e.msg);
    }
}

#[test]
fn branch_out_of_range_is_detected() {
    // Place the target > 32767 instructions away.
    let mut src = String::from("main: beq r0, r0, far\n");
    for _ in 0..33_000 {
        src.push_str("nop\n");
    }
    src.push_str("far: halt\n");
    let e = err_of(&src);
    assert!(e.msg.contains("exceeds range"), "{}", e.msg);
}

#[test]
fn directive_errors() {
    let e = err_of(".data\nx: .space -5\n");
    assert_eq!(e.line, 2);
    let e = err_of(".data\nx: .align 3\n");
    assert!(e.msg.contains("power of two"));
    let e = err_of(".data\nx: .double nope\n");
    assert!(e.msg.contains("bad .double"));
    let e = err_of(".frobnicate 3\n");
    assert!(e.msg.contains("unknown directive"));
}

#[test]
fn instructions_in_data_section_rejected() {
    let e = err_of(".data\nadd r1, r2, r3\n");
    assert!(e.msg.contains("outside .text"));
}

#[test]
fn data_directives_in_text_rejected() {
    // A label before them would take a text address while the data went
    // to the data segment.
    let e = err_of(".text\nmain: la r1, tbl\n ld r2, 0(r1)\n halt\ntbl: .quad 42\n");
    assert_eq!(e.line, 5);
    assert!(e.msg.contains("outside .data"), "{}", e.msg);
    // Text is the section until a `.data`.
    for directive in [
        ".quad 1",
        ".word 1",
        ".half 1",
        ".byte 1",
        ".double 1.0",
        ".space 8",
        ".align 8",
    ] {
        let e = err_of(&format!("main: halt\n{directive}\n"));
        assert_eq!(e.line, 2, "wrong line for {directive}");
        assert!(e.msg.contains("outside .data"), "{directive}: {}", e.msg);
    }
}

#[test]
fn missing_operands_reported() {
    assert!(err_of("main: add r1, r2\n").msg.contains("register"));
    assert!(err_of("main: beq r1, r2\n").msg.contains("branch target"));
    assert!(err_of("main: li r1\n").msg.contains("missing immediate"));
    assert!(err_of("main: jal\n").msg.contains("jump target"));
}

#[test]
fn lui_requires_unsigned_16() {
    assert!(assemble("main: lui r1, 0xffff\nhalt\n").is_ok());
    let e = err_of("main: lui r1, 0x10000\n");
    assert!(e.msg.contains("16 bits"));
    let e = err_of("main: lui r1, -1\n");
    assert!(e.msg.contains("16 bits"));
}

#[test]
fn error_line_numbers_are_exact() {
    let e = err_of("nop\nnop\nbogus r1\nnop\n");
    assert_eq!(e.line, 3);
    assert!(e.to_string().starts_with("line 3:"));
}

#[test]
fn labels_with_invalid_characters_are_not_labels() {
    // `1abel:` does not parse as a label; it falls through to
    // instruction parsing and fails there.
    assert!(assemble("1abel: nop\n").is_err());
}

#[test]
fn duplicate_data_and_text_labels_collide() {
    let e = err_of(".data\nx: .quad 1\n.text\nx: nop\n");
    assert!(e.msg.contains("duplicate"));
}

#[test]
fn surplus_operands_are_rejected_on_their_line() {
    // Each line alone is one too many for its mnemonic; a valid line
    // above it shows the error lands on the surplus line itself.
    for (src, msg) in [
        ("add r1, r2, r3, r4", "`add` takes 3 operands, not 4"),
        ("addi r2, r0, 5, 6", "`addi` takes 3 operands, not 4"),
        ("halt r9", "`halt` takes 0 operands, not 1"),
        ("ret ra", "`ret` takes 0 operands, not 1"),
        ("jr r1, r2", "`jr` takes 1 operand, not 2"),
    ] {
        let e = err_of(&format!("main: nop\n{src}\nhalt\n"));
        assert_eq!(e.line, 2, "wrong line for {src:?}");
        assert_eq!(e.msg, msg, "{src:?}");
    }
    // Surplus operands are still parsed first: a malformed one is
    // reported as such.
    let e = err_of("main: add r1, r2, r3, 8(r99)\n");
    assert!(e.msg.contains("bad base register"), "{}", e.msg);
    // The exact operand count assembles, upper-case mnemonics included.
    assert!(assemble("main: ADD r1, r2, r3\nret\nhalt\n").is_ok());
}
