//! Bring your own workload: write a kernel in UBRC assembly (or load
//! one from a file), validate it functionally, and sweep the register
//! cache geometry for it — the workflow a microarchitect would use to
//! size a register cache for a specific code pattern.
//!
//! ```text
//! cargo run --release --example custom_kernel [path/to/kernel.s]
//! ```
//!
//! Without an argument, a built-in histogram kernel is used.

use ubrc::emu::Machine;
use ubrc::isa::assemble;
use ubrc::sim::simulate;
use ubrc::stats::Table;

const BUILTIN: &str = "
    ; byte-histogram kernel: classic table-update pattern with
    ; load-modify-store dependences through memory.
    .data
    input:  .byte 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
            .byte 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5
    hist:   .space 80
    .text
    main:   li   r9, 200           ; passes
    pass:   la   r1, input
            li   r2, 32
    loop:   lbu  r3, 0(r1)
            slli r4, r3, 3
            la   r5, hist
            add  r5, r5, r4
            ld   r6, 0(r5)
            addi r6, r6, 1
            sd   r6, 0(r5)
            addi r1, r1, 1
            subi r2, r2, 1
            bgtz r2, loop
            subi r9, r9, 1
            bgtz r9, pass
            ; checksum the histogram
            la   r1, hist
            li   r2, 10
            li   r4, 0
    sum:    ld   r3, 0(r1)
            add  r4, r4, r3
            addi r1, r1, 8
            subi r2, r2, 1
            bgtz r2, sum
            halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => BUILTIN.to_string(),
    };
    let program = assemble(&source)?;

    // Functional validation first: a kernel that faults or spins would
    // waste every sweep point.
    let mut machine = Machine::new(program.clone());
    machine.run(10_000_000)?;
    if !machine.is_halted() {
        return Err("kernel did not halt within 10M instructions".into());
    }
    println!(
        "kernel OK: {} dynamic instructions, checksum r4 = {}\n",
        machine.instruction_count(),
        machine.int_reg(4)
    );

    // Sweep cache geometry for this kernel.
    let mut table = Table::new(["geometry", "IPC", "miss/operand %", "writes filtered %"]);
    for (entries, ways) in [(16, 2), (32, 2), (64, 2), (64, 4), (128, 2)] {
        let cfg = format!("use-based,entries={entries},ways={ways}").parse()?;
        let r = simulate(vec![program.clone()], cfg)?;
        let cache = r.regcache.as_ref().expect("cached config");
        table.row([
            format!("{entries}-entry {ways}-way"),
            format!("{:.3}", r.ipc()),
            format!("{:.2}", r.miss_rate_per_operand().unwrap_or(0.0) * 100.0),
            format!("{:.1}", cache.frac_writes_filtered().unwrap_or(0.0) * 100.0),
        ]);
    }
    let mono = simulate(vec![program], "rf-3".parse()?)?;
    table.row([
        "3-cycle monolithic file".to_string(),
        format!("{:.3}", mono.ipc()),
        "-".to_string(),
        "-".to_string(),
    ]);
    println!("{table}");
    Ok(())
}
