//! Quickstart: assemble a program, run it functionally, then simulate
//! it on the Table 1 machine with the paper's use-based register cache
//! and compare against a 3-cycle monolithic register file.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ubrc::emu::Machine;
use ubrc::isa::assemble;
use ubrc::sim::{simulate, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little dot-product kernel in UBRC assembly.
    let source = "
        .data
        a:   .quad 1, 2, 3, 4, 5, 6, 7, 8
        b:   .quad 8, 7, 6, 5, 4, 3, 2, 1
        .text
        main:   la   r1, a
                la   r2, b
                li   r3, 8
                li   r4, 0
        loop:   ld   r5, 0(r1)
                ld   r6, 0(r2)
                mul  r7, r5, r6
                add  r4, r4, r7
                addi r1, r1, 8
                addi r2, r2, 8
                subi r3, r3, 1
                bgtz r3, loop
                halt
    ";
    let program = assemble(source)?;

    // 1. Functional execution: the architectural ground truth.
    let mut machine = Machine::new(program.clone());
    machine.run(100_000)?;
    println!("functional result: r4 = {}", machine.int_reg(4));
    assert_eq!(machine.int_reg(4), 120);

    // 2. Timing simulation with the paper's proposed design: a
    //    64-entry, 2-way use-based register cache with filtered
    //    round-robin decoupled indexing over a 2-cycle backing file.
    let cached = simulate(vec![program.clone()], SimConfig::paper_default())?;
    println!(
        "use-based register cache: {} cycles, IPC {:.3}",
        cached.cycles,
        cached.ipc()
    );
    if let Some(cache) = &cached.regcache {
        println!(
            "  cache: {} reads, {:.1}% miss rate, {} writes filtered",
            cache.reads,
            cache.miss_rate().unwrap_or(0.0) * 100.0,
            cache.writes_filtered
        );
    }

    // 3. The baseline it replaces: a monolithic 3-cycle register file,
    //    named by its config spec.
    let mono = simulate(vec![program], "rf-3".parse()?)?;
    println!(
        "3-cycle monolithic file:  {} cycles, IPC {:.3}",
        mono.cycles,
        mono.ipc()
    );

    Ok(())
}
