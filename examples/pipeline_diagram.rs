//! Pipeline diagram: reproduce Figure 3 of the paper interactively.
//!
//! Traces the first instructions of a dependent chain through the
//! machine and renders a text timeline showing fetch (F), dispatch (D),
//! issue (I), execute (X), writeback (W), and retire (R), plus how each
//! source operand arrived: `b` first-stage bypass, `B` later bypass
//! stage, `c` register-cache hit, `M` register-cache miss, `s` register
//! file.
//!
//! ```text
//! cargo run --release --example pipeline_diagram
//! ```

use ubrc::isa::assemble;
use ubrc::sim::{simulate, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 3 scenario: a producer (I1) whose value feeds
    // consumers at increasing distances. I2/I3 catch the bypass
    // network; I4 reads the register cache; a consumer delayed behind a
    // long-latency chain arrives after the value was filtered and
    // misses (the star in Figure 3).
    let source = "
        main: li  r1, 21
              add r2, r1, r1      ; I1: produces the value of interest
              add r3, r2, r0      ; I2: first-stage bypass
              add r4, r2, r0      ; I3: first/second-stage bypass
              add r5, r2, r0      ; I4: register cache access
              li  r20, 7
              mul r20, r20, r20   ; long-latency chain to delay I5
              mul r20, r20, r20
              mul r20, r20, r20
              add r6, r2, r20     ; I5: arrives late -> cache miss
              halt
    ";
    let program = assemble(source)?;

    let mut config = SimConfig::paper_default();
    config.trace_instructions = 12;
    let result = simulate(vec![program.clone()], config)?;

    println!("pipeline timeline (use-based register cache):\n");
    let timeline = result.timeline.expect("tracing enabled");
    print!("{}", timeline.render(72));
    println!(
        "\n{} register cache miss(es), {} instruction(s) squashed by replay",
        result.miss_events, result.replayed
    );

    // Same code on the 3-cycle monolithic file for contrast.
    let mut mono: SimConfig = "rf-3".parse()?;
    mono.trace_instructions = 12;
    let result = simulate(vec![program], mono)?;
    println!("\npipeline timeline (3-cycle monolithic register file):\n");
    print!("{}", result.timeline.expect("tracing enabled").render(72));
    Ok(())
}
