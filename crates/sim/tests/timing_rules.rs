//! Golden timing tests: small hand-built programs whose cycle counts
//! are predictable from the pipeline rules (Figure 3 of the paper),
//! plus targeted tests of the miss/replay machinery.

use ubrc_isa::assemble;
use ubrc_sim::{simulate, BranchPredictorKind, RegStorage, SimConfig, SimResult};

fn run(src: &str, cfg: SimConfig) -> SimResult {
    simulate(vec![assemble(src).unwrap()], cfg).unwrap()
}

fn mono1() -> SimConfig {
    SimConfig::table1(RegStorage::Monolithic {
        read_latency: 1,
        write_latency: 1,
    })
}

/// Serial dependence chains issue back to back through the bypass
/// network: K chained adds take ~K cycles beyond the pipeline fill.
#[test]
fn serial_add_chain_paces_at_one_per_cycle() {
    let k = 400;
    let mut src = String::from("main: li r1, 1\n");
    for _ in 0..k {
        src.push_str(" add r1, r1, r1\n");
    }
    src.push_str(" halt\n");
    let r = run(&src, mono1());
    // Cold start: one instruction-line miss to memory (192 cycles)
    // plus the front-end fill; everything after streams via prefetch.
    let fill = 230;
    assert!(
        r.cycles >= k && r.cycles <= k + fill,
        "serial chain took {} cycles for {k} links",
        r.cycles
    );
}

/// Independent adds are limited by the six integer ALUs, not the
/// dependence chain: K adds take ~K/6 cycles.
#[test]
fn independent_adds_pace_at_alu_width() {
    let k = 600u64;
    let mut src = String::from("main: li r1, 1\n");
    for i in 0..k {
        // Six independent accumulators.
        src.push_str(&format!(" add r{}, r1, r1\n", 2 + (i % 6)));
    }
    src.push_str(" halt\n");
    let r = run(&src, mono1());
    let ideal = k / 6;
    assert!(
        r.cycles >= ideal && r.cycles <= ideal + 230,
        "independent adds took {} cycles (ideal {ideal})",
        r.cycles
    );
}

/// Multiply chains pace at the 4-cycle multiplier latency per link.
#[test]
fn mul_chain_paces_at_multiplier_latency() {
    let k = 150;
    let mut src = String::from("main: li r1, 3\n");
    for _ in 0..k {
        src.push_str(" mul r1, r1, r1\n");
    }
    src.push_str(" halt\n");
    let r = run(&src, mono1());
    let ideal = 4 * k;
    assert!(
        r.cycles >= ideal && r.cycles <= ideal + 230,
        "mul chain took {} cycles (ideal {ideal})",
        r.cycles
    );
}

/// A value whose only predicted use bypasses is filtered from the
/// cache; a late second consumer then misses exactly once (Figure 3's
/// star) and the instruction still completes correctly.
#[test]
fn late_second_consumer_misses_once() {
    // r2's value: the predictor is cold, so the unknown default (1 use)
    // applies. r3 consumes it via bypass; r4's add is held back by a
    // long multiply chain, so it reads the (filtered) cache -> miss.
    let mut src = String::from(
        "main: li r1, 5\n\
              add r2, r1, r1\n\
              add r3, r2, r0\n\
              li r20, 7\n",
    );
    for _ in 0..12 {
        src.push_str(" mul r20, r20, r20\n");
    }
    src.push_str(" add r4, r2, r20\n halt\n");
    let r = run(&src, SimConfig::paper_default());
    assert_eq!(r.miss_events, 1, "expected exactly one register cache miss");
    let c = r.regcache.unwrap();
    assert_eq!(
        c.misses_not_written + c.misses_capacity + c.misses_conflict,
        0,
        "classification disabled by default"
    );
    assert_eq!(c.fills, 1);
}

/// With a perfectly-predicted loop and values consumed immediately,
/// the register cache machine matches the 1-cycle file closely: almost
/// everything bypasses.
#[test]
fn bypass_dominated_code_sees_no_cache_penalty() {
    let src = "main: li r1, 500\n\
         loop: subi r1, r1, 1\n\
               bgtz r1, loop\n\
               halt\n";
    let cached = run(src, SimConfig::paper_default());
    let ideal = run(src, mono1());
    let slowdown = ideal.ipc() / cached.ipc();
    assert!(
        slowdown < 1.02,
        "cached machine {:.4} IPC vs ideal {:.4} IPC",
        cached.ipc(),
        ideal.ipc()
    );
    assert!(cached.bypass_fraction().unwrap() > 0.9);
}

/// The branch mis-speculation loop costs at least the 15-cycle minimum:
/// a loop whose branch always mispredicts (static not-taken predictor,
/// always-taken branch) pays ~15+ cycles per iteration.
#[test]
fn mispredict_loop_costs_the_minimum_redirect() {
    let k = 100;
    let src = format!(
        "main: li r1, {k}\n\
         loop: subi r1, r1, 1\n\
               bgtz r1, loop\n\
               halt\n"
    );
    let mut cfg = mono1();
    cfg.branch_predictor = BranchPredictorKind::NotTaken;
    let r = run(&src, cfg);
    // Every taken back-edge (k-1 of them) redirects.
    let min = 15 * (k - 1);
    assert!(
        r.cycles >= min,
        "mispredicting loop took {} cycles (minimum {min})",
        r.cycles
    );
    assert_eq!(r.branch_mispredicts, k - 1);
}

/// Load-to-use latency: a pointer-chase chain in L1 paces at ~4+1
/// cycles per link on the cached machine (4-cycle load-to-use plus the
/// cache-read stage).
#[test]
fn load_chain_paces_at_load_to_use_latency() {
    // Self-loop pointer at a fixed address: ld r1, 0(r1) repeatedly.
    let k = 200;
    let mut src = String::from(".data\ncell: .quad 1048576\n.text\nmain: la r1, cell\n");
    for _ in 0..k {
        src.push_str(" ld r1, 0(r1)\n");
    }
    src.push_str(" halt\n");
    let r = run(&src, mono1());
    let ideal = 4 * k;
    // Cold start pays one I-side and one D-side memory miss.
    assert!(
        r.cycles >= ideal && r.cycles <= ideal + 450,
        "load chain took {} cycles (ideal {ideal} + misses)",
        r.cycles
    );
}

/// Retirement width limits throughput even for trivially parallel
/// code: nops cannot retire faster than 8 per cycle.
#[test]
fn retirement_width_bounds_ipc() {
    let mut src = String::from("main:\n");
    for _ in 0..2000 {
        src.push_str(" nop\n");
    }
    src.push_str(" halt\n");
    let r = run(&src, mono1());
    assert!(r.ipc() <= 8.0);
    // 2000 nops / 8-wide = 250 cycles ideal, plus ~210 cold-start.
    assert!(
        r.ipc() > 3.5,
        "nop stream should near the retire width: {}",
        r.ipc()
    );
}

/// Store-heavy code is limited by the 2-stores-per-cycle retirement
/// rule.
#[test]
fn store_retirement_limit() {
    let mut src = String::from(".data\nbuf: .space 16384\n.text\nmain: la r1, buf\n");
    for i in 0..1000 {
        src.push_str(&format!(" sd r0, {}(r1)\n", (i % 256) * 8));
    }
    src.push_str(" halt\n");
    let r = run(&src, mono1());
    assert!(
        r.ipc() <= 2.1,
        "store stream cannot exceed 2 IPC (got {:.3})",
        r.ipc()
    );
}

/// §3.3 pinning, end to end: a loop-invariant value with many uses
/// stays cached (pinned) once the predictor learns its degree, so a
/// consumer far from the producer still hits.
#[test]
fn high_use_values_stay_pinned_in_the_cache() {
    // r9 is written once and read every iteration (degree explodes past
    // the 7-use pinning limit). After training, iterations must not
    // miss on it.
    let src = "main: li r9, 3\n\
               li r1, 2000\n\
         loop: add r2, r9, r9\n\
               mul r3, r2, r9\n\
               subi r1, r1, 1\n\
               bgtz r1, loop\n\
               halt\n";
    let r = run(src, SimConfig::paper_default());
    let c = r.regcache.unwrap();
    let miss = c.miss_rate().unwrap_or(0.0);
    assert!(
        miss < 0.02,
        "loop-invariant reads should hit a pinned entry (miss rate {miss:.4})"
    );
}
