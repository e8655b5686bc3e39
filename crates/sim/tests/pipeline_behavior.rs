//! Behavioural tests of the timing simulator: the pipeline must retire
//! exactly the functional instruction stream, and timing must respond
//! to the register-storage organization in the directions the paper
//! establishes.

use ubrc_isa::assemble;
use ubrc_sim::{simulate, SimConfig, SimResult};
use ubrc_workloads::{suite, workload_by_name, Scale, Workload};

fn run(w: &Workload, cfg: SimConfig) -> SimResult {
    simulate(vec![w.assemble().unwrap()], cfg).unwrap()
}

fn spec(spec: &str) -> SimConfig {
    spec.parse().unwrap()
}

fn mono(latency: u32) -> SimConfig {
    spec(&format!("rf-{latency}"))
}

fn run_asm(src: &str, config: SimConfig) -> SimResult {
    simulate(vec![assemble(src).unwrap()], config).unwrap()
}

#[test]
fn retires_the_exact_dynamic_instruction_count() {
    // 10 iterations * 3 instructions + 2 setup + 1 halt.
    let src = "main: li r1, 10\n\
               li r2, 0\n\
         loop: add r2, r2, r1\n\
               subi r1, r1, 1\n\
               bnez r1, loop\n\
               halt\n";
    let r = run_asm(src, SimConfig::paper_default());
    assert_eq!(r.retired, 2 + 10 * 3 + 1);
}

#[test]
fn every_workload_retires_and_progresses_under_every_storage() {
    let configs = [SimConfig::paper_default(), mono(3), spec("two-level")];
    for w in suite(Scale::Tiny) {
        // The functional emulator gives the ground-truth count.
        let m = w.run_checks().unwrap();
        for cfg in &configs {
            let r = run(&w, cfg.clone());
            assert_eq!(
                r.retired,
                m.instruction_count(),
                "workload {} retired a different count under {:?}",
                w.name,
                cfg.storage
            );
            assert!(r.ipc() > 0.05, "workload {} IPC collapsed", w.name);
            assert!(r.cycles > r.retired / 8, "IPC above machine width");
        }
    }
}

#[test]
fn single_cycle_file_beats_slower_files() {
    let w = workload_by_name("crc", Scale::Small).unwrap();
    let ipc1 = run(&w, mono(1)).ipc();
    let ipc2 = run(&w, mono(2)).ipc();
    let ipc3 = run(&w, mono(3)).ipc();
    assert!(ipc1 >= ipc2, "1-cycle {ipc1} < 2-cycle {ipc2}");
    assert!(ipc2 >= ipc3, "2-cycle {ipc2} < 3-cycle {ipc3}");
    assert!(ipc1 > ipc3, "no penalty at all for a 3-cycle file");
}

#[test]
fn serial_dependence_chain_exposes_register_file_latency() {
    // A pure ALU chain issues back-to-back regardless of file latency
    // (the bypass network covers it) — but a chain whose consumers fall
    // outside the bypass window pays the gap. Interleave two chains so
    // consumers issue 3+ cycles after producers.
    let mut body = String::from("main: li r1, 1\n li r2, 1\n li r3, 1\n li r4, 1\n");
    for _ in 0..200 {
        body.push_str(" add r1, r1, r2\n add r3, r3, r4\n mul r5, r1, r3\n");
    }
    body.push_str(" halt\n");
    let fast = run_asm(&body, mono(1));
    let slow = run_asm(&body, mono(3));
    assert!(
        fast.ipc() > slow.ipc(),
        "expected latency penalty: {} vs {}",
        fast.ipc(),
        slow.ipc()
    );
}

#[test]
fn register_cache_recovers_most_of_the_monolithic_penalty() {
    // The headline claim: a 64-entry 2-way use-based cache outperforms
    // the 3-cycle monolithic file (Figure 11).
    let mut wins = 0;
    let mut total = 0;
    for w in suite(Scale::Small) {
        let ub = run(&w, SimConfig::paper_default()).ipc();
        let m3 = run(&w, mono(3)).ipc();
        total += 1;
        if ub > m3 {
            wins += 1;
        }
    }
    assert!(
        wins * 2 > total,
        "use-based cache beat the 3-cycle file on only {wins}/{total} kernels"
    );
}

#[test]
fn use_based_beats_non_bypass_on_miss_rate() {
    let w = workload_by_name("qsort", Scale::Small).unwrap();
    let ub = run(&w, spec("use-based,index=round-robin"));
    let nb = run(&w, spec("non-bypass"));
    let ub_miss = ub.regcache.unwrap().miss_rate().unwrap();
    let nb_miss = nb.regcache.unwrap().miss_rate().unwrap();
    assert!(
        ub_miss < nb_miss,
        "use-based miss rate {ub_miss} not below non-bypass {nb_miss}"
    );
}

#[test]
fn fully_associative_cache_reports_no_conflict_misses() {
    let w = workload_by_name("matmul", Scale::Tiny).unwrap();
    let r = run(
        &w,
        spec("use-based,entries=32,ways=32,index=standard,classify=on"),
    );
    let c = r.regcache.unwrap();
    assert_eq!(c.misses_conflict, 0);
}

#[test]
fn miss_replay_squashes_are_counted() {
    let w = workload_by_name("listchase", Scale::Tiny).unwrap();
    let r = run(&w, SimConfig::paper_default());
    assert!(r.miss_events > 0, "pointer chasing should miss sometimes");
    assert!(r.replayed > 0, "misses must trigger replays");
}

#[test]
fn branch_mispredictions_are_detected_and_bounded() {
    let w = workload_by_name("qsort", Scale::Small).unwrap();
    let r = run(&w, SimConfig::paper_default());
    let rate = r.branch_mispredict_rate().unwrap();
    assert!(rate > 0.0, "sorting random data must mispredict sometimes");
    assert!(rate < 0.5, "misprediction rate {rate} implausibly high");
}

#[test]
fn degree_predictor_reaches_high_accuracy_on_loops() {
    let w = workload_by_name("crc", Scale::Small).unwrap();
    let r = run(&w, SimConfig::paper_default());
    let acc = r.douse.accuracy().unwrap();
    assert!(acc > 0.9, "degree-of-use accuracy {acc} below expectation");
}

/// The degree-of-use predictor belongs to the register cache: the
/// monolithic and two-level files build none, so they train nothing.
#[test]
fn only_the_register_cache_predicts_degrees_of_use() {
    let w = workload_by_name("qsort", Scale::Tiny).unwrap();
    for base in ["rf-3", "two-level"] {
        assert_eq!(run(&w, spec(base)).douse, Default::default(), "{base}");
    }
    let cached = run(&w, SimConfig::paper_default()).douse;
    assert_ne!(cached, Default::default());
    assert!(cached.predicted > 0 && cached.unknown > 0, "{cached:?}");
}

#[test]
fn two_level_file_stalls_when_l1_is_tiny() {
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let small = spec("two-level,entries=66");
    let large = spec("two-level,entries=160");
    let rs = run(&w, small);
    let rl = run(&w, large);
    assert!(
        rs.ipc() <= rl.ipc(),
        "tiny L1 should not outperform a large one ({} vs {})",
        rs.ipc(),
        rl.ipc()
    );
    assert!(
        rs.dispatch_stall_pregs > 0,
        "a 66-entry L1 must stall rename"
    );
}

#[test]
fn lifetime_collection_produces_consistent_distributions() {
    let mut cfg = SimConfig::paper_default();
    cfg.collect_lifetimes = true;
    let w = workload_by_name("bitops", Scale::Tiny).unwrap();
    let r = run(&w, cfg);
    let lt = r.lifetimes.expect("lifetimes collected");
    assert!(!lt.empty.is_empty());
    assert!(!lt.live.is_empty());
    assert!(!lt.dead.is_empty());
    // The concurrency sweeps integrate cycles: totals equal run length.
    assert_eq!(lt.live_concurrency.count(), r.cycles);
    assert_eq!(lt.alloc_concurrency.count(), r.cycles);
    // Allocated registers never exceed the physical register count and
    // live values never exceed allocated.
    assert!(lt.alloc_concurrency.max().unwrap() <= 512);
    assert!(lt.live_concurrency.max().unwrap() <= lt.alloc_concurrency.max().unwrap());
}

#[test]
fn instruction_budget_is_respected() {
    let mut cfg = SimConfig::paper_default();
    cfg.max_instructions = 500;
    let w = workload_by_name("crc", Scale::Small).unwrap();
    let r = run(&w, cfg);
    assert!(r.retired >= 500, "stopped early: {}", r.retired);
    assert!(r.retired < 600, "overshot the budget: {}", r.retired);
}

#[test]
fn backing_file_sees_every_write_and_only_miss_reads() {
    let w = workload_by_name("matmul", Scale::Tiny).unwrap();
    let r = run(&w, SimConfig::paper_default());
    let b = r.backing.unwrap();
    let c = r.regcache.unwrap();
    // Every *executed* producer writes the backing file; values squashed
    // on the wrong path before issuing never do, so writes cannot
    // exceed the produced count (minus the 64 pre-existing
    // architectural values).
    assert!(b.writes <= c.values_produced - 64);
    assert!(b.writes >= r.retired / 4, "implausibly few backing writes");
    // Reads only happen on cache misses.
    assert_eq!(b.reads, c.read_misses);
}

#[test]
fn timeline_tracing_records_stages_in_order() {
    let mut cfg = SimConfig::paper_default();
    cfg.trace_instructions = 32;
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let r = run(&w, cfg);
    let tl = r.timeline.expect("tracing enabled");
    assert_eq!(tl.insts.len(), 32);
    for t in &tl.insts {
        assert!(t.fetch <= t.dispatch, "seq {}: fetch after dispatch", t.seq);
        if t.issue == 0 {
            // Squashed before issuing: must be wrong-path.
            assert!(
                t.wrong_path,
                "seq {} never issued on the correct path",
                t.seq
            );
            continue;
        }
        assert!(t.dispatch < t.issue, "seq {}: dispatch after issue", t.seq);
        assert!(t.issue < t.exec_start, "seq {}: issue after execute", t.seq);
        assert!(t.exec_start <= t.exec_done);
        if t.wrong_path {
            assert_eq!(t.retire, 0, "seq {}: wrong-path retired", t.seq);
        } else {
            assert!(t.exec_done <= t.retire, "seq {}: retire before done", t.seq);
        }
    }
    // Retirement of correct-path instructions is in order.
    let retires: Vec<u64> = tl
        .insts
        .iter()
        .filter(|t| !t.wrong_path)
        .map(|t| t.retire)
        .collect();
    assert!(retires.windows(2).all(|w| w[0] <= w[1]));
    // The rendering mentions every traced sequence number.
    let text = tl.render(120);
    assert!(text.contains(" 31 "));
}

#[test]
fn profiled_run_matches_unprofiled() {
    // Profiling must be observation-only: identical simulated outcome,
    // with the wall-time attribution riding alongside.
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let plain = run(&w, SimConfig::paper_default());
    let mut cfg = SimConfig::paper_default();
    cfg.profile = true;
    let profiled = run(&w, cfg);
    assert_eq!(plain.cycles, profiled.cycles);
    assert_eq!(plain.retired, profiled.retired);
    assert!(plain.profile.is_none());
    let p = profiled.profile.expect("profile collected");
    assert!(p.total_nanos() > 0);
    // Every stage runs once per cycle, so the call counts agree
    // with each other and with the simulated cycle count.
    assert!(p.stages.iter().all(|s| s.calls == plain.cycles));
}
