//! Load-hit speculation tests: dependents of a missing load issue in
//! its shadow, replay, and reissue with the true latency — the same
//! 21264 mechanism the paper reuses for register-cache misses.

use ubrc_isa::assemble;
use ubrc_sim::{simulate, SimConfig, SimResult};
use ubrc_workloads::{workload_by_name, Scale, Workload};

fn run(w: &Workload, cfg: SimConfig) -> SimResult {
    simulate(vec![w.assemble().unwrap()], cfg).unwrap()
}

/// A cold pointer-chase load misses to memory; its dependent must be
/// squashed once (issued under the hit assumption) and the run must
/// still complete exactly.
#[test]
fn missing_load_squashes_its_shadow() {
    let src = ".data\ncell: .quad 1048576\n.text\n\
         main: la r1, cell\n\
               ld r2, 0(r1)\n\
               add r3, r2, r2\n\
               add r4, r3, r3\n\
               halt\n";
    let mut on = SimConfig::paper_default();
    on.load_hit_speculation = true;
    let r = simulate(vec![assemble(src).unwrap()], on).unwrap();
    assert!(
        r.load_miss_speculations >= 1,
        "the cold load must mis-speculate"
    );
    assert_eq!(r.retired, 6);
}

/// Disabling load-hit speculation gives an oracle scheduler: no
/// replays, and performance within noise of the speculative scheduler
/// (replay side effects interact with the register cache, so strict
/// dominance does not hold on miss-heavy code).
#[test]
fn oracle_scheduling_eliminates_replays() {
    let w = workload_by_name("listchase", Scale::Small).unwrap();
    let mut spec = SimConfig::paper_default();
    spec.load_hit_speculation = true;
    let mut oracle = SimConfig::paper_default();
    oracle.load_hit_speculation = false;
    let rs = run(&w, spec);
    let ro = run(&w, oracle);
    assert_eq!(rs.retired, ro.retired);
    assert!(rs.load_miss_speculations > 0);
    assert_eq!(ro.load_miss_speculations, 0);
    let ratio = ro.cycles as f64 / rs.cycles as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "oracle ({}) and speculative ({}) diverged beyond noise",
        ro.cycles,
        rs.cycles
    );
}

/// L1-resident loads never mis-speculate.
#[test]
fn warm_loads_do_not_replay() {
    // Spin on one cell long enough that everything is L1-resident;
    // only the cold accesses may mis-speculate.
    let src = ".data\ncell: .quad 7\n.text\n\
         main: la r1, cell\n\
               li r5, 400\n\
         loop: ld r2, 0(r1)\n\
               subi r5, r5, 1\n\
               bgtz r5, loop\n\
               halt\n";
    let r = simulate(vec![assemble(src).unwrap()], SimConfig::paper_default()).unwrap();
    assert!(
        r.load_miss_speculations <= 4,
        "warm loop mis-speculated {} times",
        r.load_miss_speculations
    );
}

/// Architectural results survive speculation across the suite.
#[test]
fn suite_completes_with_load_speculation() {
    for name in ["listchase", "bfs", "qsort"] {
        let w = workload_by_name(name, Scale::Tiny).unwrap();
        let m = w.run_checks().unwrap();
        let r = run(&w, SimConfig::paper_default());
        assert_eq!(r.retired, m.instruction_count(), "{name}");
    }
}
