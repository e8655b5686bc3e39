//! Store→load ordering tests: loads must observe older in-flight
//! stores through the LSQ model, and the ablation flag must isolate the
//! cost.

use ubrc_isa::assemble;
use ubrc_sim::{simulate, SimConfig, SimResult};

fn run(src: &str, forwarding: bool) -> SimResult {
    let mut cfg = SimConfig::paper_default();
    cfg.model_store_forwarding = forwarding;
    simulate(vec![assemble(src).unwrap()], cfg).unwrap()
}

/// A store feeding an immediately following load of the same address
/// (classic stack spill/reload) serializes: the load cannot issue
/// before the store executes.
#[test]
fn spill_reload_pairs_serialize() {
    let mut src = String::from(".data\nslot: .space 8\n.text\nmain: la r9, slot\n li r1, 1\n");
    for _ in 0..200 {
        // Mul chain makes r1 late; the store then gates the load.
        src.push_str(" mul r1, r1, r1\n sd r1, 0(r9)\n ld r1, 0(r9)\n");
    }
    src.push_str(" halt\n");
    let with = run(&src, true);
    let without = run(&src, false);
    assert_eq!(with.retired, without.retired);
    assert!(with.store_forward_stalls > 0, "ordering must engage");
    assert!(
        with.cycles > without.cycles,
        "ordering must cost cycles: {} vs {}",
        with.cycles,
        without.cycles
    );
}

/// Loads from addresses no in-flight store touches are unaffected by
/// the LSQ model.
#[test]
fn independent_loads_are_not_penalized() {
    let mut src = String::from(
        ".data\na: .space 64\nb: .quad 1, 2, 3, 4, 5, 6, 7, 8\n.text\nmain: la r9, a\n la r10, b\n li r1, 1\n",
    );
    for i in 0..100 {
        src.push_str(&format!(
            " sd r1, {}(r9)\n ld r2, {}(r10)\n add r3, r3, r2\n",
            (i % 8) * 8,
            (i % 8) * 8
        ));
    }
    src.push_str(" halt\n");
    let with = run(&src, true);
    let without = run(&src, false);
    assert_eq!(with.retired, without.retired);
    // Different granules: no forwarding stalls at all.
    assert_eq!(with.store_forward_stalls, 0);
    assert_eq!(with.cycles, without.cycles);
}

/// The whole kernel suite still validates with ordering on (it is the
/// default for every experiment).
#[test]
fn suite_runs_with_ordering_enabled() {
    use ubrc_workloads::{workload_by_name, Scale};
    for name in ["qsort", "fib", "rle"] {
        let w = workload_by_name(name, Scale::Tiny).unwrap();
        let m = w.run_checks().unwrap();
        let r = simulate(vec![w.assemble().unwrap()], SimConfig::paper_default()).unwrap();
        assert_eq!(r.retired, m.instruction_count(), "{name}");
        // Stack-heavy kernels must exercise the forwarding path.
        if name == "qsort" || name == "fib" {
            assert!(r.store_forward_stalls > 0, "{name} should hit the LSQ");
        }
    }
}
