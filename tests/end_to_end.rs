//! Cross-crate integration tests: the whole stack from assembly text to
//! timing statistics.

use ubrc::emu::Machine;
use ubrc::isa::assemble;
use ubrc::sim::{simulate, SimConfig, SimResult};
use ubrc::workloads::{suite, workload_by_name, Scale, Workload};

fn run(w: &Workload, spec: &str) -> SimResult {
    simulate(vec![w.assemble().unwrap()], spec.parse().unwrap()).unwrap()
}

#[test]
fn workload_suite_validates_at_default_scale() {
    // The exact scale the experiment harness runs: every kernel must
    // assemble, halt, and produce the mirrored architectural results.
    for w in suite(Scale::Default) {
        w.run_checks()
            .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", w.name));
    }
}

#[test]
fn timing_simulation_preserves_architectural_results() {
    // The timing model must not change *what* executes — only when.
    // Run the emulator standalone, then make sure the simulator retires
    // exactly as many instructions for every storage organization.
    let w = workload_by_name("hash", Scale::Small).unwrap();
    let machine = w.run_checks().unwrap();
    let expected = machine.instruction_count();
    for spec in ["use-based", "rf-3"] {
        assert_eq!(run(&w, spec).retired, expected);
    }
}

#[test]
fn assembled_programs_roundtrip_through_encoding() {
    // Text -> Inst -> u32 -> Inst for every instruction of every kernel.
    for w in suite(Scale::Tiny) {
        let p = w.assemble().unwrap();
        for (i, inst) in p.text.iter().enumerate() {
            let word = inst
                .encode()
                .unwrap_or_else(|e| panic!("kernel `{}` inst {i} failed to encode: {e}", w.name));
            let back = ubrc::isa::Inst::decode(word).unwrap();
            assert_eq!(*inst, back, "kernel `{}` inst {i}", w.name);
        }
    }
}

#[test]
fn cache_statistics_are_internally_consistent() {
    let w = workload_by_name("qsort", Scale::Small).unwrap();
    let r = run(&w, "use-based,classify=on");
    let c = r.regcache.expect("cached run");
    assert_eq!(c.reads, c.read_hits + c.read_misses);
    assert_eq!(c.writes_attempted, c.writes_inserted + c.writes_filtered);
    assert_eq!(
        c.read_misses,
        c.misses_not_written + c.misses_capacity + c.misses_conflict,
        "classification must cover every miss"
    );
    // Every miss schedules a fill, but fills for values squashed on
    // the wrong path before the backing-file read returns are dropped.
    assert!(c.fills <= c.read_misses, "more fills than misses");
    assert!(c.fills > 0, "a qsort run must fill the cache sometimes");
    assert!(c.values_freed <= c.values_produced);
    assert!(c.values_never_cached <= c.values_freed);
    assert!(c.evictions_zero_use <= c.evictions);
    // Backing file reads are exactly the cache misses.
    assert_eq!(r.backing.unwrap().reads, c.read_misses);
}

#[test]
fn deterministic_simulation() {
    // Identical inputs must give identical cycle counts (no hidden
    // randomness or time dependence anywhere in the stack).
    let w = workload_by_name("bfs", Scale::Small).unwrap();
    let a = run(&w, "use-based");
    let b = run(&w, "use-based");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.replayed, b.replayed);
    assert_eq!(
        a.regcache.unwrap().read_misses,
        b.regcache.unwrap().read_misses
    );
}

#[test]
fn custom_program_through_the_full_stack() {
    let src = "
        .data
        tbl: .quad 5, 4, 3, 2, 1
        .text
        main:   la   r1, tbl
                li   r2, 5
                li   r3, 0
        loop:   ld   r4, 0(r1)
                mul  r5, r4, r4
                add  r3, r3, r5
                addi r1, r1, 8
                subi r2, r2, 1
                bgtz r2, loop
                halt
    ";
    let program = assemble(src).unwrap();
    let mut m = Machine::new(program.clone());
    m.run(10_000).unwrap();
    assert_eq!(m.int_reg(3), 25 + 16 + 9 + 4 + 1);
    let r = simulate(vec![program], SimConfig::paper_default()).unwrap();
    assert_eq!(r.retired, m.instruction_count());
    assert!(r.cycles > 0);
}

#[test]
fn synthetic_workloads_run_under_timing_simulation() {
    use ubrc::workloads::synthetic::SyntheticSpec;
    for spec in [
        SyntheticSpec::single_use_heavy(3),
        SyntheticSpec::high_use(3),
        SyntheticSpec::dead_value_heavy(3),
    ] {
        let spec = SyntheticSpec { blocks: 30, ..spec };
        let w = spec.build();
        let r = run(&w, "use-based");
        assert!(r.retired > 500);
        assert!(r.ipc() > 0.1);
    }
}

#[test]
fn use_based_policy_prefers_predictable_reuse() {
    // The synthetic generator lets us assert the core claim directly:
    // on a high-reuse distribution, non-bypass filtering (which drops
    // any value that bypassed once) must miss far more than use-based
    // management.
    use ubrc::workloads::synthetic::SyntheticSpec;
    let w = SyntheticSpec::high_use(1).build();
    let ub = run(&w, "use-based,index=round-robin");
    let nb = run(&w, "non-bypass");
    let ub_miss = ub.miss_rate_per_operand().unwrap();
    let nb_miss = nb.miss_rate_per_operand().unwrap();
    assert!(
        ub_miss * 2.0 < nb_miss,
        "use-based ({ub_miss:.4}) should miss far less than non-bypass ({nb_miss:.4})"
    );
}
