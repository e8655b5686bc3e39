//! Configuration-space tests: the simulator must behave sensibly (and
//! sanely) across the corners of its configuration space, not just at
//! the Table 1 design point.

use ubrc_sim::{simulate, CheckConfig, SimConfig, SimResult};
use ubrc_workloads::{workload_by_name, Scale, Workload};

fn base() -> SimConfig {
    SimConfig::paper_default()
}

fn run(w: &Workload, cfg: SimConfig) -> SimResult {
    simulate(vec![w.assemble().unwrap()], cfg).unwrap()
}

#[test]
fn narrow_machine_still_correct_and_slower() {
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let wide = run(&w, base());
    let mut cfg = base();
    cfg.issue_width = 1;
    cfg.fetch_width = 1;
    cfg.retire_width = 1;
    let narrow = run(&w, cfg);
    assert_eq!(narrow.retired, wide.retired);
    assert!(narrow.ipc() <= 1.0, "1-wide machine cannot exceed 1 IPC");
    assert!(narrow.cycles > wide.cycles);
}

#[test]
fn tiny_window_throttles_ilp() {
    let w = workload_by_name("matmul", Scale::Tiny).unwrap();
    let mut small = base();
    small.window_entries = 4;
    let s = run(&w, small);
    let l = run(&w, base());
    assert_eq!(s.retired, l.retired);
    assert!(
        s.cycles >= l.cycles,
        "a 4-entry window ({}) cannot beat a 128-entry one ({})",
        s.cycles,
        l.cycles
    );
}

#[test]
fn small_rob_and_few_pregs_still_complete() {
    let w = workload_by_name("bitops", Scale::Tiny).unwrap();
    let retired = run(&w, base()).retired;
    // No ROB size may break anything, checked: a one-slot and a 16-slot
    // ROB (dispatch stalls on the ROB, which is not a preg stall), whose
    // window positions wrap the armed-slot ring many times; 100 and 513
    // slots, which are not powers of two; and an unbounded ROB, from
    // whose size nothing may be allocated up front.
    for rob_entries in [1, 16, 100, 513, usize::MAX] {
        let mut cfg = base();
        cfg.rob_entries = rob_entries;
        cfg.check = CheckConfig::full();
        let r = run(&w, cfg);
        assert_eq!(r.retired, retired, "rob_entries = {rob_entries}");
        assert!(
            r.ipc() > 0.01,
            "rob_entries = {rob_entries}: IPC {}",
            r.ipc()
        );
    }

    // Few rename registers with a big ROB must stall on the freelist.
    let mut cfg = base();
    cfg.phys_regs = 80; // 64 architectural + 16 rename
    let r = run(&w, cfg);
    assert!(r.retired > 0 && r.ipc() > 0.01);
    assert!(
        r.dispatch_stall_pregs > 0,
        "16 rename registers must cause stalls"
    );
}

#[test]
fn one_entry_register_cache_works() {
    let w = workload_by_name("fib", Scale::Tiny).unwrap();
    let cfg = "use-based,entries=1,ways=1,index=standard".parse().unwrap();
    let r = run(&w, cfg);
    assert!(r.retired > 0);
    let c = r.regcache.unwrap();
    assert!(
        c.miss_rate().unwrap() > 0.1,
        "a 1-entry cache must miss a lot"
    );
}

#[test]
fn expected_hit_count_is_deterministic_and_distinct() {
    // The first trait-seam policy must (a) run the whole suite under a
    // checked configuration, (b) be reproducible bit for bit, and
    // (c) actually diverge from fewest-remaining-uses somewhere — if it
    // never picks a different victim the seam proved nothing.
    let mk = |base: &str| {
        let mut cfg: SimConfig = base.parse().unwrap();
        cfg.check = CheckConfig::full();
        cfg
    };
    let mut distinct = false;
    for w in ubrc_workloads::suite(Scale::Tiny) {
        let a = run(&w, mk("ehc"));
        let b = run(&w, mk("ehc"));
        assert_eq!(a.cycles, b.cycles, "{}: EHC must be deterministic", w.name);
        assert_eq!(a.retired, b.retired);
        let ub = run(&w, mk("use-based"));
        assert_eq!(a.retired, ub.retired, "{}: same program retires", w.name);
        if a.cycles != ub.cycles {
            distinct = true;
        }
    }
    assert!(
        distinct,
        "expected-hit-count never diverged from fewest-uses on any kernel"
    );
}

#[test]
fn deep_frontend_lengthens_branch_loops() {
    let w = workload_by_name("qsort", Scale::Tiny).unwrap();
    let shallow = run(&w, base());
    let mut deep = base();
    deep.frontend_stages = 25;
    deep.min_branch_penalty = 29;
    let d = run(&w, deep);
    assert_eq!(d.retired, shallow.retired);
    assert!(
        d.cycles > shallow.cycles,
        "a deeper pipeline must cost cycles on branchy code"
    );
}

#[test]
fn single_bypass_stage_functions() {
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let mut cfg = base();
    cfg.bypass_stages = 1;
    let r = run(&w, cfg);
    assert!(r.retired > 0);
    // With one stage, fewer operands can use the bypass network.
    let two = run(&w, base());
    assert!(r.bypass_fraction().unwrap() < two.bypass_fraction().unwrap());
}

#[test]
fn giant_cache_behaves_like_ideal_storage() {
    let w = workload_by_name("matmul", Scale::Tiny).unwrap();
    let cfg = "use-based,entries=512,ways=4,index=round-robin"
        .parse()
        .unwrap();
    let big = run(&w, cfg);
    // Misses still possible (filtered single-use values), but rare.
    // Residual misses are filtered single-use values whose degree the
    // cold predictor underestimated, not capacity/conflicts.
    let miss = big.miss_rate_per_operand().unwrap();
    assert!(miss < 0.05, "512-entry cache missed {miss:.4} per operand");
}

#[test]
fn disabled_prefetch_slows_straight_line_code() {
    // Branch-free code isolates the instruction prefetcher (branchy
    // kernels interact with wrong-path fetch, where prefetching the
    // wrong path can even hurt).
    let mut src = String::from("main: li r1, 1\n");
    for i in 0..1200 {
        src.push_str(&format!(" add r{}, r1, r1\n", 2 + (i % 6)));
    }
    src.push_str(" halt\n");
    let program = ubrc_isa::assemble(&src).unwrap();
    let mut cfg = base();
    cfg.memsys.prefetch = false;
    let off = simulate(vec![program.clone()], cfg).unwrap();
    let on = simulate(vec![program], base()).unwrap();
    assert_eq!(off.retired, on.retired);
    assert!(
        on.memsys.i_miss < off.memsys.i_miss,
        "prefetch must cut I-misses: {} vs {}",
        on.memsys.i_miss,
        off.memsys.i_miss
    );
    assert!(
        off.cycles > on.cycles,
        "cold straight-line code must run slower without prefetch ({} vs {})",
        off.cycles,
        on.cycles
    );
}
