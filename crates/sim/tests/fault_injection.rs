//! Deterministic fault injection: every corruption class the injector
//! can perform must be caught by the layer designed to catch it — the
//! lockstep co-simulation oracle for architectural corruption, the
//! invariant checker's mirrors for microarchitectural state — and a
//! fault-free checked run must terminate cleanly.

use ubrc_sim::{simulate, CheckConfig, FaultKind, FaultPlan, SimConfig, SimError};
use ubrc_workloads::{workload_by_name, Scale};

/// Runs `crc` on a fully checked `entries`-entry use-based cache under
/// `plan`.
fn run_with_fault(entries: usize, plan: FaultPlan) -> Result<(), Box<SimError>> {
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let program = w.assemble().unwrap();
    let mut cfg: SimConfig = format!("use-based,entries={entries}").parse().unwrap();
    cfg.check = CheckConfig::full();
    cfg.fault_plan = Some(plan);
    simulate(vec![program], cfg).map(|_| ())
}

#[test]
fn clean_run_passes_all_checks() {
    let err = run_with_fault(64, FaultPlan::default());
    assert!(
        err.is_ok(),
        "fault-free checked run failed: {:?}",
        err.err()
    );
}

#[test]
fn oracle_catches_a_corrupted_record() {
    // One flipped architectural-result bit is invisible to the timing
    // model; only the lockstep oracle can see it, at retirement.
    let err = run_with_fault(64, FaultPlan::single(7, 100, FaultKind::CorruptRecord)).unwrap_err();
    match *err {
        SimError::Divergence(r) => {
            assert_eq!(r.field, "dest_val", "wrong divergent field: {r}");
            assert_ne!(r.expected, r.actual);
        }
        other => panic!("expected a divergence, got: {other}"),
    }
}

#[test]
fn checker_catches_a_flipped_use_counter() {
    // Corrupting a live value's stored remaining-use counter must show
    // up as a mismatch against the checker's independently-maintained
    // mirror by the end of the same cycle.
    let err =
        run_with_fault(64, FaultPlan::single(11, 50, FaultKind::FlipUsePrediction)).unwrap_err();
    match *err {
        SimError::Invariant(v) => {
            assert_eq!(v.invariant, "use-counter", "unexpected invariant: {v}");
            assert_eq!(v.cycle, 50);
        }
        other => panic!("expected an invariant violation, got: {other}"),
    }
}

#[test]
fn checker_catches_corrupted_replacement_metadata() {
    // Forcing a resident entry's counter to 255 (and unpinning it)
    // breaks the cache's own audit: no legal counter exceeds
    // max_use_count.
    let err = run_with_fault(
        64,
        FaultPlan::single(13, 200, FaultKind::CorruptReplacement),
    )
    .unwrap_err();
    match *err {
        SimError::Invariant(v) => {
            assert_eq!(v.invariant, "cache-audit", "unexpected invariant: {v}");
        }
        other => panic!("expected an invariant violation, got: {other}"),
    }
}

#[test]
fn checker_catches_a_dropped_fill() {
    // A tiny cache guarantees misses, so fills are in flight to drop.
    // The dropped fill's obligation in the checker's mirror comes due
    // and is flagged.
    let err = run_with_fault(8, FaultPlan::single(17, 0, FaultKind::DropFill)).unwrap_err();
    match *err {
        SimError::Invariant(v) => {
            assert_eq!(v.invariant, "fill-obligation", "unexpected invariant: {v}");
        }
        other => panic!("expected an invariant violation, got: {other}"),
    }
}

#[test]
fn faults_are_deterministic() {
    // The same plan must corrupt the same state and produce the same
    // report on every run.
    let plan = FaultPlan::single(7, 100, FaultKind::CorruptRecord);
    let a = run_with_fault(64, plan.clone()).unwrap_err();
    let b = run_with_fault(64, plan).unwrap_err();
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn emulator_fault_is_a_structured_error() {
    // A correct-path memory fault must come back as `SimError::Emu`
    // (which the bench runner wraps into its typed `SuiteError`), not
    // as a panic from inside fetch.
    let program = ubrc_isa::assemble("main: li r1, 0x7fffffff\nld r2, 0(r1)\nhalt\n").unwrap();
    let err = simulate(vec![program], SimConfig::paper_default()).unwrap_err();
    assert!(matches!(*err, SimError::Emu(_)), "got: {err}");
    assert!(err.to_string().contains("functional execution faulted"));
}

#[test]
fn watchdog_reports_instead_of_panicking() {
    // An impossibly tight watchdog budget must produce a structured
    // diagnostic dump whose first line matches the historical panic
    // text, not unwind.
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let program = w.assemble().unwrap();
    let mut cfg = SimConfig::paper_default();
    cfg.check.watchdog_cycles = 1;
    let err = simulate(vec![program], cfg).unwrap_err();
    match *err {
        SimError::Watchdog(d) => {
            let text = d.to_string();
            assert!(
                text.starts_with("pipeline deadlock at cycle"),
                "unexpected dump: {text}"
            );
            assert!(text.contains("event queues:"));
        }
        other => panic!("expected a watchdog report, got: {other}"),
    }
}
