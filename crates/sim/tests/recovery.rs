//! Soft-error detection and recovery: every recoverable fault class
//! the injector can land must be detected by the parity layer that
//! covers it and repaired without architectural damage — the lockstep
//! oracle must see a byte-identical retirement stream, and the
//! invariant checker's pin/fill accounting must stay balanced through
//! every invalidate/re-fill and machine-check squash.

use proptest::prelude::*;
use ubrc_sim::{simulate, CheckConfig, FaultKind, FaultPlan, FaultSpec, SimConfig, SimResult};
use ubrc_workloads::{workload_by_name, Scale};

/// A fully checked `entries`-entry use-based cache, with parity and
/// machine-check recovery on or off.
fn protected_config(entries: usize, protect: bool) -> SimConfig {
    let on = if protect { "on" } else { "off" };
    let spec = format!("use-based,entries={entries},protect={on}");
    let mut cfg: SimConfig = spec.parse().unwrap();
    cfg.check = CheckConfig::full();
    cfg
}

fn run_protected(entries: usize, plan: FaultPlan) -> SimResult {
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let program = w.assemble().unwrap();
    let mut cfg = protected_config(entries, true);
    cfg.fault_plan = Some(plan);
    match simulate(vec![program], cfg) {
        Ok(r) => r,
        Err(e) => panic!("recoverable fault was not recovered cleanly: {e}"),
    }
}

#[test]
fn cache_data_faults_are_detected_and_refilled() {
    // A flipped cache data bit is caught by the entry's parity tag at
    // the next read; the entry is invalidated and the read turns into
    // an ordinary backing-file re-fill. No oracle divergence, and the
    // detection shows up in both the recovery count and the cache's
    // own parity-invalidation counter.
    let r = run_protected(64, FaultPlan::periodic(21, 50, FaultKind::FlipCacheData));
    assert!(r.recoveries > 0, "no cache-data fault was ever detected");
    assert_eq!(r.machine_checks, 0, "cache faults must not escalate");
    let c = r.regcache.expect("cached config");
    assert!(c.parity_invalidations > 0);
    assert_eq!(c.parity_invalidations, r.recoveries);
}

#[test]
fn use_counter_faults_are_scrubbed() {
    // A flipped use counter is caught at the next protected counter
    // read (first-stage bypass consume or the write decision) and
    // scrubbed to the conservative zero state. The checker suspends
    // its mirror for the register until the scrub, so a clean run
    // proves both detection and re-synchronization.
    let r = run_protected(64, FaultPlan::periodic(22, 50, FaultKind::FlipUseCounter));
    assert!(r.recoveries > 0, "no counter fault was ever detected");
    assert_eq!(r.machine_checks, 0, "counter faults must not escalate");
}

#[test]
fn backing_faults_escalate_to_machine_check() {
    // The backing file is the architected copy: a flipped word has no
    // clean copy to re-fill from, so detection at a miss read must
    // squash and replay the thread from its last retirement. A tiny
    // cache guarantees the miss reads that reach the backing file.
    let r = run_protected(8, FaultPlan::periodic(23, 40, FaultKind::FlipBackingWord));
    assert!(r.machine_checks > 0, "no backing fault reached a read");
    assert!(r.recoveries >= r.machine_checks);
    assert!(r.recovery_cycles > 0, "machine checks take non-zero time");
    assert!(!r.recovery_latency.is_empty());
}

#[test]
fn recovery_preserves_the_architectural_result() {
    // The headline claim: with protection on, a faulted run retires
    // exactly the instructions a fault-free run retires (the oracle
    // checks every record), and the IPC cost is the recovery time.
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let clean = simulate(vec![w.assemble().unwrap()], protected_config(8, true)).unwrap();
    let faulted = run_protected(8, FaultPlan::periodic(24, 30, FaultKind::FlipBackingWord));
    assert_eq!(clean.retired, faulted.retired);
    assert!(faulted.machine_checks > 0);
    assert!(faulted.cycles >= clean.cycles, "recovery is not free");
}

#[test]
fn protection_off_with_no_faults_is_byte_identical() {
    // The protection plumbing must be invisible when disabled: same
    // cycles, same retirement count, no recoveries.
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let base = simulate(vec![w.assemble().unwrap()], protected_config(64, false)).unwrap();
    let prot = simulate(vec![w.assemble().unwrap()], protected_config(64, true)).unwrap();
    assert_eq!(base.cycles, prot.cycles);
    assert_eq!(base.retired, prot.retired);
    assert_eq!(prot.recoveries, 0);
    assert_eq!(prot.machine_checks, 0);
}

#[test]
fn smt_fault_in_thread0_never_squashes_thread1() {
    // SMT isolation: a periodic backing-word fault targeted at a
    // physical register in thread 0's partition may machine-check
    // thread 0 as often as it likes; thread 1 must retire its whole
    // program without a single squash charged to it.
    let w0 = workload_by_name("crc", Scale::Tiny).unwrap();
    let w1 = workload_by_name("bfs", Scale::Tiny).unwrap();
    // Pregs 0..256 form thread 0's half of the partitioned freelist.
    // A periodic fault pinned to one of them re-marks the word after
    // every rewrite, so it is bad for essentially the register's whole
    // lifetime; probe a few candidates until one is miss-read (which
    // register the renamer reads through storage is config-dependent).
    let mut detected = 0;
    for target in [10u16, 30, 50, 90, 130, 170] {
        let mut cfg = protected_config(8, true);
        cfg.fault_plan = Some(FaultPlan::periodic_targeted(
            25,
            20,
            FaultKind::FlipBackingWord,
            target,
        ));
        let r = simulate(vec![w0.assemble().unwrap(), w1.assemble().unwrap()], cfg).unwrap();
        assert_eq!(
            r.thread_machine_checks[1], 0,
            "a thread-0 fault squashed thread 1 (target {target})"
        );
        detected += r.thread_machine_checks[0];
        if detected > 0 {
            break;
        }
    }
    assert!(detected > 0, "no targeted fault ever landed on a read");
}

#[test]
fn watchdog_forces_one_recovery_before_declaring_deadlock() {
    // With recovery enabled, an (artificially) tripped watchdog first
    // forces a machine-check squash; only a second trip is a deadlock.
    // The resulting dump must carry the recovery counters so a
    // livelock-after-recovery is distinguishable from plain deadlock.
    let w = workload_by_name("crc", Scale::Tiny).unwrap();
    let mut cfg = protected_config(64, true);
    cfg.check.watchdog_cycles = 1;
    let err = simulate(vec![w.assemble().unwrap()], cfg).unwrap_err();
    match *err {
        ubrc_sim::SimError::Watchdog(d) => {
            assert!(d.recoveries > 0, "no forced recovery before deadlock");
            assert!(d.machine_checks > 0);
            assert!(d.last_recovery.is_some());
            let text = d.to_string();
            assert!(text.starts_with("pipeline deadlock at cycle"));
            assert!(
                text.contains("possible livelock after recovery"),
                "dump does not flag the prior recovery: {text}"
            );
        }
        other => panic!("expected a watchdog report, got: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any sequence of recoverable injected faults — mixed kinds,
    /// arbitrary timing, with or without a periodic stream — ends with
    /// oracle-clean architectural state and balanced pin/fill
    /// accounting (a checker violation or divergence fails the run).
    #[test]
    fn random_recoverable_fault_sequences_recover_cleanly(
        seed in 0u64..1_000,
        period in 20u64..200,
        periodic_kind in 0usize..3,
        singles in proptest::collection::vec((0u64..3_000, 0usize..3), 0..5),
    ) {
        let kinds = [
            FaultKind::FlipCacheData,
            FaultKind::FlipUseCounter,
            FaultKind::FlipBackingWord,
        ];
        let mut plan = FaultPlan::periodic(seed, period, kinds[periodic_kind]);
        plan.faults = singles
            .into_iter()
            .map(|(at_cycle, k)| FaultSpec { at_cycle, kind: kinds[k], target: None })
            .collect();
        let r = run_protected(16, plan);
        prop_assert!(r.retired > 1000);
    }
}
