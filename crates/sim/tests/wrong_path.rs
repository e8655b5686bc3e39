//! Wrong-path execution tests: mispredicted branches fetch real wrong
//! paths, the squash restores every architectural structure, and the
//! documented pollution effects (§3.4) are observable.

use ubrc_core::TwoLevelConfig;
use ubrc_isa::assemble;
use ubrc_sim::{simulate, BranchPredictorKind, RegStorage, SimConfig, SimResult};
use ubrc_workloads::{suite, workload_by_name, Scale, Workload};

fn run(w: &Workload, cfg: SimConfig) -> SimResult {
    simulate(vec![w.assemble().unwrap()], cfg).unwrap()
}

#[test]
fn wrong_path_instructions_are_fetched_and_squashed() {
    // A loop whose back-edge always mispredicts under a static
    // not-taken predictor: every iteration fetches the fall-through
    // wrong path (the halt side) and squashes it.
    let src = "main: li r1, 200\n\
         loop: subi r1, r1, 1\n\
               add  r2, r1, r1\n\
               bgtz r1, loop\n\
               halt\n";
    let mut cfg = SimConfig::paper_default();
    cfg.branch_predictor = BranchPredictorKind::NotTaken;
    let r = simulate(vec![assemble(src).unwrap()], cfg).unwrap();
    assert_eq!(r.retired, 1 + 200 * 3 + 1);
    assert!(
        r.wrong_path_squashed > 100,
        "expected wrong-path fetch every iteration, got {}",
        r.wrong_path_squashed
    );
}

#[test]
fn architectural_results_survive_heavy_wrong_path_traffic() {
    // The worst predictor maximizes squashes; every kernel must still
    // retire exactly its functional instruction count.
    let mut cfg = SimConfig::paper_default();
    cfg.branch_predictor = BranchPredictorKind::NotTaken;
    for w in suite(Scale::Tiny) {
        let m = w.run_checks().unwrap();
        let r = run(&w, cfg.clone());
        assert_eq!(
            r.retired,
            m.instruction_count(),
            "kernel `{}` corrupted by wrong-path execution",
            w.name
        );
    }
}

#[test]
fn wrong_path_pollutes_use_counters() {
    // §3.4: wrong-path consumers inflate the degree-of-use training
    // counts. Compare predictor accuracy with and without wrong-path
    // pressure (a perfect-direction predictor produces no wrong paths
    // for conditional branches).
    let w = workload_by_name("qsort", Scale::Small).unwrap();
    let polluted = run(&w, SimConfig::paper_default());
    assert!(polluted.wrong_path_squashed > 0, "qsort must mispredict");
    // Pollution exists but the machinery bounds it: accuracy stays high.
    let acc = polluted.douse.accuracy().unwrap();
    assert!(acc > 0.75, "degree accuracy collapsed to {acc}");
}

#[test]
fn two_level_file_pays_for_speculative_movement() {
    // With real wrong-path renames, the two-level file moves values to
    // its L2 speculatively and must copy them back at squashes — the
    // recovery cost the paper charges it for.
    let w = workload_by_name("qsort", Scale::Small).unwrap();
    let cfg = SimConfig::table1(RegStorage::TwoLevel(TwoLevelConfig::optimistic(96)));
    let r = run(&w, cfg);
    let tl = r.twolevel.unwrap();
    assert!(tl.transfers > 0, "no L1->L2 movement at all");
    assert!(
        tl.recovered_regs > 0,
        "wrong-path squashes must trigger L2->L1 recoveries"
    );
}

#[test]
fn free_list_is_conserved_across_squashes() {
    // Run a branchy kernel with a terrible predictor under a small
    // physical register file; leaked (or double-freed) registers would
    // deadlock or corrupt the run.
    let w = workload_by_name("dispatch", Scale::Tiny).unwrap();
    let mut cfg = SimConfig::paper_default();
    cfg.branch_predictor = BranchPredictorKind::Bimodal;
    cfg.phys_regs = 96;
    let m = w.run_checks().unwrap();
    let r = run(&w, cfg);
    assert_eq!(r.retired, m.instruction_count());
}

#[test]
fn mispredicted_indirect_jumps_follow_predicted_targets() {
    let w = workload_by_name("dispatch", Scale::Tiny).unwrap();
    let r = run(&w, SimConfig::paper_default());
    assert!(
        r.indirect_mispredicts > 0,
        "cold jump table must mispredict"
    );
    // Early indirect mispredictions have no predicted target (stall);
    // trained-but-wrong ones fetch the stale target as a wrong path.
    assert!(r.retired > 0);
}

#[test]
fn timeline_marks_wrong_path_instructions() {
    let src = "main: li r1, 20\n\
         loop: subi r1, r1, 1\n\
               bgtz r1, loop\n\
               halt\n";
    let mut cfg = SimConfig::paper_default();
    cfg.branch_predictor = BranchPredictorKind::NotTaken;
    cfg.trace_instructions = 40;
    let r = simulate(vec![assemble(src).unwrap()], cfg).unwrap();
    let tl = r.timeline.unwrap();
    assert!(
        tl.insts.iter().any(|t| t.wrong_path),
        "no wrong path traced"
    );
    let text = tl.render(100);
    assert!(text.contains(" WP"), "render must flag wrong-path rows");
}
