//! Shape tests: the qualitative claims of the paper's evaluation must
//! hold on this reproduction at small scale. These are the regression
//! guards for the experiment harness — if a model change flips one of
//! these orderings, a headline conclusion of the paper broke.

use ubrc::sim::{simulate, RegStorage, SimConfig};
use ubrc::stats::geomean;
use ubrc::workloads::{suite, Scale};

fn geomean_ipc(cfg: &SimConfig) -> f64 {
    let ipcs: Vec<f64> = suite(Scale::Small)
        .iter()
        .map(|w| {
            let r = simulate(vec![w.assemble().unwrap()], cfg.clone());
            r.unwrap().ipc()
        })
        .collect();
    geomean(&ipcs).expect("positive IPCs")
}

/// The suite geomean IPC under the config `spec` names.
fn ipc(spec: &str) -> f64 {
    geomean_ipc(&spec.parse().unwrap())
}

#[test]
fn monolithic_latency_ordering_fig6_baselines() {
    let i1 = ipc("rf-1");
    let i2 = ipc("rf-2");
    let i3 = ipc("rf-3");
    assert!(
        i1 > i2 && i2 > i3,
        "RF latency ordering broken: {i1} {i2} {i3}"
    );
}

#[test]
fn associativity_ordering_fig6() {
    let at = |ways: usize| ipc(&format!("use-based,ways={ways},index=standard"));
    let (dm, w2, w4, fa) = (at(1), at(2), at(4), at(64));
    assert!(w2 > dm, "2-way ({w2}) must beat direct-mapped ({dm})");
    assert!(
        w4 >= w2 * 0.999,
        "4-way ({w4}) must not lose to 2-way ({w2})"
    );
    assert!(
        fa >= w4 * 0.999,
        "fully-assoc ({fa}) must not lose to 4-way ({w4})"
    );
}

#[test]
fn cache_size_ordering_fig6() {
    let small = ipc("use-based,entries=16,index=standard");
    let large = ipc("use-based,entries=128,index=standard");
    assert!(large > small, "bigger caches must help: {large} vs {small}");
}

#[test]
fn decoupled_indexing_helps_direct_mapped_fig7() {
    let std_ipc = ipc("use-based,ways=1,index=standard");
    let rr = ipc("use-based,ways=1,index=round-robin");
    let frr = ipc("use-based,ways=1,index=filtered");
    assert!(
        rr > std_ipc,
        "round-robin ({rr}) must beat standard ({std_ipc})"
    );
    assert!(
        frr > std_ipc,
        "filtered-rr ({frr}) must beat standard ({std_ipc})"
    );
}

#[test]
fn scheme_ordering_fig11() {
    let ub = ipc("use-based");
    let lru = ipc("lru");
    let nb = ipc("non-bypass");
    assert!(ub > lru, "use-based ({ub}) must beat LRU ({lru})");
    assert!(
        lru > nb,
        "LRU ({lru}) must beat non-bypass ({nb}) at 64 entries"
    );
}

#[test]
fn use_based_cache_beats_the_three_cycle_file() {
    // The headline: the proposed design outperforms the monolithic
    // 3-cycle register file it replaces.
    let ub = geomean_ipc(&SimConfig::paper_default());
    let rf3 = ipc("rf-3");
    assert!(
        ub > rf3,
        "use-based cache ({ub}) must beat the 3-cycle RF ({rf3})"
    );
}

#[test]
fn backing_latency_degrades_use_based_gracefully_fig12() {
    let at = |lat: u32| ipc(&format!("use-based,backing={lat}"));
    let l1 = at(1);
    let l4 = at(4);
    let l6 = at(6);
    assert!(l1 > l4 && l4 > l6, "latency must hurt: {l1} {l4} {l6}");
    // Use-based degradation must be milder than non-bypass degradation.
    let nb_at = |lat: u32| ipc(&format!("non-bypass,backing={lat}"));
    let ub_drop = l1 / l6;
    let nb_drop = nb_at(1) / nb_at(6);
    assert!(
        nb_drop > ub_drop,
        "non-bypass must be more latency-sensitive (nb {nb_drop:.3} vs ub {ub_drop:.3})"
    );
}

#[test]
fn pinning_limit_has_a_knee_maxuse() {
    let at = |max: u8| {
        let mut cfg = SimConfig::paper_default();
        if let RegStorage::Cached { cache, .. } = &mut cfg.storage {
            cache.max_use_count = max;
        }
        geomean_ipc(&cfg)
    };
    let low = at(1);
    let knee = at(7);
    assert!(
        knee > low,
        "max-use 7 ({knee}) must beat max-use 1 ({low}): pinning everything hurts"
    );
}
