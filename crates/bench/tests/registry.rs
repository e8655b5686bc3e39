//! Smoke tests for the experiment registry: every experiment id is
//! unique and documented, and each of the quick experiments runs end to
//! end at `Scale::Tiny` and produces a populated table. The heavyweight
//! sweeps (fig6/fig11/fig12 and the §5.3/§4.2 tuning grids) are
//! exercised by the `experiments` binary instead (`scripts/check.sh`
//! runs `experiments all --scale tiny`).

use ubrc_bench::experiments::registry;
use ubrc_bench::RunOptions;
use ubrc_workloads::Scale;

#[test]
fn registry_ids_are_unique_and_described() {
    let reg = registry();
    assert!(reg.len() >= 20, "expected the full experiment set");
    let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate experiment id");
    for (id, desc, _) in &reg {
        assert!(!desc.is_empty(), "experiment `{id}` has no description");
    }
}

#[test]
fn registry_covers_every_paper_table_and_figure() {
    let reg = registry();
    let ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
    for required in [
        "table1", "fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "table2", "fig11",
        "fig12",
    ] {
        assert!(ids.contains(&required), "missing experiment `{required}`");
    }
}

#[test]
fn readme_lists_every_experiment_id() {
    let readme = include_str!("../../../README.md");
    let start = readme
        .find("Experiment ids:")
        .expect("README lists the experiment ids");
    let list = &readme[start..];
    let list = &list[..list.find("\n\n").unwrap_or(list.len())];
    let listed: Vec<&str> = list
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(str::split_whitespace)
        .collect();
    for (id, _, _) in registry() {
        assert!(
            listed.contains(&id),
            "README's experiment list omits `{id}`"
        );
    }
}

#[test]
fn quick_experiments_run_at_tiny_scale() {
    let heavy = [
        "fig6",
        "fig11",
        "fig12",
        "maxuse",
        "defaults",
        "filtered-params",
    ];
    for (id, _, f) in registry() {
        if heavy.contains(&id) {
            continue;
        }
        let table = f(Scale::Tiny, &RunOptions::default())
            .unwrap_or_else(|e| panic!("experiment `{id}` failed: {e}"));
        assert!(!table.is_empty(), "experiment `{id}` produced no rows");
        let text = table.to_string();
        assert!(
            text.lines().count() >= 3,
            "experiment `{id}` table too small"
        );
    }
}
