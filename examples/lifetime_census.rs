//! Register lifetime census: reproduce the motivation of §2 of the
//! paper interactively. For each kernel, measure the three phases of a
//! physical register's lifetime (empty / live / dead) and the number of
//! simultaneously live values, and relate them to register cache
//! sizing.
//!
//! ```text
//! cargo run --release --example lifetime_census
//! ```

use ubrc::sim::{simulate, SimConfig};
use ubrc::stats::Table;
use ubrc::workloads::{suite, Scale};

fn main() {
    let mut cfg = SimConfig::paper_default();
    cfg.collect_lifetimes = true;

    let mut table = Table::new([
        "benchmark",
        "empty(med)",
        "live(med)",
        "dead(med)",
        "live@50%",
        "live@90%",
        "alloc@90%",
    ]);
    let mut live90_max = 0u64;
    for w in suite(Scale::Small) {
        let program = w.assemble().expect("bundled kernels assemble");
        let r = simulate(vec![program], cfg.clone()).expect("kernel simulates");
        let lt = r.lifetimes.as_ref().expect("lifetimes enabled");
        let live90 = lt.live_concurrency.percentile(90.0).unwrap_or(0);
        live90_max = live90_max.max(live90);
        table.row([
            w.name.to_string(),
            lt.empty.median().unwrap_or(0).to_string(),
            lt.live.median().unwrap_or(0).to_string(),
            lt.dead.median().unwrap_or(0).to_string(),
            lt.live_concurrency.median().unwrap_or(0).to_string(),
            live90.to_string(),
            lt.alloc_concurrency
                .percentile(90.0)
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "The live time is a small slice of the full lifetime: values are\n\
         readable only between their write and their last use, which is why\n\
         a small cache can stand in for a {}-entry register file.\n\
         A register cache sized near the 90th-percentile live-value count\n\
         (max over kernels here: {live90_max}) captures most reads — the paper's\n\
         argument for its 64-entry design point.",
        SimConfig::paper_default().phys_regs,
    );
}
