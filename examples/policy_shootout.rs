//! Policy shootout: run the whole benchmark suite under every register
//! storage organization the paper evaluates and print a league table.
//!
//! ```text
//! cargo run --release --example policy_shootout [tiny|small|default]
//! ```

use ubrc::sim::simulate;
use ubrc::stats::{geomean, Table};
use ubrc::workloads::{suite, Scale};

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("tiny") => Scale::Tiny,
        Some("default") => Scale::Default,
        _ => Scale::Small,
    };

    // Each contender is a config spec: a named base plus overrides.
    let contenders = [
        ("1-cycle monolithic RF (upper bound)", "rf-1"),
        ("use-based cache 64/2-way + filtered-rr", "use-based"),
        (
            "use-based cache 48/4-way + filtered-rr",
            "use-based,entries=48,ways=4",
        ),
        ("lru cache 64/2-way + round-robin", "lru"),
        ("non-bypass cache 64/2-way + round-robin", "non-bypass"),
        ("two-level file, 96-entry L1", "two-level"),
        ("3-cycle monolithic RF (what the cache replaces)", "rf-3"),
    ];

    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for (name, spec) in contenders {
        let mut ipcs = Vec::new();
        let mut miss = Vec::new();
        for w in suite(scale) {
            let program = w.assemble().expect("bundled kernels assemble");
            let r = simulate(vec![program], spec.parse().expect("valid spec"))
                .expect("kernel simulates");
            ipcs.push(r.ipc());
            if let Some(m) = r.miss_rate_per_operand() {
                miss.push(m);
            }
        }
        let g = geomean(&ipcs).expect("positive IPCs");
        let m = if miss.is_empty() {
            f64::NAN
        } else {
            miss.iter().sum::<f64>() / miss.len() as f64 * 100.0
        };
        rows.push((name.to_string(), g, m));
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut table = Table::new(["organization", "geomean IPC", "miss/operand %"]);
    for (name, ipc, miss) in rows {
        let m = if miss.is_nan() {
            "-".to_string()
        } else {
            format!("{miss:.2}")
        };
        table.row([name, format!("{ipc:.4}"), m]);
    }
    println!("{table}");
}
