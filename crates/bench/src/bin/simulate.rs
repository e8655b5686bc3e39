//! Single-run simulator CLI: run one bundled kernel (any of the 16:
//! the suite's twelve and the four extended ones), a `+`-joined
//! co-schedule of bundled kernels (one hardware thread each), or an
//! assembly file under a named configuration, and print a full
//! statistics report.
//!
//! ```text
//! simulate <kernel[+kernel...]|path.s> [--config SPEC]
//!          [--scale tiny|small|default] [--list] [--trace N]
//! ```
//!
//! `--config` takes a spec `BASE[,key=value]*` (default `use-based`,
//! the paper's design point), such as `lru,ways=4,partition=dyncap`;
//! the bases and keys are those of `ubrc_sim::SimConfig`'s `FromStr`.
//! A bad spec, or a configuration the simulator rejects, exits 2 with
//! a message. Every golden snapshot row prints its `simulate` line when
//! it drifts. `--list` prints the disassembly before simulating;
//! `--trace N` renders a pipeline diagram of the first N instructions.

use ubrc_isa::{assemble, Program};
use ubrc_sim::{simulate, SimConfig, SimError, SimResult};
use ubrc_stats::Table;
use ubrc_workloads::{kernel_names, workload_by_name, Scale};

const USAGE: &str = "usage: simulate <kernel[+kernel...]|file.s> [--config SPEC] \
                     [--scale tiny|small|default] [--list] [--trace N]";

#[derive(Debug)]
struct Options {
    target: String,
    config: SimConfig,
    scale: Scale,
    list: bool,
    trace: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        target: String::new(),
        config: SimConfig::paper_default(),
        scale: Scale::Default,
        list: false,
        trace: 0,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = || {
            i += 1;
            args.get(i).ok_or(format!("missing value after {arg}"))
        };
        match arg.as_str() {
            "--config" => opts.config = value()?.parse()?,
            "--list" => opts.list = true,
            "--trace" => opts.trace = value()?.parse().map_err(|e| format!("bad --trace: {e}"))?,
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "default" => Scale::Default,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            other if opts.target.is_empty() && !other.starts_with('-') => {
                opts.target = other.to_string()
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    if opts.target.is_empty() {
        return Err("no kernel or file given".into());
    }
    Ok(opts)
}

/// The target's programs: one assembly file, or one bundled kernel per
/// `+`-separated name.
fn programs(opts: &Options) -> Result<Vec<Program>, String> {
    if opts.target.ends_with(".s") || opts.target.contains('/') {
        let src = std::fs::read_to_string(&opts.target)
            .map_err(|e| format!("cannot read `{}`: {e}", opts.target))?;
        let program = assemble(&src).map_err(|e| format!("assembly failed: {e}"))?;
        return Ok(vec![program]);
    }
    opts.target
        .split('+')
        .map(|name| {
            let w = workload_by_name(name, opts.scale).ok_or_else(|| {
                let known: Vec<&str> = kernel_names().collect();
                format!("unknown kernel `{name}` (known: {})", known.join(", "))
            })?;
            w.assemble()
                .map_err(|e| format!("kernel `{name}` failed to assemble: {e}"))
        })
        .collect()
}

fn report(r: &SimResult) {
    let mut t = Table::new(["metric", "value"]);
    t.row(["cycles".to_string(), r.cycles.to_string()]);
    t.row(["instructions retired".to_string(), r.retired.to_string()]);
    if r.thread_retired.len() > 1 {
        let per_thread: Vec<String> = r.thread_retired.iter().map(u64::to_string).collect();
        t.row(["retired per thread".to_string(), per_thread.join(" / ")]);
    }
    t.row(["IPC".to_string(), format!("{:.4}", r.ipc())]);
    t.row([
        "branch mispredict rate".to_string(),
        r.branch_mispredict_rate()
            .map(|v| format!("{:.2}%", v * 100.0))
            .unwrap_or_else(|| "-".into()),
    ]);
    t.row([
        "operands from bypass".to_string(),
        r.bypass_fraction()
            .map(|v| format!("{:.1}%", v * 100.0))
            .unwrap_or_else(|| "-".into()),
    ]);
    if let Some(c) = &r.regcache {
        t.row([
            "regcache miss rate (per operand)".to_string(),
            r.miss_rate_per_operand()
                .map(|v| format!("{:.2}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row([
            "regcache miss rate (per read)".to_string(),
            c.miss_rate()
                .map(|v| format!("{:.2}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row([
            "writes filtered".to_string(),
            c.frac_writes_filtered()
                .map(|v| format!("{:.1}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row([
            "avg occupancy".to_string(),
            c.occupancy
                .average(r.cycles)
                .map(|v| format!("{v:.1} entries"))
                .unwrap_or_else(|| "-".into()),
        ]);
        t.row(["replayed instructions".to_string(), r.replayed.to_string()]);
        t.row([
            "regcache reads (hits / misses)".to_string(),
            format!("{} ({} / {})", c.reads, c.read_hits, c.read_misses),
        ]);
        t.row([
            "misses not-written / capacity / conflict".to_string(),
            format!(
                "{} / {} / {}",
                c.misses_not_written, c.misses_capacity, c.misses_conflict
            ),
        ]);
    }
    if let Some(b) = &r.backing {
        t.row(["backing file reads".to_string(), b.reads.to_string()]);
        t.row(["backing file writes".to_string(), b.writes.to_string()]);
    }
    if let Some(tl) = &r.twolevel {
        t.row(["L1→L2 transfers".to_string(), tl.transfers.to_string()]);
        t.row([
            "rename alloc stalls".to_string(),
            tl.alloc_failures.to_string(),
        ]);
        t.row([
            "recovered registers".to_string(),
            tl.recovered_regs.to_string(),
        ]);
    }
    if r.regcache.is_some() {
        // Only the register cache predicts degrees of use.
        t.row([
            "degree-of-use accuracy".to_string(),
            r.douse
                .accuracy()
                .map(|v| format!("{:.1}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{t}");
}

fn fail(code: i32, message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| fail(2, &format!("{e}\n{USAGE}")));
    let programs = programs(&opts).unwrap_or_else(|e| fail(2, &e));
    if opts.list {
        for program in &programs {
            print!("{}", ubrc_isa::listing(program));
            println!();
        }
    }
    let mut config = opts.config;
    config.trace_instructions = opts.trace;
    let result = simulate(programs, config).unwrap_or_else(|e| {
        let code = if matches!(*e, SimError::Config(_)) {
            2
        } else {
            1
        };
        fail(code, &e.to_string())
    });
    if let Some(timeline) = &result.timeline {
        print!("{}", timeline.render(90));
        println!();
    }
    report(&result);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn config_defaults_to_the_paper_design_point() {
        let opts = parse(&["crc", "--scale", "tiny"]).unwrap();
        assert_eq!(opts.config, SimConfig::paper_default());
        assert_eq!(opts.scale, Scale::Tiny);
        let opts = parse(&["crc", "--config", "lru,ways=4"]).unwrap();
        assert_eq!(opts.config, "lru,ways=4".parse().unwrap());
    }

    #[test]
    fn retired_storage_flags_are_rejected() {
        for flag in ["--storage", "--entries", "--ways", "--backing"] {
            let err = parse(&["crc", flag, "2"]).unwrap_err();
            assert_eq!(err, format!("unexpected argument `{flag}`"));
        }
    }

    #[test]
    fn a_bad_spec_names_the_key_and_what_it_accepts() {
        let err = parse(&["crc", "--config", "use-based,index=diagonal"]).unwrap_err();
        assert!(err.contains("`index`"), "{err}");
        for policy in ["standard", "round-robin", "minimum", "filtered", "min-load"] {
            assert!(err.contains(policy), "{err}");
        }
        let err = parse(&["crc", "--config"]).unwrap_err();
        assert_eq!(err, "missing value after --config");
    }

    #[test]
    fn a_plus_joined_target_co_schedules_kernels() {
        let opts = parse(&["qsort+bfs+listchase+strsearch", "--scale", "tiny"]).unwrap();
        assert_eq!(programs(&opts).unwrap().len(), 4);
        let opts = parse(&["qsort+nope", "--scale", "tiny"]).unwrap();
        assert_eq!(
            programs(&opts).unwrap_err(),
            "unknown kernel `nope` (known: qsort, listchase, hash, matmul, crc, fib, bfs, \
             strsearch, rle, bitops, fpmix, dispatch, sieve, mandel, nbody, spmv)"
        );
        let opts = parse(&["sieve+mandel+nbody+spmv", "--scale", "tiny"]).unwrap();
        assert_eq!(programs(&opts).unwrap().len(), 4);
        assert_eq!(parse(&[]).unwrap_err(), "no kernel or file given");
    }
}
