//! Experiment harness CLI: regenerates every table and figure of the
//! paper's evaluation, and emits the machine-readable benchmark
//! trajectory.
//!
//! ```text
//! experiments <id|all> [--scale tiny|small|default] [--json [PATH]]
//!             [--check] [--timeout SECS]
//! experiments --json            # trajectory only -> BENCH_pipeline.json
//! experiments --list            # print available experiment ids (alone)
//! ```
//!
//! `--check` turns on full runtime checking (lockstep co-simulation
//! oracle + per-cycle invariant checker) for every simulation;
//! `--timeout SECS` gives each simulation cell a wall-clock budget,
//! after which it is cancelled and reported as a typed timeout. Both
//! go to every experiment, and to the trajectory, as one
//! `ubrc_bench::RunOptions`.
//!
//! Selected experiments run one after another, in registry order, and
//! each prints its table as soon as it finishes. Within an experiment,
//! every simulation goes through one `ubrc_bench::run_cells` call,
//! which runs them on at most `UBRC_BENCH_WORKERS` threads (default:
//! the machine's available parallelism).

use std::time::{Duration, Instant};
use ubrc_bench::experiments::registry;
use ubrc_bench::{pipeline_trajectory, RunOptions};
use ubrc_workloads::Scale;

struct Cli {
    which: Option<String>,
    scale: Scale,
    json: Option<String>,
    opts: RunOptions,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        which: None,
        scale: Scale::Default,
        json: None,
        opts: RunOptions::default(),
        list: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cli.scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("default") => Scale::Default,
                    Some(other) => return Err(format!("unknown scale `{other}`")),
                    None => return Err("--scale needs a value: tiny, small or default".into()),
                };
            }
            "--json" => {
                // Optional path operand (recognized by its .json
                // suffix, so a following experiment id is not eaten);
                // defaults to BENCH_pipeline.json in the current
                // directory.
                let path = match args.get(i + 1) {
                    Some(p) if p.ends_with(".json") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "BENCH_pipeline.json".to_string(),
                };
                cli.json = Some(path);
            }
            "--check" => cli.opts.check = true,
            "--list" => cli.list = true,
            "--timeout" => {
                i += 1;
                cli.opts.timeout = match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(s) if s > 0 => Some(Duration::from_secs(s)),
                    _ => return Err("--timeout needs a positive integer of seconds".into()),
                };
            }
            other if cli.which.is_none() && !other.starts_with("--") => {
                cli.which = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    if cli.list && args.len() > 1 {
        // Listing runs nothing, so any other argument would be dropped.
        return Err(format!(
            "--list takes no other arguments (got `{}`)",
            args.join(" ")
        ));
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let reg = registry();
    if cli.list {
        // Machine-friendly: one id per line on stdout, exit 0 (CI uses
        // this to enumerate experiments without parsing usage text).
        for (id, _, _) in &reg {
            println!("{id}");
        }
        return;
    }
    if cli.which.is_none() && cli.json.is_none() {
        eprintln!(
            "usage: experiments <id|all> [--scale tiny|small|default] [--json [PATH]]\n\
             \x20                 [--check] [--timeout SECS]\n\
             \n\
             --list         print the available experiment ids and exit\n\
             --json [PATH]  also run the benchmark trajectory and write it as JSON\n\
             --check        enable the co-simulation oracle and invariant checker\n\
             --timeout SECS wall-clock budget per simulation cell\n\
             \n\
             available experiments:"
        );
        for (id, desc, _) in &reg {
            eprintln!("  {id:<16} {desc}");
        }
        std::process::exit(2);
    }

    let selected: Vec<_> = match cli.which.as_deref() {
        None => Vec::new(),
        Some("all") => reg,
        Some(which) => {
            let found: Vec<_> = reg.into_iter().filter(|(id, _, _)| *id == which).collect();
            if found.is_empty() {
                eprintln!("unknown experiment `{which}` (try `all`)");
                std::process::exit(2);
            }
            found
        }
    };

    let scale = cli.scale;
    let mut failed = false;
    for (id, desc, f) in &selected {
        let t0 = Instant::now();
        match f(scale, &cli.opts) {
            Ok(table) => {
                let secs = t0.elapsed().as_secs_f64();
                println!("## {id} — {desc}  [scale={scale:?}, {secs:.1}s]");
                println!("{table}");
            }
            Err(e) => {
                eprintln!("## {id} — FAILED: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = cli.json {
        // Partial results are still written: a failing cell appears as
        // an error object in the document, and the run exits non-zero.
        let out = pipeline_trajectory(scale, &cli.opts);
        let body = format!("{}\n", out.doc);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write `{path}`: {e}");
            failed = true;
        } else if out.failed > 0 {
            eprintln!("wrote {path} ({} cells FAILED)", out.failed);
            failed = true;
        } else {
            eprintln!("wrote {path}");
        }
    }

    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_without_a_value_is_an_error() {
        let err = parse(&["fig7", "--scale"])
            .err()
            .expect("missing value rejected");
        assert!(err.contains("--scale needs a value"), "{err}");
    }

    #[test]
    fn unknown_scale_is_an_error() {
        let err = parse(&["--scale", "huge"])
            .err()
            .expect("unknown scale rejected");
        assert_eq!(err, "unknown scale `huge`");
    }

    #[test]
    fn each_valid_scale_parses() {
        for (name, scale) in [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("default", Scale::Default),
        ] {
            let cli = parse(&["fig7", "--scale", name]).expect("valid scale");
            assert_eq!(cli.scale, scale, "{name}");
            assert_eq!(cli.which.as_deref(), Some("fig7"));
        }
        assert_eq!(parse(&["fig7"]).unwrap().scale, Scale::Default);
    }

    #[test]
    fn check_and_timeout_are_the_run_options() {
        let cli = parse(&["fig7", "--check", "--timeout", "5"]).unwrap();
        assert!(cli.opts.check);
        assert_eq!(cli.opts.timeout, Some(Duration::from_secs(5)));
        let err = parse(&["fig7", "--timeout", "0"])
            .err()
            .expect("zero rejected");
        assert_eq!(err, "--timeout needs a positive integer of seconds");
    }

    #[test]
    fn removed_retry_flag_is_rejected() {
        let err = parse(&["fig7", "--retries", "1"])
            .err()
            .expect("unknown flag rejected");
        assert_eq!(err, "unexpected argument `--retries`");
    }

    #[test]
    fn list_stands_alone() {
        assert!(parse(&["--list"]).unwrap().list);
        for args in [
            &["fig6", "--list"][..],
            &["--list", "--scale", "tiny"],
            &["fig6", "--list", "--scale", "tiny"],
            &["--list", "--check"],
            &["--list", "--list"],
        ] {
            let err = parse(args).err().expect("extra arguments rejected");
            assert_eq!(
                err,
                format!("--list takes no other arguments (got `{}`)", args.join(" "))
            );
        }
    }

    #[test]
    fn removed_profile_flag_is_rejected() {
        let err = parse(&["--json", "--profile"])
            .err()
            .expect("unknown flag rejected");
        assert_eq!(err, "unexpected argument `--profile`");
    }
}
