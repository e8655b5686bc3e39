//! Layered benchmark of the UBRC simulator: end-to-end host throughput,
//! set-up time and memory of five workloads, plus per-layer numbers from
//! a traced repetition and from replays of each layer alone.
//!
//! ```text
//! ubrc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ubrc-benchmark [--seed N] [--seconds S] [--json PATH] [--spans PATH]
//! ubrc-benchmark compare BASE.json... -- NEW.json...
//! ```
//!
//! With `--workload`, one workload runs in this process: `--trace 0`
//! measures the end-to-end metrics, `--trace 1` the per-layer ones
//! (`--spans` appends the traced repetition's spans as JSON lines).
//! Every metric is printed as a `metric` line; the last line of stdout
//! is one JSON object with `correct`, `attempted`, `failed` and the
//! metrics `BENCHMARK.json` names for that mode. Without `--workload`,
//! each workload runs in a child process, once per mode, and `--json`
//! writes all results as one document, which `compare` reads. See
//! README.md for the workloads and metrics.

mod heap;
mod json;
mod layers;
mod stats;
mod sweep;
mod work;

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use stats::{Better, Quartiles};
use ubrc_stats::Json;
use ubrc_workloads::Scale;
use work::{reference_counts, run_rep, run_reps, Rep, Spans, Tally, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The benchmark's definition: workloads, metrics, units, bounds.
const SPEC: &str = include_str!("../../../BENCHMARK.json");

/// Pipeline stages in schedule order, as the stage profiler names them.
const STAGES: [&str; 8] = [
    "inject",
    "execute",
    "retire",
    "issue",
    "rename",
    "fetch",
    "storage-tick",
    "epoch",
];

/// Per-layer counts that repeat exactly; a change to them means the
/// simulated machine behaved differently.
const EXACT: [&str; 7] = [
    "sim.cycles",
    "sim.retired",
    "sim.ipc_geomean",
    "sim.replayed",
    "sim.miss_rate_per_operand",
    "sim.bypass_fraction",
    "sim.epochs",
];

/// One measured metric, with the quartiles of its repetitions when it
/// summarizes several.
#[derive(Clone, Debug)]
struct Metric {
    name: String,
    unit: String,
    value: f64,
    reps: Option<(Quartiles, usize)>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value,
            reps: None,
        }
    }

    /// `value`, summarizing repetitions that measured `reps`.
    fn with_reps(name: &str, unit: &str, value: f64, reps: &[f64]) -> Self {
        Self {
            reps: Quartiles::of(reps).map(|q| (q, reps.len())),
            ..Self::new(name, unit, value)
        }
    }

    /// The best repetition, with the spread of all of them.
    fn best(name: &str, unit: &str, better: Better, values: &[f64]) -> Self {
        Self::with_reps(name, unit, better.best(values), values)
    }

    /// The median repetition, with the spread of all of them.
    fn median(name: &str, unit: &str, values: &[f64]) -> Self {
        Self::with_reps(name, unit, stats::median(values), values)
    }

    fn line(&self, workload: &str) -> String {
        let mut s = format!(
            "metric {workload} {} {} {}",
            self.name, self.value, self.unit
        );
        if let Some((q, n)) = self.reps {
            s += &format!(" q1={} p50={} q3={} n={n}", q.q1, q.p50, q.q3);
        }
        s
    }

    /// Reads a line written by [`Metric::line`].
    fn parse_line(line: &str) -> Option<Self> {
        let mut f = line.split_whitespace();
        if f.next()? != "metric" {
            return None;
        }
        f.next()?; // the workload
        let mut m = Metric::new(f.next()?, "", f.next()?.parse().ok()?);
        m.unit = f.next()?.to_string();
        let kv: Vec<(&str, f64)> = f
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
            .collect();
        let get = |k: &str| kv.iter().find(|(key, _)| *key == k).map(|&(_, v)| v);
        if let (Some(q1), Some(p50), Some(q3), Some(n)) =
            (get("q1"), get("p50"), get("q3"), get("n"))
        {
            m.reps = Some((Quartiles { q1, p50, q3 }, n as usize));
        }
        Some(m)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("value", Json::from(self.value)),
            ("unit", Json::from(self.unit.as_str())),
        ]);
        if let Some((q, n)) = self.reps {
            o.push("q1", Json::from(q.q1));
            o.push("p50", Json::from(q.p50));
            o.push("q3", Json::from(q.q3));
            o.push("n", Json::from(n));
        }
        o
    }
}

/// What one mode of one workload measured. `metrics` are exactly the
/// ones `BENCHMARK.json` names for the mode; `extras` are diagnostics.
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    extras: Vec<Metric>,
    spans: Option<Spans>,
}

/// How much to measure.
struct Options {
    /// Kernel size (the sweep's in-process cells are always Tiny).
    scale: Scale,
    seed: u64,
    /// Measuring time of one mode.
    seconds: f64,
    /// Fewest batch repetitions, however short `seconds`.
    min_reps: usize,
}

fn secs(values: impl Iterator<Item = Duration>) -> Vec<f64> {
    values.map(|d| d.as_secs_f64()).collect()
}

/// End-to-end metrics: repeated whole batches (generate + assemble +
/// construct + run), tracing and heap counting off, then one batch for
/// its heap peak. The sweep also times the real `experiments` binary.
fn end_to_end(w: Workload, o: &Options) -> Result<Report, String> {
    let mut tally = Tally::default();
    let batch = w.batch(o.scale, o.seed);
    let refs = reference_counts(&batch.generate(), &mut tally);
    let sweep_tiny = w == Workload::SweepTiny;
    let sim_seconds = if sweep_tiny {
        o.seconds / 4.0
    } else {
        o.seconds
    };
    let reps = run_reps(&batch, &refs, sim_seconds, o.min_reps, &mut tally);
    let best = work::best_batch(&reps).as_secs_f64();
    let minsts = Metric::with_reps(
        "sim_minsts_per_s",
        "Minsts/s",
        reps[0].counts.retired as f64 / best / 1e6,
        &reps.iter().map(Rep::minsts_per_s).collect::<Vec<_>>(),
    );
    let mut wall = Metric::with_reps("wall_s", "s", best, &secs(reps.iter().map(|r| r.batch)));
    let mut extras = Vec::new();
    let peak = if sweep_tiny {
        let sweep = sweep::run(o.seconds * 0.75, 2, &mut tally)?;
        let best: Vec<f64> = sweep
            .experiments
            .iter()
            .map(|e| Better::Lower.best(&e.walls))
            .collect();
        let passes = sweep.experiments[0].walls.len();
        let pass_walls: Vec<f64> = (0..passes)
            .map(|p| sweep.experiments.iter().map(|e| e.walls[p]).sum())
            .collect();
        // Each id's best pass, summed: one slow moment of the host
        // spoils one experiment, not the sweep.
        wall = Metric::with_reps("wall_s", "s", best.iter().sum(), &pass_walls);
        // The median experiment: a process's peak varies with its
        // threads' timing, most of all in the largest experiments.
        let peaks: Vec<f64> = sweep
            .experiments
            .iter()
            .map(|e| Better::Lower.best(&e.peaks_mib))
            .collect();
        extras.push(Metric::new("bench.startup_s", "s", sweep.startup_s));
        for (e, best) in sweep.experiments.iter().zip(best) {
            extras.push(Metric::new(
                format!("bench.experiment.{}_s", e.id),
                "s",
                best,
            ));
        }
        stats::median(&peaks)
    } else {
        // One more repetition, untimed, with heap counting on.
        let (_, bytes) = heap::peak_of(|| run_rep(&batch, &refs, None, &mut tally));
        bytes as f64 / (1024.0 * 1024.0)
    };
    Ok(Report {
        tally,
        metrics: vec![
            minsts,
            wall,
            Metric::median("setup_s", "s", &secs(reps.iter().map(Rep::setup))),
            Metric::new("peak_mem_mib", "MiB", peak),
        ],
        extras,
        spans: None,
    })
}

/// Per-layer metrics: set-up layer medians and the cycle loop from
/// untraced repetitions, per-stage times from one traced repetition,
/// and the emulator, register cache and front end replayed alone.
fn per_layer(w: Workload, o: &Options) -> Result<Report, String> {
    let mut tally = Tally::default();
    let batch = w.batch(o.scale, o.seed);
    let groups = batch.generate();
    let refs = reference_counts(&groups, &mut tally);
    let reps = run_reps(&batch, &refs, o.seconds * 0.4, o.min_reps, &mut tally);
    let mut spans = Spans::new(Instant::now());
    let traced = run_rep(&batch, &refs, Some(&mut spans), &mut tally);
    let counts = &reps[0].counts;
    tally.attempted += 1;
    if traced.counts != *counts {
        tally.fail(
            "traced repetition",
            "simulated counts changed with profiling on",
        );
    }

    // Every distinct program of the batch, once.
    let mut seen: Vec<&str> = Vec::new();
    let mut subjects = Vec::new();
    for (k, &instructions) in groups.iter().flatten().zip(refs.iter().flatten()) {
        if seen.contains(&k.source.as_str()) {
            continue;
        }
        seen.push(&k.source);
        subjects.push(layers::Subject {
            name: k.name,
            program: k.assemble().map_err(|e| format!("{}: {e}", k.name))?,
            max_steps: k.max_steps,
            instructions,
        });
    }
    let budget = Duration::from_secs_f64(o.seconds * 0.15);
    let emu = layers::emu(&subjects, budget, &mut tally);
    let rp = layers::replays(&subjects, budget * 2, &mut tally);
    let floor = layers::timer_floor_ns();

    let ms = |f: fn(&Rep) -> Duration| stats::median(&secs(reps.iter().map(f))) * 1e3;
    let run_minsts: Vec<f64> = reps
        .iter()
        .map(|r| r.counts.retired as f64 / r.run.as_secs_f64() / 1e6)
        .collect();
    let ns_per_cycle: Vec<f64> = reps
        .iter()
        .map(|r| r.run.as_nanos() as f64 / r.counts.cycles as f64)
        .collect();
    let batch_minsts = Quartiles::of(&reps.iter().map(Rep::minsts_per_s).collect::<Vec<_>>())
        .expect("at least one repetition");
    let cycles = traced.counts.cycles as f64;
    let traced_run_ns = traced.run.as_nanos() as f64;
    let untraced_run_ns = stats::median(
        &reps
            .iter()
            .map(|r| r.run.as_nanos() as f64)
            .collect::<Vec<_>>(),
    );
    let staged_ns: u64 = traced.stages.iter().map(|&(_, nanos, _)| nanos).sum();

    let mut m = vec![
        Metric::new("workloads.generate_ms", "ms", ms(|r| r.generate)),
        Metric::new("isa.assemble_ms", "ms", ms(|r| r.assemble)),
        Metric::new("sim.construct_ms", "ms", ms(|r| r.construct)),
        Metric::new("emu.minsts_per_s", "Minsts/s", emu),
        Metric::new("core.regcache.mops_per_s", "Mops/s", rp.cache_mops_per_s),
        Metric::new("core.regcache.hit_rate", "ratio", rp.hit_rate),
        Metric::new(
            "core.regcache.writes_filtered_frac",
            "ratio",
            rp.writes_filtered_frac,
        ),
        Metric::new("frontend.mops_per_s", "Mops/s", rp.front_mops_per_s),
        Metric::new("frontend.mispredict_rate", "ratio", rp.mispredict_rate),
        Metric::best(
            "sim.run_minsts_per_s",
            "Minsts/s",
            Better::Higher,
            &run_minsts,
        ),
        Metric::best("sim.host_ns_per_cycle", "ns", Better::Lower, &ns_per_cycle),
    ];
    for stage in STAGES {
        let (nanos, calls) = traced
            .stages
            .iter()
            .find(|(n, _, _)| *n == stage)
            .map_or((0, 0), |&(_, nanos, calls)| (nanos, calls));
        let raw = stats::ratio(nanos as f64, cycles);
        let net = stats::ratio((nanos as f64 - calls as f64 * floor).max(0.0), cycles);
        m.push(Metric::new(
            format!("sim.stage.{stage}.ns_per_cycle"),
            "ns",
            raw,
        ));
        m.push(Metric::new(
            format!("sim.stage.{stage}.net_ns_per_cycle"),
            "ns",
            net,
        ));
    }
    m.extend([
        Metric::new(
            "sim.stage.unattributed_frac",
            "ratio",
            stats::ratio(traced_run_ns - staged_ns as f64, traced_run_ns),
        ),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            stats::ratio(traced_run_ns, untraced_run_ns) - 1.0,
        ),
        Metric::new("trace.timer_floor_ns", "ns", floor),
        Metric::new("sim.cycles", "count", counts.cycles as f64),
        Metric::new("sim.retired", "count", counts.retired as f64),
        Metric::new("sim.ipc_geomean", "ratio", counts.ipc_geomean()),
        Metric::new("sim.replayed", "count", counts.replayed as f64),
        Metric::new(
            "sim.miss_rate_per_operand",
            "ratio",
            stats::ratio(counts.read_misses as f64, counts.operands as f64),
        ),
        Metric::new(
            "sim.bypass_fraction",
            "ratio",
            stats::ratio(counts.bypassed as f64, counts.operands as f64),
        ),
        Metric::new("sim.epochs", "count", counts.epochs as f64),
        Metric::new("rep.sim_minsts_per_s.q1", "Minsts/s", batch_minsts.q1),
        Metric::new("rep.sim_minsts_per_s.p50", "Minsts/s", batch_minsts.p50),
        Metric::new("rep.sim_minsts_per_s.q3", "Minsts/s", batch_minsts.q3),
    ]);
    let extras = spans
        .self_times()
        .into_iter()
        .map(|(name, d)| Metric::new(format!("trace.self_ms.{name}"), "ms", d.as_secs_f64() * 1e3))
        .collect();
    Ok(Report {
        tally,
        metrics: m,
        extras,
        spans: Some(spans),
    })
}

fn write_spans(path: &str, workload: &str, spans: &Spans) -> Result<(), String> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for s in &spans.records {
        let line = Json::obj([
            ("workload", Json::from(workload)),
            ("cell", Json::from(s.cell.as_str())),
            ("id", Json::from(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("name", Json::from(s.name.as_str())),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
        ]);
        writeln!(out, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    out.flush().map_err(|e| format!("{path}: {e}"))
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    spans: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--json" => cli.json = Some(value()?.clone()),
            "--spans" => cli.spans = Some(value()?.clone()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Runs one mode of one workload and prints its report; the last line
/// is the JSON result.
fn run_workload(w: Workload, cli: &Cli) -> Result<(), String> {
    let o = Options {
        scale: Scale::Default,
        seed: cli.seed,
        seconds: cli.seconds,
        min_reps: 3,
    };
    let report = if cli.trace {
        per_layer(w, &o)?
    } else {
        end_to_end(w, &o)?
    };
    if let (Some(path), Some(spans)) = (&cli.spans, &report.spans) {
        write_spans(path, w.name(), spans)?;
    }
    for m in report.metrics.iter().chain(&report.extras) {
        println!("{}", m.line(w.name()));
    }
    for reason in &report.tally.reasons {
        eprintln!("failed: {reason}");
    }
    let metrics = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit.as_str())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(report.tally.failed == 0)),
        ("attempted", Json::from(report.tally.attempted)),
        ("failed", Json::from(report.tally.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(())
}

/// Runs every workload, each mode in its own child process, and writes
/// one document holding every metric.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    if let Some(path) = &cli.spans {
        std::fs::write(path, "").map_err(|e| format!("{path}: {e}"))?;
    }
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let (mut ok, mut attempted, mut failed) = (true, 0.0, 0.0);
        let mut metrics = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string(), "--trace", trace]);
            if let Some(path) = &cli.spans {
                cmd.args(["--spans", path]);
            }
            let out = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            for line in stdout.lines() {
                if let Some(m) = Metric::parse_line(line) {
                    println!("{line}");
                    metrics.push(m);
                }
            }
            let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
            match (&result, out.status.success()) {
                (Some(r), true) => {
                    ok &= matches!(json::get(r, "correct"), Some(Json::Bool(true)));
                    attempted += json::as_f64(json::get(r, "attempted")).unwrap_or(0.0);
                    failed += json::as_f64(json::get(r, "failed")).unwrap_or(0.0);
                }
                _ => {
                    eprintln!(
                        "{} --trace {trace} did not finish ({})",
                        w.name(),
                        out.status
                    );
                    ok = false;
                }
            }
        }
        let failed_frac = stats::ratio(failed, attempted);
        println!("result {} correct={ok} attempted={attempted} failed={failed} failed_frac={failed_frac}", w.name());
        all_ok &= ok;
        results.push(Json::obj([
            ("name", Json::from(w.name())),
            ("correct", Json::Bool(ok)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("failed_frac", Json::from(failed_frac)),
            ("metrics", Json::arr(metrics.iter().map(Metric::to_json))),
        ]));
    }
    if let Some(path) = &cli.json {
        let doc = Json::obj([
            ("schema", Json::from("ubrc-benchmark/1")),
            ("seed", Json::from(cli.seed)),
            ("seconds", Json::from(cli.seconds)),
            ("workloads", Json::arr(results)),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(all_ok)
}

/// One workload's metric values in one result document.
struct Measured {
    seed: f64,
    metrics: Vec<(String, f64)>,
}

fn load_doc(path: &str) -> Result<Vec<(String, Measured)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = json::as_f64(json::get(&doc, "seed")).ok_or(format!("{path}: no seed"))?;
    json::as_arr(json::get(&doc, "workloads"))
        .iter()
        .map(|w| {
            let name = json::as_str(json::get(w, "name"))
                .ok_or(format!("{path}: workload without a name"))?;
            let metrics = json::as_arr(json::get(w, "metrics"))
                .iter()
                .filter_map(|m| {
                    let name = json::as_str(json::get(m, "name"))?;
                    Some((name.to_string(), json::as_f64(json::get(m, "value"))?))
                })
                .collect();
            Ok((name.to_string(), Measured { seed, metrics }))
        })
        .collect()
}

/// `compare BASE.json... -- NEW.json...`: per workload and end-to-end
/// metric, both sides' medians and quartiles, the change's win share
/// over pairs and a verdict under the bounds of `BENCHMARK.json`; then
/// every exact simulated count that differs between runs of one seed.
/// Exits 1 when a metric regressed.
fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: compare BASE.json... -- NEW.json...")?;
    let (base_paths, new_paths) = (&args[..split], &args[split + 1..]);
    if base_paths.is_empty() || new_paths.is_empty() {
        return Err("usage: compare BASE.json... -- NEW.json...".into());
    }
    let load = |paths: &[String]| {
        paths
            .iter()
            .map(|p| load_doc(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (base, new) = (load(base_paths)?, load(new_paths)?);
    let spec = json::parse(SPEC).expect("BENCHMARK.json is valid JSON");
    // (seed, value) of metric `m` of workload `w` in each document.
    let lookup = |docs: &[Vec<(String, Measured)>], w: &str, m: &str| -> Vec<(f64, f64)> {
        docs.iter()
            .flat_map(|d| d.iter().filter(|(n, _)| n == w))
            .filter_map(|(_, ms)| {
                let (_, v) = ms.metrics.iter().find(|(name, _)| name == m)?;
                Some((ms.seed, *v))
            })
            .collect()
    };
    let mut regressed = false;
    let fmt = |vals: &[f64]| {
        let q = Quartiles::of(vals).expect("non-empty");
        format!("{:.6} [{:.6}, {:.6}] n={}", q.p50, q.q1, q.q3, vals.len())
    };
    for w in json::as_arr(json::get(&spec, "workloads")) {
        let w = json::as_str(json::get(w, "name")).unwrap_or_default();
        for e in json::as_arr(json::get(&spec, "end_to_end")) {
            let name = json::as_str(json::get(e, "name")).unwrap_or_default();
            let better = Better::parse(json::as_str(json::get(e, "better")).unwrap_or_default())
                .ok_or(format!("{name}: bad `better`"))?;
            let bound = json::as_f64(json::get(e, "bound")).ok_or(format!("{name}: no bound"))?;
            let (b, n) = (lookup(&base, w, name), lookup(&new, w, name));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let values = |side: &[(f64, f64)]| side.iter().map(|&(_, v)| v).collect::<Vec<_>>();
            let (bv, nv) = (values(&b), values(&n));
            let verdict = stats::verdict(&bv, &nv, better, bound);
            regressed |= verdict == stats::Verdict::Regressed;
            println!(
                "{w:<17} {name:<17} base {}  new {}  wins {:.2}  {}",
                fmt(&bv),
                fmt(&nv),
                stats::win_share(&bv, &nv, better),
                verdict.as_str()
            );
        }
        for name in EXACT {
            let (b, n) = (lookup(&base, w, name), lookup(&new, w, name));
            for (seed, bv) in &b {
                if let Some((_, nv)) = n.iter().find(|(s, nv)| s == seed && nv != bv) {
                    println!(
                        "{w:<17} {name:<17} simulated behaviour changed (seed {seed}): {bv} -> {nv}"
                    );
                    break;
                }
            }
        }
    }
    Ok(!regressed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        match parse_args(&args) {
            Err(e) => {
                eprintln!("{e}\nusage: ubrc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH] [--spans PATH]\n       ubrc-benchmark compare BASE.json... -- NEW.json...");
                std::process::exit(2);
            }
            Ok(cli) => match cli.workload {
                Some(w) => run_workload(w, &cli).map(|()| true),
                None => run_all(&cli),
            },
        }
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ubrc-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_metrics(key: &str) -> Vec<(String, String)> {
        let spec = json::parse(SPEC).unwrap();
        json::as_arr(json::get(&spec, key))
            .iter()
            .map(|m| {
                let s = |k| json::as_str(json::get(m, k)).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn spec_names_the_workloads_in_order() {
        let spec = json::parse(SPEC).unwrap();
        let names: Vec<&str> = json::as_arr(json::get(&spec, "workloads"))
            .iter()
            .map(|w| json::as_str(json::get(w, "name")).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn smoke_every_metric_is_emitted_with_its_unit_and_nothing_fails() {
        let o = Options {
            scale: Scale::Tiny,
            seed: 1,
            seconds: 0.0,
            min_reps: 1,
        };
        let runs = [
            (Workload::SuiteCached, "end_to_end"),
            (Workload::SuiteMonolithic, "end_to_end"),
            (Workload::Smt4Dynamic, "end_to_end"),
            (Workload::SyntheticSeeded, "end_to_end"),
            (Workload::SuiteCached, "per_layer"),
            (Workload::SuiteMonolithic, "per_layer"),
            (Workload::Smt4Dynamic, "per_layer"),
            (Workload::SyntheticSeeded, "per_layer"),
            (Workload::SweepTiny, "per_layer"),
        ];
        for (w, mode) in runs {
            let r = if mode == "end_to_end" {
                end_to_end(w, &o)
            } else {
                per_layer(w, &o)
            }
            .unwrap();
            let failed_frac = stats::ratio(r.tally.failed as f64, r.tally.attempted as f64);
            assert_eq!(
                failed_frac,
                0.0,
                "{} {mode}: {:?}",
                w.name(),
                r.tally.reasons
            );
            assert!(r.tally.attempted > 0);
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect();
            assert_eq!(got, spec_metrics(mode), "{} {mode}", w.name());
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                let back = Metric::parse_line(&m.line(w.name())).unwrap();
                assert_eq!(
                    (&back.name, &back.unit, back.value, back.reps),
                    (&m.name, &m.unit, m.value, m.reps)
                );
            }
        }
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        let o = Options {
            scale: Scale::Tiny,
            seed: 3,
            seconds: 0.0,
            min_reps: 2,
        };
        let r = end_to_end(Workload::SyntheticSeeded, &o).unwrap();
        for m in &r.metrics {
            assert!(m.value > 0.0, "{} is {}", m.name, m.value);
        }
        assert!(r
            .metrics
            .iter()
            .all(|m| m.name == "peak_mem_mib" || m.reps.unwrap().1 == 2));
    }

    #[test]
    fn cli_rejects_bad_arguments() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload smt4-dynamic --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(ok.workload, Some(Workload::Smt4Dynamic));
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.5, true));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--bogus",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }
}
