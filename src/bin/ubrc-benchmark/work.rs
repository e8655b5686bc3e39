//! The benchmark's workloads and the timed batch repetitions that run
//! them: generate → assemble → construct → run for every cell, each
//! call into a layer timed from outside.

use std::time::{Duration, Instant};
use ubrc_core::{IndexPolicy, RegCacheConfig};
use ubrc_isa::Program;
use ubrc_sim::{RegStorage, SimConfig, SimResult, Simulator};
use ubrc_workloads::synthetic::SyntheticSpec;
use ubrc_workloads::{kernel_quads, suite, Scale, Workload as Kernel};

/// The five named workloads (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SuiteCached,
    SuiteMonolithic,
    Smt4Dynamic,
    SyntheticSeeded,
    SweepTiny,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SuiteCached,
        Workload::SuiteMonolithic,
        Workload::Smt4Dynamic,
        Workload::SyntheticSeeded,
        Workload::SweepTiny,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCached => "suite-cached",
            Workload::SuiteMonolithic => "suite-monolithic",
            Workload::Smt4Dynamic => "smt4-dynamic",
            Workload::SyntheticSeeded => "synthetic-seeded",
            Workload::SweepTiny => "sweep-tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The in-process simulation batch of this workload. `scale` sizes
    /// the kernels (Default when benchmarking, Tiny in tests); the sweep
    /// always simulates Tiny kernels, as `experiments --scale tiny`
    /// does. Only the synthetic generator sees `seed`.
    pub fn batch(self, scale: Scale, seed: u64) -> Batch {
        let (source, configs, scale) = match self {
            Workload::SuiteCached => (Source::Suite, cached_configs(), scale),
            Workload::SuiteMonolithic => (Source::Suite, monolithic_configs(), scale),
            Workload::Smt4Dynamic => (Source::Quads, dynamic_configs(), scale),
            Workload::SyntheticSeeded => (Source::Synthetic, cached_configs(), scale),
            Workload::SweepTiny => {
                let mut configs = cached_configs();
                configs.extend(monolithic_configs());
                (Source::Suite, configs, Scale::Tiny)
            }
        };
        Batch {
            source,
            scale,
            seed,
            configs,
        }
    }
}

/// The paper's design point and the LRU baseline, at 64 entries, 2-way.
fn cached_configs() -> Vec<(&'static str, SimConfig)> {
    let lru = RegStorage::Cached {
        cache: RegCacheConfig::lru(64, 2),
        index: IndexPolicy::RoundRobin,
        backing_read: 2,
        backing_write: 2,
    };
    vec![
        ("use-based", SimConfig::paper_default()),
        ("lru", SimConfig::table1(lru)),
    ]
}

/// Monolithic 1- and 3-cycle register files: no cache, index assigner
/// or backing file on any path.
fn monolithic_configs() -> Vec<(&'static str, SimConfig)> {
    let rf = |latency| {
        SimConfig::table1(RegStorage::Monolithic {
            read_latency: latency,
            write_latency: latency,
        })
    };
    vec![("rf-1", rf(1)), ("rf-3", rf(3))]
}

/// The two dynamic partition controllers, where epochs do real work.
fn dynamic_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "dyncap",
            SimConfig::table1(RegStorage::dynamic_cap(64, 4, 128, 4)),
        ),
        (
            "dynway",
            SimConfig::table1(RegStorage::dynamic_way(64, 8, 128)),
        ),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Source {
    /// The twelve kernels, one per single-thread cell.
    Suite,
    /// The three fixed 4-kernel groupings, one per 4-thread cell.
    Quads,
    /// Three generated programs with different degree-of-use mixes.
    Synthetic,
}

/// What one repetition simulates: every program group under every
/// configuration.
pub struct Batch {
    source: Source,
    scale: Scale,
    seed: u64,
    pub configs: Vec<(&'static str, SimConfig)>,
}

impl Batch {
    /// Generates the program groups: one inner list per cell, holding
    /// the kernel co-scheduled on each hardware thread.
    pub fn generate(&self) -> Vec<Vec<Kernel>> {
        match self.source {
            Source::Suite => suite(self.scale).into_iter().map(|k| vec![k]).collect(),
            Source::Quads => kernel_quads(self.scale)
                .into_iter()
                .map(Vec::from)
                .collect(),
            Source::Synthetic => {
                // About 260k dynamic instructions each at Default scale.
                // A long loop body keeps host cost per instruction nearly
                // seed-independent: with the presets' 60-instruction
                // body, simulator throughput differed up to 3x by seed.
                let (blocks, block_len) = if self.scale == Scale::Default {
                    (260, 1000)
                } else {
                    (4, 500)
                };
                let specs: [fn(u64) -> SyntheticSpec; 3] = [
                    SyntheticSpec::single_use_heavy,
                    SyntheticSpec::high_use,
                    SyntheticSpec::dead_value_heavy,
                ];
                specs
                    .iter()
                    .map(|spec| {
                        vec![SyntheticSpec {
                            blocks,
                            block_len,
                            ..spec(self.seed)
                        }
                        .build()]
                    })
                    .collect()
            }
        }
    }
}

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("{what}: {why}"));
        }
    }
}

/// Dynamic instruction counts of every program of every group, from the
/// functional emulator. Each kernel's architectural checks run too; a
/// failed check counts as a failure.
pub fn reference_counts(groups: &[Vec<Kernel>], tally: &mut Tally) -> Vec<Vec<u64>> {
    groups
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|k| {
                    tally.attempted += 1;
                    match k.run_checks() {
                        Ok(m) => m.instruction_count(),
                        Err(e) => {
                            tally.fail(k.name, e);
                            0
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// Simulated statistics of a repetition. Deterministic: every field
/// repeats exactly between repetitions and between commits that do not
/// change the simulated machine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub cycles: u64,
    pub retired: u64,
    pub replayed: u64,
    pub epochs: u64,
    pub read_misses: u64,
    pub operands: u64,
    pub bypassed: u64,
    pub ipcs: Vec<f64>,
}

impl Counts {
    fn add(&mut self, r: &SimResult) {
        self.cycles += r.cycles;
        self.retired += r.retired;
        self.replayed += r.replayed;
        self.epochs += r.epochs;
        self.read_misses += r.regcache.as_ref().map_or(0, |c| c.read_misses);
        self.operands += r.operands_bypassed + r.operands_from_storage;
        self.bypassed += r.operands_bypassed;
        self.ipcs.push(r.ipc());
    }

    pub fn ipc_geomean(&self) -> f64 {
        let n = self.ipcs.len() as f64;
        (self.ipcs.iter().map(|x| x.ln()).sum::<f64>() / n).exp()
    }
}

/// Host wall time of one repetition, split by layer.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// The whole batch: generate + every cell's assemble, construct, run.
    pub batch: Duration,
    pub generate: Duration,
    pub assemble: Duration,
    pub construct: Duration,
    pub run: Duration,
    /// Assemble + construct + run of each cell, in batch order.
    pub cells: Vec<Duration>,
    pub counts: Counts,
    /// Per-stage nanoseconds and calls summed over the cells, in
    /// schedule order (traced repetitions only).
    pub stages: Vec<(&'static str, u64, u64)>,
}

impl Rep {
    pub fn setup(&self) -> Duration {
        self.generate + self.assemble + self.construct
    }

    /// Simulated instructions per second of the whole batch, in millions.
    pub fn minsts_per_s(&self) -> f64 {
        self.counts.retired as f64 / self.batch.as_secs_f64() / 1e6
    }
}

/// One recorded span of the traced repetition.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub cell: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans recorded from the benchmark's side of each layer call, kept in
/// memory and written out after the run.
pub struct Spans {
    epoch: Instant,
    pub records: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            records: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        cell: &str,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.records.len();
        self.records.push(Span {
            id,
            parent,
            cell: cell.to_string(),
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed by name, in first-seen order.
    pub fn self_times(&self) -> Vec<(String, Duration)> {
        let mut child_ns = vec![0u64; self.records.len()];
        for s in &self.records {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(String, Duration)> = Vec::new();
        for s in &self.records {
            let own = Duration::from_nanos((s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]));
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, d)) => *d += own,
                None => out.push((s.name.clone(), own)),
            }
        }
        out
    }
}

/// Runs one repetition of `batch`, counting each cell as one attempted
/// operation. A cell fails on a rejected configuration, a `SimError`,
/// or a retired count that differs from the emulator's (per thread). A
/// traced repetition sets `SimConfig::profile` and records spans.
pub fn run_rep(
    batch: &Batch,
    refs: &[Vec<u64>],
    mut spans: Option<&mut Spans>,
    tally: &mut Tally,
) -> Rep {
    let traced = spans.is_some();
    let mut rep = Rep::default();
    let t_batch = Instant::now();
    let groups = batch.generate();
    let t_gen = Instant::now();
    rep.generate = t_gen - t_batch;
    let batch_span = spans.as_deref_mut().map(|s| {
        let id = s.push(None, "*", "batch", t_batch, t_batch);
        s.push(Some(id), "*", "workloads.generate", t_batch, t_gen);
        id
    });
    for (cfg_name, cfg) in &batch.configs {
        for (group, want) in groups.iter().zip(refs) {
            tally.attempted += 1;
            let names: Vec<&str> = group.iter().map(|k| k.name).collect();
            let cell = format!("{cfg_name}/{}", names.join("+"));
            let t0 = Instant::now();
            let programs: Result<Vec<Program>, _> = group.iter().map(Kernel::assemble).collect();
            let t1 = Instant::now();
            rep.assemble += t1 - t0;
            let programs = match programs {
                Ok(p) => p,
                Err(e) => {
                    rep.cells.push(t1 - t0);
                    tally.fail(&cell, e);
                    continue;
                }
            };
            let mut config = cfg.clone();
            config.profile = traced;
            let sim = Simulator::try_new_smt(programs, config);
            let t2 = Instant::now();
            rep.construct += t2 - t1;
            let outcome = sim.map(|sim| sim.run_checked());
            let t3 = Instant::now();
            if outcome.is_ok() {
                rep.run += t3 - t2;
            }
            rep.cells.push(t3 - t0);
            let result = match outcome {
                Err(e) => Err(format!("rejected configuration: {e}")),
                Ok(Err(e)) => Err(e.to_string()),
                Ok(Ok(r)) if r.thread_retired != *want => Err(format!(
                    "retired {:?}, emulator executed {want:?}",
                    r.thread_retired
                )),
                Ok(Ok(r)) => Ok(r),
            };
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(&cell, e);
                    continue;
                }
            };
            rep.counts.add(&r);
            if let Some(p) = &r.profile {
                for s in &p.stages {
                    match rep.stages.iter_mut().find(|(n, _, _)| *n == s.name) {
                        Some((_, nanos, calls)) => {
                            *nanos += s.nanos;
                            *calls += s.calls;
                        }
                        None => rep.stages.push((s.name, s.nanos, s.calls)),
                    }
                }
                // Stage calls are disjoint intervals inside the run, so
                // their sum cannot exceed it beyond timer granularity.
                let stage_ns = p.total_nanos() as f64;
                let run_ns = (t3 - t2).as_nanos() as f64;
                if stage_ns > run_ns * 1.02 {
                    tally.fail(
                        &cell,
                        format!("stage times {stage_ns} ns exceed run time {run_ns} ns"),
                    );
                }
            }
            if let (Some(s), Some(batch_id)) = (spans.as_deref_mut(), batch_span) {
                let cell_id = s.push(Some(batch_id), &cell, "cell", t0, t3);
                s.push(Some(cell_id), &cell, "isa.assemble", t0, t1);
                s.push(Some(cell_id), &cell, "sim.construct", t1, t2);
                let run_id = s.push(Some(cell_id), &cell, "sim.run", t2, t3);
                // The profiler aggregates each stage over the run, so
                // its stage spans are laid end to end from the run start.
                let mut at = t2;
                for st in r.profile.iter().flat_map(|p| &p.stages) {
                    let end = at + Duration::from_nanos(st.nanos);
                    s.push(
                        Some(run_id),
                        &cell,
                        &format!("sim.stage.{}", st.name),
                        at,
                        end,
                    );
                    at = end;
                }
            }
        }
    }
    rep.batch = t_batch.elapsed();
    if let (Some(s), Some(id)) = (spans, batch_span) {
        s.records[id].end_ns = s.ns(Instant::now());
    }
    rep
}

/// The batch's wall time at its best: the fastest generation plus each
/// cell's fastest repetition. The host slows down in phases. A slow
/// phase spoils this sum only where it covers a cell in every
/// repetition, while it spoils a whole repetition by touching any cell.
pub fn best_batch(reps: &[Rep]) -> Duration {
    let generate = reps.iter().map(|r| r.generate).min().unwrap_or_default();
    let cells = reps.iter().map(|r| r.cells.len()).min().unwrap_or(0);
    let best_cells: Duration = (0..cells)
        .map(|i| {
            reps.iter()
                .map(|r| r.cells[i])
                .min()
                .expect("at least one repetition")
        })
        .sum();
    generate + best_cells
}

/// Repeats [`run_rep`] until `seconds` have passed and at least
/// `min_reps` repetitions ran.
pub fn run_reps(
    batch: &Batch,
    refs: &[Vec<u64>],
    seconds: f64,
    min_reps: usize,
    tally: &mut Tally,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps.push(run_rep(batch, refs, None, tally));
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn best_batch_takes_each_cells_fastest_repetition() {
        let ms = Duration::from_millis;
        let rep = |generate, cells: &[u64]| Rep {
            generate: ms(generate),
            cells: cells.iter().map(|&c| ms(c)).collect(),
            ..Rep::default()
        };
        let reps = [
            rep(3, &[10, 50, 7]),
            rep(2, &[12, 40, 9]),
            rep(4, &[11, 45, 6]),
        ];
        assert_eq!(best_batch(&reps), ms(2 + 10 + 40 + 6));
        assert_eq!(best_batch(&reps[..1]), ms(3 + 10 + 50 + 7));
    }

    #[test]
    fn rejected_config_is_counted_as_failed_and_does_not_crash() {
        let mut batch = Workload::SuiteCached.batch(Scale::Tiny, 1);
        let mut broken = SimConfig::paper_default();
        broken.phys_regs = 8;
        batch.configs = vec![("good", SimConfig::paper_default()), ("broken", broken)];
        let mut tally = Tally::default();
        let refs = reference_counts(&batch.generate(), &mut tally);
        let rep = run_rep(&batch, &refs, None, &mut tally);
        assert_eq!(tally.attempted, 12 + 24);
        assert_eq!(tally.failed, 12);
        assert!(tally.reasons[0].starts_with("broken/qsort: rejected configuration"));
        assert_eq!(rep.counts.ipcs.len(), 12);
    }

    #[test]
    fn traced_rep_leaves_counts_unchanged_and_spans_nest() {
        let batch = Workload::SuiteCached.batch(Scale::Tiny, 1);
        let mut tally = Tally::default();
        let refs = reference_counts(&batch.generate(), &mut tally);
        let plain = run_rep(&batch, &refs, None, &mut tally);
        let mut spans = Spans::new(Instant::now());
        let traced = run_rep(&batch, &refs, Some(&mut spans), &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        assert_eq!(plain.counts, traced.counts);
        assert!(plain.stages.is_empty());
        assert_eq!(traced.stages.len(), 8);
        for s in &spans.records {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let parent = &spans.records[p];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{s:?} escapes {parent:?}"
                );
            }
        }
        let names: Vec<String> = spans.self_times().into_iter().map(|(n, _)| n).collect();
        for want in [
            "batch",
            "workloads.generate",
            "cell",
            "isa.assemble",
            "sim.construct",
            "sim.run",
            "sim.stage.issue",
        ] {
            assert!(names.iter().any(|n| n == want), "no {want} in {names:?}");
        }
    }
}
