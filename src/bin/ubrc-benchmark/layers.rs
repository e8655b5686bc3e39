//! Layer replays: each layer's public API driven alone on streams
//! recorded from the workload's own programs, and the timer floor.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use ubrc_core::{IndexAssigner, IndexPolicy, PhysReg, RegCacheConfig, RegisterCache};
use ubrc_emu::{Machine, StepOutcome};
use ubrc_frontend::{DegreeOfUsePredictor, GlobalHistory, Yags};
use ubrc_isa::{Program, NUM_ARCH_REGS};

use crate::work::Tally;

/// Physical registers of the replayed machine (Table 1).
const NPREGS: usize = 512;
/// Instructions between a value's overwrite and its register's release,
/// standing in for the time to retirement (one issue window).
const FREE_DELAY: u64 = 128;
/// Instructions after its producer during which a consumer takes a
/// value from the bypass network. Six makes the replay bypass 74% of
/// the suite's source operands, as the pipeline does (its
/// `sim.bypass_fraction` is 75% on `suite-cached`).
const BYPASS_WINDOW: u64 = 6;

/// The best of the times repeated calls of `timed` report: at least one
/// call, and more until `budget` has passed.
fn best_of(budget: Duration, mut timed: impl FnMut() -> Duration) -> Duration {
    let start = Instant::now();
    let mut best = Duration::MAX;
    loop {
        best = best.min(timed());
        if start.elapsed() >= budget {
            return best;
        }
    }
}

/// A program with its assembled image and reference instruction count.
pub struct Subject {
    pub name: &'static str,
    pub program: Program,
    pub max_steps: u64,
    pub instructions: u64,
}

/// `emu` layer: `Machine::new` + `run` to halt. Returns simulated
/// instructions per host second, in millions.
pub fn emu(subjects: &[Subject], budget: Duration, tally: &mut Tally) -> f64 {
    let per = budget / subjects.len().max(1) as u32;
    let mut insts = 0u64;
    let mut time = Duration::ZERO;
    for s in subjects {
        tally.attempted += 1;
        let mut executed = 0;
        time += best_of(per, || {
            let program = s.program.clone();
            let t = Instant::now();
            let mut m = Machine::new(program);
            let outcome = m.run(s.max_steps);
            let elapsed = t.elapsed();
            executed = outcome.map_or(0, |_| m.instruction_count());
            elapsed
        });
        if executed != s.instructions {
            tally.fail(
                s.name,
                format!("emulator executed {executed}, expected {}", s.instructions),
            );
        }
        insts += executed;
    }
    insts as f64 / time.as_secs_f64() / 1e6
}

/// One register-cache operation of the recorded access stream.
#[derive(Clone, Copy, Debug)]
enum CacheOp {
    /// A value renamed into `preg`, with its true degree of use.
    Produce {
        preg: u16,
        degree: u8,
    },
    /// The value reaches the write port after `bypassed` consumers took
    /// it from the bypass network, with `remaining` uses still to come.
    Write {
        preg: u16,
        remaining: u8,
        bypassed: u8,
    },
    Read(u16),
    Free(u16),
}

/// One front-end operation of the recorded stream.
#[derive(Clone, Copy, Debug)]
enum FrontOp {
    Branch {
        pc: u64,
        taken: bool,
    },
    Predict {
        pc: u64,
        hist: GlobalHistory,
    },
    Train {
        pc: u64,
        hist: GlobalHistory,
        degree: u8,
    },
}

/// The streams one program's execution yields.
struct Streams {
    cache: Vec<CacheOp>,
    front: Vec<FrontOp>,
}

/// Steps `program` to halt, calling `visit` with each executed record.
fn execute(s: &Subject, mut visit: impl FnMut(&ubrc_emu::ExecRecord)) -> Result<(), String> {
    let mut m = Machine::new(s.program.clone());
    for _ in 0..s.max_steps {
        match m.step().map_err(|e| e.to_string())? {
            StepOutcome::Executed(r) => visit(&r),
            StepOutcome::Halted => return Ok(()),
        }
    }
    if m.is_halted() {
        Ok(())
    } else {
        Err("did not halt".into())
    }
}

/// Records the register-cache and front-end streams of a program's
/// dataflow: in-order renaming onto `NPREGS` registers, each value
/// tagged with its true degree of use (the reads it gets before its
/// architectural register is overwritten), consumers within
/// `BYPASS_WINDOW` instructions of the producer served by the bypass
/// network, each register released `FREE_DELAY` instructions after the
/// overwrite.
fn record(s: &Subject) -> Result<Streams, String> {
    let narch = NUM_ARCH_REGS as usize;
    // Pass 1: the degree of use of every value, by production order.
    let mut degrees: Vec<u32> = vec![0; narch];
    let mut current: Vec<usize> = (0..narch).collect();
    execute(s, |r| {
        for src in r.inst.sources().into_iter().flatten() {
            degrees[current[src.index() as usize]] += 1;
        }
        if let Some(d) = r.inst.dest() {
            current[d.index() as usize] = degrees.len();
            degrees.push(0);
        }
    })?;
    let degree = |v: usize| degrees[v].min(u8::MAX as u32) as u8;

    // Pass 2: rename and emit.
    let mut st = Streams {
        cache: Vec::new(),
        front: Vec::new(),
    };
    let mut map: Vec<u16> = (0..narch as u16).collect();
    let mut free: Vec<u16> = (narch as u16..NPREGS as u16).rev().collect();
    // Per register: the producing pc, history and true degree of the
    // value it holds, for training the degree-of-use predictor.
    let mut producer = vec![(0u64, GlobalHistory::new(), 0u8); NPREGS];
    for (p, slot) in producer.iter_mut().enumerate().take(narch) {
        *slot = (0, GlobalHistory::new(), degree(p));
        st.cache.push(CacheOp::Produce {
            preg: p as u16,
            degree: degree(p),
        });
    }
    fn release(
        preg: u16,
        producer: &[(u64, GlobalHistory, u8)],
        st: &mut Streams,
        free: &mut Vec<u16>,
    ) {
        let (pc, hist, degree) = producer[preg as usize];
        st.cache.push(CacheOp::Free(preg));
        st.front.push(FrontOp::Train { pc, hist, degree });
        free.push(preg);
    }
    // Registers whose value has not reached the write port yet, with
    // the consumers the bypass network served so far.
    let mut unwritten: Vec<Option<u8>> = vec![None; NPREGS];
    fn write(
        preg: u16,
        producer: &[(u64, GlobalHistory, u8)],
        unwritten: &mut [Option<u8>],
        st: &mut Streams,
    ) {
        let bypassed = unwritten[preg as usize].take().expect("written once");
        st.cache.push(CacheOp::Write {
            preg,
            remaining: producer[preg as usize].2.saturating_sub(bypassed),
            bypassed,
        });
    }
    let mut writes: VecDeque<(u64, u16)> = VecDeque::new();
    let mut pending: VecDeque<(u64, u16)> = VecDeque::new();
    let mut hist = GlobalHistory::new();
    let mut next_value = narch;
    let mut k = 0u64;
    execute(s, |r| {
        while writes.front().is_some_and(|&(due, _)| due <= k) {
            let (_, preg) = writes.pop_front().expect("checked non-empty");
            write(preg, &producer, &mut unwritten, &mut st);
        }
        while pending.front().is_some_and(|&(due, _)| due <= k) {
            let (_, preg) = pending.pop_front().expect("checked non-empty");
            release(preg, &producer, &mut st, &mut free);
        }
        for src in r.inst.sources().into_iter().flatten() {
            let preg = map[src.index() as usize];
            match &mut unwritten[preg as usize] {
                Some(bypassed) => *bypassed = bypassed.saturating_add(1),
                None => st.cache.push(CacheOp::Read(preg)),
            }
        }
        if r.inst.is_cond_branch() {
            st.front.push(FrontOp::Branch {
                pc: r.pc,
                taken: r.taken,
            });
            hist.push(r.taken);
        }
        if let Some(d) = r.inst.dest() {
            let preg = free
                .pop()
                .expect("FREE_DELAY bounds the live registers below NPREGS");
            let deg = degree(next_value);
            next_value += 1;
            producer[preg as usize] = (r.pc, hist, deg);
            st.front.push(FrontOp::Predict { pc: r.pc, hist });
            st.cache.push(CacheOp::Produce { preg, degree: deg });
            unwritten[preg as usize] = Some(0);
            writes.push_back((k + BYPASS_WINDOW, preg));
            let old = std::mem::replace(&mut map[d.index() as usize], preg);
            pending.push_back((k + FREE_DELAY, old));
        }
        k += 1;
    })?;
    // Write and release everything so the replay ends with an empty
    // cache.
    for (_, preg) in writes {
        write(preg, &producer, &mut unwritten, &mut st);
    }
    for preg in pending.into_iter().map(|(_, p)| p).chain(map) {
        release(preg, &producer, &mut st, &mut free);
    }
    Ok(st)
}

/// Register-cache statistics of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct CacheTotals {
    reads: u64,
    hits: u64,
    writes: u64,
    filtered: u64,
}

/// Replays a cache stream through `RegisterCache` + `IndexAssigner`
/// under the paper's design point (use-based, 64 entries, 2-way,
/// filtered round-robin): produce + assign, write, read with a fill on a
/// miss, free + release. Audits the cache afterwards.
fn replay_cache(ops: &[CacheOp]) -> Result<CacheTotals, String> {
    let config = RegCacheConfig::use_based(64, 2);
    let mut cache = RegisterCache::new(config, NPREGS);
    let mut assigner =
        IndexAssigner::new(IndexPolicy::FilteredRoundRobin, config.sets(), config.ways);
    let mut set = [0u16; NPREGS];
    let mut predicted = [0u8; NPREGS];
    let max = config.max_use_count;
    let mut now = 0;
    for &op in ops {
        now += 1;
        match op {
            CacheOp::Produce { preg, degree } => {
                cache.produce(PhysReg(preg));
                set[preg as usize] = assigner.assign(PhysReg(preg), degree);
                predicted[preg as usize] = degree;
            }
            CacheOp::Write {
                preg,
                remaining,
                bypassed,
            } => {
                let pinned = predicted[preg as usize] > max;
                cache.write(
                    PhysReg(preg),
                    set[preg as usize],
                    remaining.min(max),
                    pinned,
                    bypassed.into(),
                    now,
                );
            }
            CacheOp::Read(preg) => {
                let s = set[preg as usize];
                if !cache.read(PhysReg(preg), s, now) {
                    cache.fill(PhysReg(preg), s, now);
                }
            }
            CacheOp::Free(preg) => {
                let s = set[preg as usize];
                cache.free(PhysReg(preg), s, now);
                assigner.release(s, predicted[preg as usize]);
            }
        }
    }
    cache.finalize(now);
    cache.audit()?;
    let st = cache.stats();
    Ok(CacheTotals {
        reads: st.reads,
        hits: st.read_hits,
        writes: st.writes_attempted,
        filtered: st.writes_filtered,
    })
}

/// Front-end statistics of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct FrontTotals {
    branches: u64,
    mispredicts: u64,
}

/// Replays a front-end stream through `Yags` (predict + update per
/// conditional branch) and `DegreeOfUsePredictor` (predict at rename,
/// train at release).
fn replay_front(ops: &[FrontOp]) -> FrontTotals {
    let mut yags = Yags::default();
    let mut douse = DegreeOfUsePredictor::default();
    let mut hist = GlobalHistory::new();
    let mut t = FrontTotals::default();
    for &op in ops {
        match op {
            FrontOp::Branch { pc, taken } => {
                let predicted = yags.predict(pc, hist);
                yags.update(pc, hist, taken, predicted);
                t.branches += 1;
                t.mispredicts += (predicted != taken) as u64;
                hist.push(taken);
            }
            FrontOp::Predict { pc, hist } => {
                black_box(douse.predict(pc, hist));
            }
            FrontOp::Train { pc, hist, degree } => douse.train(pc, hist, degree),
        }
    }
    black_box(douse.stats());
    t
}

/// `core` and `frontend` layer results.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replays {
    pub cache_mops_per_s: f64,
    pub hit_rate: f64,
    pub writes_filtered_frac: f64,
    pub front_mops_per_s: f64,
    pub mispredict_rate: f64,
}

/// Records each subject's streams (untimed) and replays them, timing
/// the best of repeated replays per subject.
pub fn replays(subjects: &[Subject], budget: Duration, tally: &mut Tally) -> Replays {
    let per = budget / (2 * subjects.len().max(1)) as u32;
    let (mut cache_ops, mut cache_time, mut ct) = (0usize, Duration::ZERO, CacheTotals::default());
    let (mut front_ops, mut front_time, mut ft) = (0usize, Duration::ZERO, FrontTotals::default());
    for s in subjects {
        tally.attempted += 1;
        let streams = match record(s) {
            Ok(st) => st,
            Err(e) => {
                tally.fail(s.name, e);
                continue;
            }
        };
        let mut totals = Ok(CacheTotals::default());
        cache_time += best_of(per, || {
            let t = Instant::now();
            totals = replay_cache(black_box(&streams.cache));
            t.elapsed()
        });
        match totals {
            Ok(t) => {
                ct.reads += t.reads;
                ct.hits += t.hits;
                ct.writes += t.writes;
                ct.filtered += t.filtered;
                cache_ops += streams.cache.len();
            }
            Err(e) => tally.fail(s.name, format!("register cache audit after replay: {e}")),
        }
        let mut totals = FrontTotals::default();
        front_time += best_of(per, || {
            let t = Instant::now();
            totals = replay_front(black_box(&streams.front));
            t.elapsed()
        });
        ft.branches += totals.branches;
        ft.mispredicts += totals.mispredicts;
        front_ops += streams.front.len();
    }
    use crate::stats::ratio;
    Replays {
        cache_mops_per_s: ratio(cache_ops as f64, cache_time.as_secs_f64()) / 1e6,
        hit_rate: ratio(ct.hits as f64, ct.reads as f64),
        writes_filtered_frac: ratio(ct.filtered as f64, ct.writes as f64),
        front_mops_per_s: ratio(front_ops as f64, front_time.as_secs_f64()) / 1e6,
        mispredict_rate: ratio(ft.mispredicts as f64, ft.branches as f64),
    }
}

/// What the stage profiler reads for a stage that does no work: the
/// elapsed time of an empty `Instant::now()` pair, in nanoseconds
/// (median of five batches).
pub fn timer_floor_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut total = 0u128;
            for _ in 0..PAIRS {
                let t0 = Instant::now();
                total += black_box(t0).elapsed().as_nanos();
            }
            total as f64 / PAIRS as f64
        })
        .collect();
    crate::stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubrc_workloads::{workload_by_name, Scale};

    fn subject(name: &str) -> Subject {
        let k = workload_by_name(name, Scale::Tiny).unwrap();
        let instructions = k.run_checks().unwrap().instruction_count();
        Subject {
            name: k.name,
            program: k.assemble().unwrap(),
            max_steps: k.max_steps,
            instructions,
        }
    }

    #[test]
    fn recorded_streams_balance_and_replay_cleanly() {
        let s = subject("qsort");
        let streams = record(&s).unwrap();
        let count = |f: fn(&CacheOp) -> bool| streams.cache.iter().filter(|op| f(op)).count();
        // Every produced value is released exactly once.
        assert_eq!(
            count(|op| matches!(op, CacheOp::Produce { .. })),
            count(|op| matches!(op, CacheOp::Free(_)))
        );
        let t = replay_cache(&streams.cache).unwrap();
        assert!(t.reads > 0 && t.hits > 0 && t.hits <= t.reads);
        assert_eq!(
            t,
            replay_cache(&streams.cache).unwrap(),
            "replay is deterministic"
        );
        let f = replay_front(&streams.front);
        assert!(f.branches > 0 && f.mispredicts < f.branches);
    }

    #[test]
    fn layer_replays_report_rates() {
        let subjects = [subject("crc"), subject("fib")];
        let mut tally = Tally::default();
        assert!(emu(&subjects, Duration::ZERO, &mut tally) > 0.0);
        let r = replays(&subjects, Duration::ZERO, &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed),
            (4, 0),
            "{:?}",
            tally.reasons
        );
        assert!(r.cache_mops_per_s > 0.0 && r.front_mops_per_s > 0.0);
        assert!(r.hit_rate > 0.0 && r.hit_rate <= 1.0);
        assert!((0.0..1.0).contains(&r.mispredict_rate));
        assert!(timer_floor_ns() > 0.0);
    }
}
