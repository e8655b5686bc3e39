//! Runtime correctness checking: structured error types for the
//! checked run API plus the invariant checker's mirror state.
//!
//! Everything here is *observation-only*: with checking enabled the
//! simulator produces bit-identical [`crate::SimResult`]s — the
//! checker maintains its own mirrors of the use tracker and the fill
//! schedule and cross-checks them against the real structures at the
//! end of every cycle, but never writes into the timing model.

use std::fmt;
use ubrc_core::{CacheConfigError, PhysReg, RegisterCache, UseTracker};
use ubrc_emu::EmuError;
use ubrc_frontend::DouseConfigError;
use ubrc_isa::Inst;
use ubrc_memsys::MemSysConfigError;

/// Runtime-checking configuration (`SimConfig::check`).
///
/// The default is everything off except the forward-progress watchdog,
/// which has always guarded the pipeline (it replaces the old
/// hard-coded deadlock assertion and keeps its 500k-cycle budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Run the functional emulator in lockstep and compare every
    /// retired instruction's architectural record against it.
    pub oracle: bool,
    /// Cross-check pipeline/core invariants at the end of every cycle.
    pub invariants: bool,
    /// Abort with a diagnostic dump if no instruction retires for this
    /// many cycles (0 is treated as 1; the watchdog cannot be disabled,
    /// only widened).
    pub watchdog_cycles: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            oracle: false,
            invariants: false,
            watchdog_cycles: 500_000,
        }
    }
}

impl CheckConfig {
    /// Oracle and invariant checking both on, default watchdog.
    pub fn full() -> Self {
        Self {
            oracle: true,
            invariants: true,
            ..Self::default()
        }
    }
}

/// One retired instruction, as remembered by the oracle's history ring.
#[derive(Clone, Debug)]
pub struct RetiredEvent {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Cycle it retired.
    pub cycle: u64,
    /// Fetch address.
    pub pc: u64,
    /// The instruction, disassembled only when a report is displayed.
    pub inst: Inst,
}

/// The pipeline retired an instruction whose architectural record
/// disagrees with the lockstep functional emulator.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// Cycle of the divergent retirement.
    pub cycle: u64,
    /// Dynamic sequence number of the divergent instruction.
    pub seq: u64,
    /// Fetch address according to the pipeline.
    pub pc: u64,
    /// Disassembly of the pipeline's instruction.
    pub asm: String,
    /// Which architectural field diverged first.
    pub field: &'static str,
    /// The oracle's value for that field.
    pub expected: String,
    /// The pipeline's value.
    pub actual: String,
    /// The last instructions retired before the divergence, oldest
    /// first.
    pub recent: Vec<RetiredEvent>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "co-simulation divergence at cycle {}: seq {} pc {:#x} `{}`",
            self.cycle, self.seq, self.pc, self.asm
        )?;
        writeln!(f, "  field    {}", self.field)?;
        writeln!(f, "  expected {}", self.expected)?;
        writeln!(f, "  actual   {}", self.actual)?;
        writeln!(f, "  last {} retired:", self.recent.len())?;
        for e in &self.recent {
            writeln!(
                f,
                "    seq {:>8} @ cycle {:>8}  pc {:#08x}  {}",
                e.seq, e.cycle, e.pc, e.inst
            )?;
        }
        Ok(())
    }
}

/// A per-cycle pipeline/core invariant failed.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// The cycle whose end-of-cycle audit failed.
    pub cycle: u64,
    /// The hardware thread context the violation belongs to, when the
    /// invariant is per-thread (register-pool accounting, ROB
    /// lockstep); `None` for core-global invariants.
    pub thread: Option<usize>,
    /// Short name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated at cycle {}",
            self.invariant, self.cycle
        )?;
        if let Some(tid) = self.thread {
            write!(f, " (thread {tid})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Forward-progress watchdog report: nothing retired within the
/// configured budget, with a snapshot of the stuck machine.
#[derive(Clone, Debug)]
pub struct DiagnosticDump {
    /// Cycle the watchdog fired.
    pub cycle: u64,
    /// Cycle of the last retirement.
    pub last_progress: u64,
    /// Instructions retired so far.
    pub retired: u64,
    /// Occupied fetch-queue slots, summed across threads.
    pub fetch_queue: usize,
    /// Window slots holding un-issued instructions.
    pub window_count: usize,
    /// One summary line per hardware thread context (retirement
    /// progress, ROB/fetch occupancy, stall flags) so the report says
    /// which context wedged.
    pub threads: Vec<String>,
    /// One line per ROB-head entry: thread, seq, pc, status, deadline.
    pub rob_head: Vec<String>,
    /// One line per deferred-event queue: name, length, next due time.
    pub event_queues: Vec<String>,
    /// Total recoveries performed before the stall (local scrubs,
    /// re-fills, and machine checks), summed across threads. Non-zero
    /// distinguishes livelock-after-recovery from a plain deadlock.
    pub recoveries: u64,
    /// Machine-check squashes among those recoveries.
    pub machine_checks: u64,
    /// Cycle of the most recent recovery, if any.
    pub last_recovery: Option<u64>,
    /// Dynamic-repartitioning epoch boundaries completed before the
    /// stall ([`ubrc_core::CachePartition::DynamicCap`] and
    /// [`ubrc_core::CachePartition::DynamicWay`]).
    pub epochs: u64,
    /// The per-thread occupancy quotas in force when the watchdog
    /// fired (`DynamicCap` only) — a starved quota shows up here.
    pub dynamic_caps: Option<Vec<usize>>,
}

impl fmt::Display for DiagnosticDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline deadlock at cycle {} (retired {}, rob {}, fetchq {})",
            self.cycle,
            self.retired,
            self.rob_head.len(),
            self.fetch_queue
        )?;
        writeln!(
            f,
            "  last retirement at cycle {}; window holds {} waiting",
            self.last_progress, self.window_count
        )?;
        match self.last_recovery {
            Some(at) => writeln!(
                f,
                "  recoveries {} ({} machine checks), last at cycle {at} — \
                 possible livelock after recovery",
                self.recoveries, self.machine_checks
            )?,
            None => writeln!(f, "  no recoveries performed")?,
        }
        if let Some(caps) = &self.dynamic_caps {
            writeln!(
                f,
                "  dynamic caps {caps:?} after {} epoch boundaries",
                self.epochs
            )?;
        }
        writeln!(f, "  threads:")?;
        for line in &self.threads {
            writeln!(f, "    {line}")?;
        }
        writeln!(f, "  rob head:")?;
        for line in &self.rob_head {
            writeln!(f, "    {line}")?;
        }
        writeln!(f, "  event queues:")?;
        for line in &self.event_queues {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// A checked simulation ended abnormally.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The co-simulation oracle caught an architectural divergence.
    Divergence(Box<DivergenceReport>),
    /// The per-cycle invariant checker caught corrupted state.
    Invariant(Box<InvariantViolation>),
    /// The forward-progress watchdog fired.
    Watchdog(Box<DiagnosticDump>),
    /// The functional emulator faulted on the correct path.
    Emu(EmuError),
    /// An external cancellation flag (see
    /// [`crate::Simulator::set_cancel`]) stopped the run.
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
    },
    /// The simulator was constructed with an invalid configuration (see
    /// [`crate::Simulator::try_new_smt`]).
    Config(ConfigError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Divergence(r) => write!(f, "{r}"),
            SimError::Invariant(v) => write!(f, "{v}"),
            SimError::Watchdog(d) => write!(f, "{d}"),
            SimError::Emu(e) => write!(f, "functional execution faulted: {e}"),
            SimError::Cancelled { cycle } => {
                write!(f, "simulation cancelled at cycle {cycle}")
            }
            SimError::Config(e) => write!(f, "invalid simulator configuration: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A rejected simulator configuration, from
/// [`crate::Simulator::try_new_smt`]. Each variant names the offending
/// parameters so the message is actionable without a debugger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No programs were supplied.
    NoPrograms,
    /// `phys_regs` does not divide evenly across the threads.
    UnevenPartition {
        /// Configured physical register count.
        phys_regs: usize,
        /// Thread count.
        nthreads: usize,
    },
    /// A thread's register partition is not larger than the
    /// architectural set, so rename could never allocate.
    PartitionTooSmall {
        /// Registers per thread (`phys_regs / nthreads`).
        partition: usize,
        /// Architectural registers each thread must map.
        arch_regs: usize,
    },
    /// A width, port count, window size or functional-unit pool is
    /// zero.
    ZeroWidth {
        /// Name of the zero field (`fu.<pool>` for a [`crate::FuPools`]
        /// field).
        field: &'static str,
    },
    /// `phys_regs` exceeds the 16-bit register ids.
    TooManyPhysRegs {
        /// Configured physical register count.
        phys_regs: usize,
        /// The largest count whose ids all fit below the id that marks
        /// an unused operand.
        max: usize,
    },
    /// The two-level register file models a single hardware thread.
    TwoLevelSmt {
        /// Requested thread count.
        nthreads: usize,
    },
    /// The two-level L1 cannot hold the architectural state plus one
    /// renaming target.
    L1TooSmall {
        /// Configured L1 entries.
        l1_entries: usize,
        /// Minimum required (`arch_regs + 1`).
        required: usize,
    },
    /// A [`crate::FreelistPolicy::Shared`] pool reassigns register
    /// ownership dynamically, so a statically thread-partitioned cache
    /// ([`ubrc_core::CachePartition`] other than `Shared`) cannot tag
    /// entries by owner.
    SharedFreelistWithPartitionedCache,
    /// A [`crate::FreelistPolicy::Shared`] cap at or below the
    /// architectural register count would deadlock rename.
    SharedFreelistCapTooSmall {
        /// Configured per-thread live-register cap.
        cap: usize,
        /// Architectural registers each thread permanently holds.
        arch_regs: usize,
    },
    /// [`crate::SimConfig::filter_params`] (spec key `filter`) is set
    /// where nothing reads it: only a register cache with filtered
    /// round-robin indexing (`index=filtered`) skips high-use sets.
    FilterWithoutFilteredIndex,
    /// The register cache cannot be built: its geometry, partition or
    /// epoch pacing is infeasible for the thread count.
    Cache(CacheConfigError),
    /// The degree-of-use predictor cannot be built.
    Douse(DouseConfigError),
    /// The memory hierarchy cannot be built.
    MemSys(MemSysConfigError),
    /// The fault plan is malformed or incompatible with the protection
    /// configuration (see [`crate::FaultPlanError`]).
    FaultPlan(crate::inject::FaultPlanError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoPrograms => write!(f, "at least one program is required"),
            ConfigError::UnevenPartition {
                phys_regs,
                nthreads,
            } => write!(
                f,
                "phys_regs {phys_regs} does not divide evenly across {nthreads} threads"
            ),
            ConfigError::PartitionTooSmall {
                partition,
                arch_regs,
            } => write!(
                f,
                "each thread's register partition ({partition}) must exceed the \
                 architectural set ({arch_regs}); raise phys_regs or lower nthreads"
            ),
            ConfigError::ZeroWidth { field } => {
                write!(f, "{field} must be at least 1")
            }
            ConfigError::TooManyPhysRegs { phys_regs, max } => write!(
                f,
                "phys_regs {phys_regs} exceeds {max}: physical register ids are 16-bit"
            ),
            ConfigError::TwoLevelSmt { nthreads } => write!(
                f,
                "the two-level register file is single-threaded (nthreads = {nthreads})"
            ),
            ConfigError::L1TooSmall {
                l1_entries,
                required,
            } => write!(
                f,
                "two-level L1 of {l1_entries} entries cannot hold the architectural \
                 state; it needs at least {required} (arch regs + 1 rename target)"
            ),
            ConfigError::SharedFreelistWithPartitionedCache => write!(
                f,
                "FreelistPolicy::Shared requires CachePartition::Shared (dynamic \
                 register ownership defeats static cache partitioning)"
            ),
            ConfigError::SharedFreelistCapTooSmall { cap, arch_regs } => write!(
                f,
                "shared-freelist cap {cap} must exceed the architectural register \
                 count {arch_regs} or rename deadlocks"
            ),
            ConfigError::FilterWithoutFilteredIndex => write!(
                f,
                "`filter=DEGREE:SKIP` needs a register cache with `index=filtered`"
            ),
            ConfigError::Cache(e) => write!(f, "register cache: {e}"),
            ConfigError::Douse(e) => write!(f, "degree-of-use predictor: {e}"),
            ConfigError::MemSys(e) => write!(f, "memory hierarchy: {e}"),
            ConfigError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// An expected register-cache fill that has been scheduled but not yet
/// applied.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FillObligation {
    pub preg: u16,
    pub gen: u32,
    pub due: u64,
}

/// Mirror state for the invariant checker.
///
/// The mirrors are rebuilt from the same pipeline events that drive
/// the real [`UseTracker`] and fill schedule; a fault injected directly
/// into the real structures (or a future refactoring bug that forgets
/// a bookkeeping step) shows up as a mirror mismatch at the end of the
/// cycle. The use-counter mirror means something only for registers
/// the pool holds, as the tracker's words do.
pub(crate) struct Checker {
    remaining: Vec<u8>,
    pinned: Vec<bool>,
    /// Registers whose real counter carries an injected-but-undetected
    /// parity fault: the mirror comparison is suspended (the *protected
    /// read* is what must catch it) until the recovery scrub resyncs.
    suspect: Vec<bool>,
    pub(crate) fill_obligations: Vec<FillObligation>,
}

impl Checker {
    pub(crate) fn new(npregs: usize) -> Self {
        Self {
            remaining: vec![0; npregs],
            pinned: vec![false; npregs],
            suspect: vec![false; npregs],
            fill_obligations: Vec::new(),
        }
    }

    /// Mirrors `UseTracker::init` from the same arguments: the clamped
    /// count and the pin are derived here from the prediction, not read
    /// back from the tracker this mirror audits, so a rename that
    /// skipped `init` leaves a stale word that disagrees with it. The
    /// rewrite clears the word's parity, which lifts any suspension.
    pub(crate) fn on_init(
        &mut self,
        preg: u16,
        prediction: Option<u8>,
        unknown_default: u8,
        max_use_count: u8,
    ) {
        let i = preg as usize;
        let degree = prediction.unwrap_or(unknown_default);
        self.remaining[i] = degree.min(max_use_count);
        self.pinned[i] = degree >= max_use_count;
        self.suspect[i] = false;
    }

    /// Mirrors `UseTracker::consume`.
    pub(crate) fn on_consume(&mut self, preg: u16) {
        let i = preg as usize;
        if !self.pinned[i] {
            self.remaining[i] = self.remaining[i].saturating_sub(1);
        }
    }

    /// Retires any fill obligations for a freed register.
    pub(crate) fn on_free(&mut self, preg: u16) {
        self.fill_obligations.retain(|o| o.preg != preg);
    }

    /// A parity-marked counter fault was injected into the real
    /// tracker: suspend the mirror comparison for this register until
    /// the protected read detects it and scrubs.
    pub(crate) fn on_counter_fault(&mut self, preg: u16) {
        self.suspect[preg as usize] = true;
    }

    /// Mirrors `UseTracker::scrub` (the recovery rewrite after a
    /// detected counter parity error) and lifts the suspension.
    pub(crate) fn on_scrub(&mut self, preg: u16) {
        let i = preg as usize;
        self.remaining[i] = 0;
        self.pinned[i] = false;
        self.suspect[i] = false;
    }

    /// A fill was scheduled for `due`; it must land by then (unless the
    /// register is freed first).
    pub(crate) fn on_fill_scheduled(&mut self, preg: u16, gen: u32, due: u64) {
        self.fill_obligations
            .push(FillObligation { preg, gen, due });
    }

    /// A scheduled fill event fired (whether or not the entry was
    /// already resident): discharge the earliest-due matching
    /// obligation. Two misses on the same register can be in flight at
    /// once, and `swap_remove` scrambles vector order, so matching by
    /// position alone could discharge the later fill and leave the
    /// earlier obligation to go stale.
    pub(crate) fn on_fill_applied(&mut self, preg: u16, gen: u32) {
        if let Some(i) = self
            .fill_obligations
            .iter()
            .enumerate()
            .filter(|(_, o)| o.preg == preg && o.gen == gen)
            .min_by_key(|(_, o)| o.due)
            .map(|(i, _)| i)
        {
            self.fill_obligations.swap_remove(i);
        }
    }

    /// Cross-checks the real use tracker against the mirror for every
    /// register the pool holds (`held`). `thread_of` names the thread
    /// that owns a physical register.
    pub(crate) fn check_tracker(
        &self,
        tracker: &UseTracker,
        held: &[bool],
        cycle: u64,
        thread_of: impl Fn(u16) -> usize,
    ) -> Option<Box<InvariantViolation>> {
        for (i, &live) in held.iter().enumerate() {
            if !live || self.suspect[i] {
                continue;
            }
            let p = PhysReg(i as u16);
            if tracker.remaining(p) != self.remaining[i] {
                return Some(Box::new(InvariantViolation {
                    cycle,
                    thread: Some(thread_of(i as u16)),
                    invariant: "use-counter",
                    detail: format!(
                        "{p}: tracker remaining={}, mirror={} (counter corrupted or \
                         decremented past zero)",
                        tracker.remaining(p),
                        self.remaining[i]
                    ),
                }));
            }
            if tracker.is_pinned(p) != self.pinned[i] {
                return Some(Box::new(InvariantViolation {
                    cycle,
                    thread: Some(thread_of(i as u16)),
                    invariant: "use-counter-pin",
                    detail: format!(
                        "{p}: tracker pinned={}, mirror pinned={}",
                        tracker.is_pinned(p),
                        self.pinned[i]
                    ),
                }));
            }
        }
        None
    }

    /// Audits the register cache: internal consistency and the SMT
    /// partition ([`RegisterCache::audit`]) plus the pinned-entry
    /// cross-check against the tracker. Fill-installed entries are
    /// exempt from the pin check — a pinned value evicted and later
    /// re-fetched legitimately re-enters unpinned with the fill default
    /// (§3.3), and so is any entry whose register the pool does not
    /// hold (`held`). `thread_of` names the thread that owns a physical
    /// register.
    pub(crate) fn check_cache(
        &self,
        cache: &RegisterCache,
        tracker: &UseTracker,
        held: &[bool],
        cycle: u64,
        thread_of: impl Fn(u16) -> usize,
    ) -> Option<Box<InvariantViolation>> {
        if let Err(detail) = cache.audit() {
            return Some(Box::new(InvariantViolation {
                cycle,
                thread: None,
                invariant: "cache-audit",
                detail,
            }));
        }
        for e in cache.entries() {
            if e.from_fill || !held[e.preg.0 as usize] {
                continue;
            }
            if tracker.is_pinned(e.preg) && !e.pinned {
                return Some(Box::new(InvariantViolation {
                    cycle,
                    thread: Some(thread_of(e.preg.0)),
                    invariant: "pinned-entry",
                    detail: format!(
                        "{}: tracker says pinned but the resident entry (set {}) is not",
                        e.preg, e.set
                    ),
                }));
            }
        }
        None
    }
}
