//! Stage-modular pipeline core.
//!
//! The cycle-level model is decomposed into explicit stage modules —
//! [`fetch`], [`rename`], [`issue`], [`execute`] (deferred events),
//! [`retire`], and [`squash`] — each an `impl` block over the shared
//! [`CoreState`]. Stages communicate only through `CoreState` fields
//! and the explicit inter-stage latches:
//!
//! * each thread's window ([`ThreadState::window`]) — fetch → rename →
//!   retire: every in-flight instruction, held once from fetch to
//!   retirement or squash. Its first `renamed` entries are the ROB;
//!   the rest are the fetch → rename latch, whose entries mature for
//!   `frontend_stages` cycles before rename fills them in place, and
//!   a full latch back-pressures fetch;
//! * the `sched` issue-slot array, in lockstep with the ROB — rename →
//!   issue: the issue window itself;
//! * [`EventLatch`] — issue → execute: deferred timed events (cache
//!   writes, fills, late bypass decrements, load retimes) that the
//!   issue stage schedules and the execute stage drains;
//! * [`ReplayLatch`] — issue → issue: cycles whose entire issue group
//!   replays (register-cache misses, load-hit mis-speculations).
//!
//! One cycle is the declarative [`SCHEDULE`]: a fixed list of stage
//! functions applied to the core in order. The within-cycle order is
//! part of the golden-snapshot contract — reordering stages is a model
//! change, not a refactor.

pub(crate) mod epoch;
pub(crate) mod execute;
pub(crate) mod fetch;
pub(crate) mod issue;
pub(crate) mod rename;
pub(crate) mod retire;
pub(crate) mod squash;

use crate::check::{Checker, DiagnosticDump, InvariantViolation, SimError};
use crate::config::{FreelistPolicy, SimConfig};
use crate::inject::Injector;
use crate::oracle::Oracle;
use crate::stats::{LifetimeCollector, SimResult};
use crate::trace::InstTrace;
use issue::SelectCursor;
use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use ubrc_core::{BackingFile, IndexAssigner, PhysReg, RegisterCache, TwoLevelFile, UseTracker};
use ubrc_emu::{ExecRecord, Machine};
use ubrc_frontend::{
    CascadingIndirect, DegreeOfUsePredictor, DirectionPredictor, GlobalHistory, ReturnAddressStack,
};
use ubrc_isa::Inst;
use ubrc_memsys::MemSys;

/// Per-value timing: when consumers may issue against this physical
/// register.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PregTime {
    pub(crate) known: bool,
    pub(crate) bypass_start: u64,
    pub(crate) bypass_end: u64,
    pub(crate) storage_avail: u64,
}

impl PregTime {
    pub(crate) const UNKNOWN: PregTime = PregTime {
        known: false,
        bypass_start: 0,
        bypass_end: 0,
        storage_avail: 0,
    };
    /// Available-from-storage-forever (initial architectural values).
    pub(crate) const ANCIENT: PregTime = PregTime {
        known: true,
        bypass_start: 0,
        bypass_end: 0,
        storage_avail: 0,
    };

    pub(crate) fn operand_ready(&self, now: u64) -> bool {
        self.known
            && now >= self.bypass_start
            && (now <= self.bypass_end || now >= self.storage_avail)
    }

    pub(crate) fn on_bypass(&self, now: u64) -> bool {
        now >= self.bypass_start && now <= self.bypass_end
    }

    /// Earliest cycle `>= t` at which the operand is readable.
    ///
    /// A lower bound, not a promise: the producer's timing can only be
    /// revised *later* (load-miss retimes, register-cache misses), so a
    /// consumer woken here re-checks and re-keys itself if needed.
    pub(crate) fn next_ready_at(&self, t: u64) -> u64 {
        if t < self.bypass_start {
            self.bypass_start
        } else if t <= self.bypass_end {
            t
        } else {
            t.max(self.storage_avail)
        }
    }
}

/// Deferred timed events with an O(1) "anything due?" fast path, so
/// quiet cycles skip the scan entirely.
///
/// Firing cycles run one index/`swap_remove` scan
/// ([`EventQueue::drain_due`]); its visit order is part of the
/// golden-snapshot contract.
pub(crate) struct EventQueue<T> {
    pub(crate) items: Vec<(u64, T)>,
    pub(crate) next_due: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            items: Vec::new(),
            next_due: u64::MAX,
        }
    }

    pub(crate) fn push(&mut self, at: u64, event: T) {
        self.next_due = self.next_due.min(at);
        self.items.push((at, event));
    }

    pub(crate) fn due(&self, now: u64) -> bool {
        now >= self.next_due
    }

    /// Removes every event due by `now` and hands it to `fire`, in scan
    /// order: a `swap_remove` moves the last event into the hole, which
    /// is visited next. The checker's `event-drain` invariant holds
    /// that no event is ever overdue, so "due" means due this cycle.
    pub(crate) fn drain_due(&mut self, now: u64, mut fire: impl FnMut(T)) {
        if !self.due(now) {
            return;
        }
        let mut i = 0;
        let mut next = u64::MAX;
        while i < self.items.len() {
            let at = self.items[i].0;
            if at <= now {
                fire(self.items.swap_remove(i).1);
            } else {
                next = next.min(at);
                i += 1;
            }
        }
        // Every survivor was examined exactly once, so `next` is the
        // exact minimum — no second pass needed.
        self.next_due = next;
    }

    pub(crate) fn refresh_due(&mut self) {
        self.next_due = self.items.iter().map(|e| e.0).min().unwrap_or(u64::MAX);
    }
}

/// Fibonacci-multiply hasher for the `u64` granule keys of
/// [`ThreadState::store_granules`]. Deterministic (no per-process
/// random seed) and a handful of instructions per probe, versus
/// SipHash's several dozen.
#[derive(Default)]
pub(crate) struct GranuleHasher(u64);

impl std::hash::Hasher for GranuleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

pub(crate) type GranuleMap = std::collections::HashMap<
    u64,
    Vec<(u64, Option<u64>)>,
    std::hash::BuildHasherDefault<GranuleHasher>,
>;

/// An in-flight instruction, held once in its thread's window from
/// fetch to retirement or squash. Fetch writes it; rename fills `seq`,
/// `dest` and `prev` in place and pushes its lockstep [`IssueSlot`],
/// which holds its age and sources. Its thread is the window holding
/// it, its execution class is `inst.class()`, and it reaches rename
/// `frontend_stages` cycles after `fetch_cycle`.
#[derive(Clone, Debug)]
pub(crate) struct DynInst {
    /// Per-thread sequence number (the thread's program order), set at
    /// rename.
    pub(crate) seq: u64,
    pub(crate) pc: u64,
    pub(crate) inst: Inst,
    /// Effective address of a load or store.
    pub(crate) mem_addr: Option<u64>,
    /// Cycle the result is ready, or [`NOT_ISSUED`].
    pub(crate) exec_done: u64,
    pub(crate) fetch_cycle: u64,
    /// The global history at fetch, for the degree-of-use predictor.
    pub(crate) hist: GlobalHistory,
    pub(crate) dest: Option<u16>,
    pub(crate) prev: Option<u16>,
    pub(crate) mispredicted: bool,
    /// Fetched down a mispredicted branch's predicted target.
    pub(crate) wrong_path: bool,
}

/// [`DynInst::exec_done`] sentinel for an instruction that has not
/// issued: later than every cycle, so it never looks complete.
pub(crate) const NOT_ISSUED: u64 = u64::MAX;

/// What the register cache keeps of a value beside its use counter:
/// its set, the bypasses its write decision sees (§3.1), and what its
/// degree-of-use entry trains on when it dies (§3.3).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CachedValue {
    pub(crate) set: u16,
    pub(crate) pre_write_bypasses: u32,
    /// Consumers renamed against the value: its actual degree of use.
    pub(crate) consumers: u32,
    /// The producer's pc and global history; `None` for initial
    /// architectural state and wrong-path values, which never complete
    /// a real lifetime (their *reads* still pollute use counts, §3.4).
    pub(crate) producer: Option<(u64, GlobalHistory)>,
}

/// What the two-level file's transfer eligibility (§5.5) needs of a
/// value: its renamed consumers yet to read it, and the instruction
/// that reassigned its architectural register.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TwoLevelValue {
    pub(crate) unread: u32,
    pub(crate) reassigned: Option<u64>,
}

/// The register cache over its backing file (§2.2), with the
/// degree-of-use machinery that decides what it keeps (§3.3).
pub(crate) struct CachedStorage {
    pub(crate) cache: RegisterCache,
    pub(crate) backing: BackingFile,
    pub(crate) assigner: IndexAssigner,
    pub(crate) tracker: UseTracker,
    /// One degree-of-use predictor per thread.
    pub(crate) douse: Vec<DegreeOfUsePredictor>,
    /// Indexed by physical register.
    pub(crate) values: Vec<CachedValue>,
}

// One `Storage` exists per simulator and it is accessed on every
// operand read in the issue loop; boxing the cached variant would
// trade this one-time size imbalance for a pointer chase on the hot
// path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Storage {
    Monolithic,
    Cached(CachedStorage),
    TwoLevel {
        file: TwoLevelFile,
        /// Indexed by physical register.
        values: Vec<TwoLevelValue>,
    },
}

impl Storage {
    /// Gives the new value in `p` its storage: a two-level L1 register,
    /// or the register cache's use count, set and predictor context.
    /// `producer` is the renaming thread and fetched instruction, or
    /// `None` for initial architectural state, which is written, owes
    /// no uses, and weighs one predicted use in its set's load.
    pub(crate) fn produce(
        &mut self,
        p: u16,
        producer: Option<(ThreadId, &DynInst)>,
        checker: Option<&mut Checker>,
    ) {
        let preg = PhysReg(p);
        match self {
            Storage::Monolithic => {}
            Storage::TwoLevel { file, values } => {
                // Dispatch checks the free count; validation fits the
                // architectural state.
                assert!(file.try_allocate(preg), "no free L1 register");
                values[p as usize] = TwoLevelValue::default();
            }
            Storage::Cached(c) => {
                let mut value = CachedValue::default();
                let uses = match producer {
                    None => {
                        c.tracker.init(preg, Some(0), 0, u8::MAX);
                        1
                    }
                    Some((tid, e)) => {
                        let cfg = c.cache.config();
                        let prediction = c.douse[tid].predict(e.pc, e.hist);
                        c.tracker
                            .init(preg, prediction, cfg.unknown_default, cfg.max_use_count);
                        value.producer = (!e.wrong_path).then_some((e.pc, e.hist));
                        c.tracker.predicted(preg)
                    }
                };
                if let Some(ck) = checker {
                    ck.on_init(p, c.tracker.remaining(preg), c.tracker.is_pinned(preg));
                }
                value.set = c.assigner.assign(preg, uses);
                c.values[p as usize] = value;
                c.cache.produce(preg);
            }
        }
    }
}

/// Issue → execute latch: deferred timed events. The issue stage
/// schedules them against future cycles; the execute stage drains the
/// due ones at the top of each cycle.
pub(crate) struct EventLatch {
    /// Initial cache writes: time -> (preg, generation); the value's
    /// set is the cache's [`CachedValue::set`]. The generation guards
    /// against a physical register being freed and reallocated before a
    /// stale event fires (possible when a producer retires in the same
    /// cycle its cache write is scheduled).
    pub(crate) writes: EventQueue<(u16, u32)>,
    /// Fills completing after a backing-file read.
    pub(crate) fills: EventQueue<(u16, u32)>,
    /// Second-stage bypass decrements applied after the write lands.
    pub(crate) bypass_decs: EventQueue<(u16, u32)>,
    /// Load-hit speculation: detect_time -> (preg, gen, true timing) —
    /// the destination's advertised timing is corrected at detection.
    pub(crate) retimes: EventQueue<(u16, u32, PregTime)>,
}

impl EventLatch {
    pub(crate) fn new() -> Self {
        EventLatch {
            writes: EventQueue::new(),
            fills: EventQueue::new(),
            bypass_decs: EventQueue::new(),
            retimes: EventQueue::new(),
        }
    }

    /// Each queue's name, length and earliest due cycle, recomputed
    /// from its events, for the watchdog dump and the `event-drain`
    /// invariant.
    pub(crate) fn summary(&self) -> [(&'static str, usize, Option<u64>); 4] {
        fn row<T>(name: &'static str, q: &EventQueue<T>) -> (&'static str, usize, Option<u64>) {
            (name, q.items.len(), q.items.iter().map(|e| e.0).min())
        }
        [
            row("pending_writes", &self.writes),
            row("pending_fills", &self.fills),
            row("pending_bypass_decs", &self.bypass_decs),
            row("pending_retimes", &self.retimes),
        ]
    }
}

/// Issue → issue replay latch: issue groups in these cycles are
/// squashed (register-cache misses and load-hit mis-speculations both
/// land here). A handful of near-future cycles at most, so a plain vec
/// beats a hash set.
pub(crate) struct ReplayLatch {
    pub(crate) cycles: Vec<u64>,
}

impl ReplayLatch {
    pub(crate) fn new() -> Self {
        ReplayLatch { cycles: Vec::new() }
    }

    pub(crate) fn mark(&mut self, cycle: u64) {
        if !self.cycles.contains(&cycle) {
            self.cycles.push(cycle);
        }
    }

    pub(crate) fn take(&mut self, now: u64) -> bool {
        match self.cycles.iter().position(|&c| c == now) {
            Some(i) => {
                self.cycles.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

/// Identifies one hardware thread context. Thread 0 is the only
/// context of a single-threaded core.
pub(crate) type ThreadId = usize;

/// [`IssueSlot::wake`] sentinel for a slot whose instruction has
/// issued: it can never become due again, so its armed bit is cleared
/// for good.
pub(crate) const SCHED_ISSUED: u64 = u64::MAX;

/// [`IssueSlot::wake`] sentinel for a slot parked on a producer whose
/// timing is unknown; its armed bit is clear until `preg_waiters`
/// re-arms it to a finite deadline when the producer issues.
pub(crate) const SCHED_PARKED: u64 = u64::MAX - 1;

/// [`IssueSlot::srcs`] sentinel for an unused operand slot.
pub(crate) const NO_SRC: u16 = u16::MAX;

/// The issue path's per-slot state, one per ROB entry in a dense deque
/// kept in lockstep with the renamed prefix of the thread's window.
/// This is the SoA split of the wake-up/select hot path: the select
/// walk, the waiter wake and the ready check touch only these 32 bytes
/// per slot, never the [`DynInst`] (whose fields are only needed once,
/// at issue). Whether the slot is armed lives beside it, one bit in the
/// thread's [`ArmedSlots`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct IssueSlot {
    /// Wake deadline: the earliest cycle the instruction's operands
    /// could be ready, or [`SCHED_ISSUED`] / [`SCHED_PARKED`].
    pub(crate) wake: u64,
    /// Global dispatch-order stamp, unique across threads: the age used
    /// for cross-thread oldest-first select and trace indexing. Equal
    /// to the instruction's `seq` in single-threaded runs.
    pub(crate) age: u64,
    /// Earliest cycle issue is permitted; replay squashes push it
    /// forward.
    pub(crate) earliest_issue: u64,
    /// Source pregs ([`NO_SRC`] for an unused operand slot).
    pub(crate) srcs: [u16; 2],
}

/// The select walk's armed-slot bitmap: one bit per window slot, set
/// exactly while the slot holds a finite wake deadline. Bits are kept
/// over absolute window positions (the thread's `retired` count plus
/// the slot's index), so retirement never shifts them, and walking the
/// set bits from `retired` visits a thread's armed slots in age order.
///
/// The words form a ring whose length is a power of two: position
/// `pos` is bit `pos % 64` of word `pos / 64` modulo the ring. The ring
/// spans at least the occupied window plus 63 positions, so a window
/// that does not start on a word boundary never wraps onto itself. It
/// grows with the window ([`ArmedSlots::fit`]), never from
/// `rob_entries`, which has no upper bound.
#[derive(Default)]
pub(crate) struct ArmedSlots {
    words: Vec<u64>,
}

impl ArmedSlots {
    fn word_index(&self, pos: u64) -> usize {
        (pos / 64) as usize & (self.words.len() - 1)
    }

    /// The word holding `pos`: the bits of positions `pos & !63` to
    /// `pos | 63`.
    pub(crate) fn word(&self, pos: u64) -> u64 {
        self.words[self.word_index(pos)]
    }

    pub(crate) fn contains(&self, pos: u64) -> bool {
        self.word(pos) >> (pos % 64) & 1 == 1
    }

    pub(crate) fn arm(&mut self, pos: u64) {
        let w = self.word_index(pos);
        self.words[w] |= 1 << (pos % 64);
    }

    pub(crate) fn disarm(&mut self, pos: u64) {
        let w = self.word_index(pos);
        self.words[w] &= !(1 << (pos % 64));
    }

    /// Set bits anywhere in the ring, for the `armed-slot` invariant.
    pub(crate) fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Makes room for the window `sched` from position `base`: if the
    /// ring spans fewer than `sched.len() + 63` positions, it grows to
    /// the smallest power-of-two length that does and re-arms every
    /// slot with a finite deadline.
    pub(crate) fn fit(&mut self, base: u64, sched: &VecDeque<IssueSlot>) {
        if sched.len() + 63 <= self.words.len() * 64 {
            return;
        }
        let n = (sched.len() + 63).div_ceil(64).next_power_of_two();
        self.words = vec![0; n];
        for (i, s) in sched.iter().enumerate() {
            if s.wake < SCHED_PARKED {
                self.arm(base + i as u64);
            }
        }
    }
}

/// One hardware thread context: everything the SMT front end
/// replicates (fetch stream, branch predictors, checkpoints, rename map) or
/// partitions (ROB slice), per the sharing matrix in DESIGN.md. The
/// register pool, issue window budget, execute units, register cache,
/// backing file, and memory hierarchy stay shared in [`CoreState`].
pub(crate) struct ThreadState {
    /// The thread's functional emulator, running ahead of the pipeline.
    pub(crate) machine: Machine,
    pub(crate) stream_done: bool,
    /// The record fetch stepped the emulator to but has not fetched
    /// yet (an I-cache miss stalled it): the one-record lookahead.
    pub(crate) peeked: Option<ExecRecord>,

    /// Next per-thread sequence number (the thread's program order;
    /// cross-thread age ordering uses `IssueSlot::age`).
    pub(crate) seq: u64,
    /// Instructions retired, which is also the absolute window position
    /// of `sched[0]` / `window[0]`: `armed` and `preg_waiters` name
    /// slots by absolute position (`retired + index`), so retirement
    /// pops never shift them.
    pub(crate) retired: u64,
    pub(crate) last_retired_seq: u64,
    pub(crate) halted: bool,

    // Front end (fully replicated).
    pub(crate) fetch_resume: u64,
    /// Seq of an unresolved mispredicted control inst stalling fetch.
    pub(crate) waiting_on_branch: Option<u64>,
    /// Wrong-path (speculative) fetch: the seq of the mispredicted
    /// branch whose predicted target fetch is following, set when fetch
    /// turns onto that path and cleared by the squash at the branch's
    /// resolution. `wp_ghist` and `wp_ras` hold the front end as it
    /// stood at the branch.
    pub(crate) wrong_path: Option<u64>,
    pub(crate) wp_ghist: GlobalHistory,
    pub(crate) wp_ras: ReturnAddressStack,
    pub(crate) ghist: GlobalHistory,
    pub(crate) branch_pred: DirectionPredictor,
    pub(crate) ras: ReturnAddressStack,
    pub(crate) indirect: CascadingIndirect,
    pub(crate) halt_fetched: bool,

    // Rename (replicated map over the core's register pool).
    pub(crate) map: Vec<u16>, // arch reg -> preg

    /// The thread's in-flight instructions in program order, each held
    /// once from fetch to retirement or squash. The first `renamed` are
    /// its ROB slice, with `sched` in lockstep (see `CoreState` docs);
    /// the rest are its fetch → rename latch. Retirement and squash
    /// walk only this thread's window, so one thread's misprediction
    /// never disturbs another's.
    pub(crate) window: VecDeque<DynInst>,
    pub(crate) renamed: usize,
    pub(crate) sched: VecDeque<IssueSlot>,
    /// Lower bound on the earliest finite deadline in `sched`. The
    /// select walk skips this thread entirely while `due_hint > now`
    /// (nothing can be due); every write of a finite deadline lowers
    /// it, and a walk that finds nothing due sets it exactly.
    pub(crate) due_hint: u64,
    /// The slots holding a finite wake deadline, one bit each: armed by
    /// rename, `rearm_wake` and `wake_preg_waiters`, disarmed when the
    /// slot issues, parks or is squashed. The select walk visits only
    /// these, not the whole window, which in pointer-chasing codes is
    /// dominated by parked and already-issued slots.
    pub(crate) armed: ArmedSlots,

    // Memory disambiguation: in-flight stores per 8-byte granule, in
    // program order -> (seq, exec_done once issued). Per-thread because
    // each context runs in its own address space (its own machine) —
    // stores never forward across threads. Probed on every load/store
    // in rename, issue, and retire, so it uses a cheap multiplicative
    // hasher instead of SipHash; the map is only ever keyed (never
    // iterated), so the hash function cannot affect simulated timing.
    pub(crate) store_granules: GranuleMap,

    /// A fork of `machine` stepped once per retirement, so it always
    /// sits exactly at this thread's retired architectural state. The
    /// oracle checks each retiring record against its step, and a
    /// machine check restores `machine` from it. `None` unless the
    /// oracle or protection is on.
    pub(crate) retired_machine: Option<Box<Machine>>,
    /// Lockstep co-simulation oracle (`check.oracle`): each window
    /// entry's full record, and the recent retirements its divergence
    /// report replays.
    pub(crate) oracle: Option<Oracle>,

    // Soft-error recovery (protected storage only).
    /// Recoveries performed for this thread (scrubs, re-fills, and
    /// machine checks).
    pub(crate) recoveries: u64,
    /// Machine-check squashes among those recoveries.
    pub(crate) machine_checks: u64,
    /// Cycle of the most recent recovery.
    pub(crate) last_recovery: Option<u64>,
    /// Cycle a machine-check squash fired, pending its first
    /// post-recovery retirement (measures full replay latency).
    pub(crate) recovery_pending_since: Option<u64>,
}

impl ThreadState {
    /// The ROB slice: the renamed prefix of the window.
    pub(crate) fn rob(&self) -> std::collections::vec_deque::Iter<'_, DynInst> {
        self.window.range(..self.renamed)
    }

    /// Entries fetched but not yet renamed: the fetch → rename latch.
    pub(crate) fn latch_len(&self) -> usize {
        self.window.len() - self.renamed
    }
}

/// The physical registers rename allocates from. Under
/// [`FreelistPolicy::Partitioned`] each thread has one free list over
/// its own `phys_regs / nthreads` slice, capped at the slice, so one
/// thread exhausting its registers can never take another's; under
/// [`FreelistPolicy::Shared`] all threads pop one list, and the cap
/// keeps one thread from starving the rest.
pub(crate) struct RegPool {
    /// Free registers, popped at rename: one list per thread, or one
    /// list every thread shares.
    pub(crate) free: Vec<Vec<u16>>,
    /// preg -> the thread holding it, written at every allocation.
    /// Exact for every live register and for every register on a
    /// thread's own list; a register on a shared list names its last
    /// holder, or thread 0.
    pub(crate) owner: Vec<u16>,
    /// preg -> whether it holds a live value (allocated, not yet freed).
    pub(crate) held: Vec<bool>,
    /// Live registers per thread (architectural mappings included).
    pub(crate) live: Vec<usize>,
    /// Per-thread cap on `live`.
    pub(crate) cap: usize,
}

impl RegPool {
    pub(crate) fn new(policy: FreelistPolicy, npregs: usize, nthreads: usize) -> Self {
        let (lists, cap) = match policy {
            FreelistPolicy::Partitioned => (nthreads, npregs / nthreads),
            FreelistPolicy::Shared { cap } => (1, cap),
        };
        let slice = npregs / lists;
        RegPool {
            // Reversed, so each list pops its lowest register first.
            free: (0..lists)
                .map(|l| {
                    (l * slice..(l + 1) * slice)
                        .rev()
                        .map(|p| p as u16)
                        .collect()
                })
                .collect(),
            owner: (0..npregs).map(|p| (p / slice) as u16).collect(),
            held: vec![false; npregs],
            live: vec![0; nthreads],
            cap,
        }
    }

    /// The free list thread `tid` allocates from and releases into.
    pub(crate) fn list(&self, tid: ThreadId) -> usize {
        tid.min(self.free.len() - 1)
    }

    /// Whether thread `tid` can rename a destination: its list is not
    /// dry and it is below the cap.
    pub(crate) fn can_alloc(&self, tid: ThreadId) -> bool {
        !self.free[self.list(tid)].is_empty() && self.live[tid] < self.cap
    }

    pub(crate) fn alloc(&mut self, tid: ThreadId) -> u16 {
        let l = self.list(tid);
        let p = self.free[l].pop().expect("rename checked can_alloc");
        self.owner[p as usize] = tid as u16;
        self.held[p as usize] = true;
        self.live[tid] += 1;
        p
    }

    /// Returns `p` to its holder's list, and names the holder.
    pub(crate) fn release(&mut self, p: u16) -> ThreadId {
        debug_assert!(self.held[p as usize], "freeing an inactive preg");
        self.held[p as usize] = false;
        let tid = self.owner[p as usize] as ThreadId;
        self.live[tid] -= 1;
        let l = self.list(tid);
        self.free[l].push(p);
        tid
    }
}

/// The shared pipeline state every stage operates on: the hardware
/// thread contexts, architectural substrate models, per-value
/// bookkeeping, the inter-stage latches, and statistics.
pub(crate) struct CoreState {
    pub(crate) config: SimConfig,
    /// The hardware thread contexts (one for single-threaded runs).
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) pool: RegPool,
    /// Last thread granted a fetch slot, for
    /// [`crate::FetchPolicy::RoundRobin`] rotation.
    pub(crate) last_fetch_tid: ThreadId,

    pub(crate) now: u64,
    /// Global dispatch-order counter: stamps every renamed instruction
    /// with a cross-thread age (`IssueSlot::age`).
    pub(crate) age: u64,
    pub(crate) last_progress: u64,

    // Shared per-value timing, indexed by physical register (each
    // register is held by one thread at a time; see `RegPool`). What
    // else a value needs lives with the storage or the collector that
    // reads it.
    pub(crate) preg_time: Vec<PregTime>,

    // Shared issue-window occupancy across all threads' ROB slices.
    pub(crate) window_count: usize,

    // Event-driven wake-up/select. `threads[t].sched[i]` is
    // `threads[t].window[i]`'s [`IssueSlot`]: its wake deadline (the
    // earliest cycle its operands could be ready, a lower bound
    // derived from its sources' `PregTime`, or a sentinel —
    // [`SCHED_ISSUED`] once it has issued, [`SCHED_PARKED`] while it
    // is parked on a producer whose timing is unknown, re-armed from
    // `preg_waiters` when the producer issues) plus the compact
    // ready-check fields. Kept as a dense parallel array so the
    // per-cycle select walk and ready check stay inside these slots
    // instead of walking the window's `DynInst` entries;
    // `ThreadState::due_hint` and `ThreadState::armed` reduce the walk
    // to armed deadlines only.
    // `preg_waiters` holds each parked consumer's (absolute window
    // position, age); the owning thread is the register's holder in
    // the pool, and the unique age tells a live waiter from a retired
    // or squashed one whose position was reused.
    pub(crate) preg_waiters: Vec<Vec<(u64, u64)>>,
    // Reused per-cycle scratch (hoisted allocations): the per-thread
    // cursors of the select merge, and (seq, tid, idx) for the issue
    // group.
    pub(crate) cursors: Vec<SelectCursor>,
    pub(crate) selected_buf: Vec<(u64, u32, u32)>,

    // Storage under test (shared: the register cache, backing file, and
    // set assigner serve every thread's values; only the degree-of-use
    // predictors inside it are per thread).
    pub(crate) storage: Storage,

    // Inter-stage latches (see module docs). The event and replay
    // latches are shared: a register-cache miss squashes the whole
    // issue group regardless of thread (one shared cache port).
    pub(crate) events: EventLatch,
    pub(crate) replay: ReplayLatch,
    pub(crate) preg_gen: Vec<u32>,

    pub(crate) memsys: MemSys,

    // Statistics.
    /// The run's counters and series (branch and operand counts, replay
    /// and recovery tallies, the epoch timeline), accumulated in place;
    /// [`CoreState::finish`] fills in the rest.
    pub(crate) result: SimResult,
    pub(crate) lifetimes: Option<LifetimeCollector>,
    pub(crate) trace: Vec<InstTrace>,

    // Runtime checking and fault injection (`SimConfig::check` /
    // `SimConfig::fault_plan`). All observation-only except the
    // injector, whose whole point is corrupting live state. The
    // per-thread oracles live in `ThreadState`.
    pub(crate) checker: Option<Checker>,
    pub(crate) injector: Option<Injector>,
    pub(crate) error: Option<Box<SimError>>,
    pub(crate) cancel: Option<Arc<AtomicBool>>,

    // Soft-error recovery (protected storage only).
    /// A backing-word parity error was detected during issue; the
    /// machine-check squash runs after the issue loop releases its
    /// borrows.
    pub(crate) pending_machine_check: Option<ThreadId>,
    /// The watchdog already spent its one forced recovery squash; the
    /// next trip is a real deadlock.
    pub(crate) forced_recovery: bool,

    /// Per-stage self-profiling (`SimConfig::profile`): `None` — the
    /// default — keeps `cycle()` on the original untimed loop, so
    /// profiling is zero-cost when off.
    pub(crate) profiler: Option<Box<StageProfiler>>,
}

/// Number of stages in [`SCHEDULE`].
pub(crate) const NSTAGES: usize = SCHEDULE.len();

/// Per-stage wall-time and call-count attribution, accumulated by
/// [`CoreState::cycle`] when profiling is enabled. Indexed in
/// [`SCHEDULE`] order; the stage names come from the schedule itself at
/// report time.
#[derive(Clone, Debug)]
pub(crate) struct StageProfiler {
    /// Total wall nanoseconds spent inside each stage function.
    pub(crate) nanos: [u64; NSTAGES],
    /// Invocations of each stage function (one per cycle per stage).
    pub(crate) calls: [u64; NSTAGES],
}

impl StageProfiler {
    pub(crate) fn new() -> Self {
        Self {
            nanos: [0; NSTAGES],
            calls: [0; NSTAGES],
        }
    }

    /// Renders the accumulated attribution as the public per-stage
    /// profile rows, in schedule order.
    pub(crate) fn finish(&self) -> crate::stats::StageProfile {
        crate::stats::StageProfile {
            stages: SCHEDULE
                .iter()
                .zip(self.nanos.iter().zip(&self.calls))
                .map(|(stage, (&nanos, &calls))| crate::stats::StageSample {
                    name: stage.name,
                    nanos,
                    calls,
                })
                .collect(),
        }
    }
}

/// One entry of the declarative cycle schedule.
pub(crate) struct StageDesc {
    /// Stage name, for schedule introspection (the schedule-order test)
    /// and the per-stage self-profiling report.
    pub(crate) name: &'static str,
    /// The stage function, applied to the core with the current cycle.
    pub(crate) run: fn(&mut CoreState, u64),
}

/// The cycle schedule: every stage, in the exact order the monolithic
/// `cycle()` always ran them. The order is part of the golden-snapshot
/// contract.
pub(crate) const SCHEDULE: &[StageDesc] = &[
    StageDesc {
        name: "inject",
        run: CoreState::inject_stage,
    },
    StageDesc {
        name: "execute",
        run: CoreState::execute_stage,
    },
    StageDesc {
        name: "retire",
        run: CoreState::retire,
    },
    StageDesc {
        name: "issue",
        run: CoreState::issue,
    },
    StageDesc {
        name: "rename",
        run: CoreState::dispatch,
    },
    StageDesc {
        name: "fetch",
        run: CoreState::fetch,
    },
    StageDesc {
        name: "storage-tick",
        run: CoreState::storage_tick,
    },
    // Last, after the cycle's reads and writes have landed: the epoch
    // controller for dynamic cache repartitioning (a no-op unless
    // `CachePartition::DynamicCap` is active, so the seven-stage
    // golden contract above is unchanged for every static policy).
    StageDesc {
        name: "epoch",
        run: CoreState::epoch_stage,
    },
];

impl CoreState {
    /// Runs one cycle: every stage of [`SCHEDULE`], then advances time.
    /// With profiling enabled the loop also attributes wall time and a
    /// call count to each stage; the profiler is taken out of `self`
    /// for the duration so the stage functions keep their exclusive
    /// borrow, and the untimed loop below stays the exact original hot
    /// path when profiling is off.
    pub(crate) fn cycle(&mut self) {
        let now = self.now;
        if let Some(mut prof) = self.profiler.take() {
            for (k, stage) in SCHEDULE.iter().enumerate() {
                let t0 = std::time::Instant::now();
                (stage.run)(self, now);
                prof.nanos[k] += t0.elapsed().as_nanos() as u64;
                prof.calls[k] += 1;
            }
            self.profiler = Some(prof);
        } else {
            for stage in SCHEDULE {
                (stage.run)(self, now);
            }
        }
        self.now += 1;
    }

    /// The two-level file's background transfer engine advances at the
    /// end of every cycle.
    fn storage_tick(&mut self, _now: u64) {
        if let Storage::TwoLevel { file, .. } = &mut self.storage {
            file.tick();
        }
    }

    /// The thread holding a live physical register.
    #[inline]
    pub(crate) fn thread_of_preg(&self, p: u16) -> ThreadId {
        self.pool.owner[p as usize] as ThreadId
    }

    /// Total retirements across all threads (budget + IPC).
    pub(crate) fn retired(&self) -> u64 {
        self.threads.iter().map(|t| t.retired).sum()
    }

    /// All threads halted.
    pub(crate) fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Total ROB occupancy across all thread slices (the shared ROB
    /// capacity applies to the sum).
    #[inline]
    pub(crate) fn rob_len_total(&self) -> usize {
        self.threads.iter().map(|t| t.renamed).sum()
    }

    /// How many fetched, unrenamed entries a thread's window may hold:
    /// a fetch block for each front-end stage and one for rename.
    pub(crate) fn latch_cap(&self) -> usize {
        self.config.fetch_width * (self.config.frontend_stages as usize + 1)
    }

    /// Books one completed recovery for `tid`: `latency` cycles were
    /// spent restoring state the fault destroyed.
    pub(crate) fn note_recovery(&mut self, tid: ThreadId, now: u64, latency: u64) {
        let t = &mut self.threads[tid];
        t.recoveries += 1;
        t.last_recovery = Some(now);
        self.result.recovery_cycles += latency;
        self.result.recovery_latency.record(latency);
    }

    /// Snapshot of the stuck machine for the watchdog report.
    pub(crate) fn diagnostic_dump(&self) -> Box<DiagnosticDump> {
        let rob_head = self
            .threads
            .iter()
            .enumerate()
            .flat_map(|(tid, t)| {
                t.rob().enumerate().take(8).map(move |(i, inst)| {
                    let slot = &t.sched[i];
                    let deadline = if slot.wake < SCHED_PARKED {
                        slot.wake.to_string()
                    } else {
                        "-".to_string()
                    };
                    format!(
                        "t{tid} seq {:>8} pc {:#08x} `{}` {} earliest_issue {} wake {}",
                        inst.seq,
                        inst.pc,
                        inst.inst,
                        if inst.exec_done == NOT_ISSUED {
                            "Waiting"
                        } else {
                            "Issued"
                        },
                        slot.earliest_issue,
                        deadline
                    )
                })
            })
            .collect();
        let threads = self
            .threads
            .iter()
            .enumerate()
            .map(|(tid, t)| {
                let recovery = match t.last_recovery {
                    Some(at) => format!(
                        ", recovered {} (mc {}, last @ {at})",
                        t.recoveries, t.machine_checks
                    ),
                    None => String::new(),
                };
                format!(
                    "t{tid}: retired {} (last seq {}), rob {}, fetchq {}, free pregs {}{}{}{}{}",
                    t.retired,
                    t.last_retired_seq,
                    t.renamed,
                    t.latch_len(),
                    self.pool.free[self.pool.list(tid)].len(),
                    if t.halted { ", halted" } else { "" },
                    if t.wrong_path.is_some() {
                        ", wrong-path"
                    } else {
                        ""
                    },
                    if t.waiting_on_branch.is_some() {
                        ", waiting-on-branch"
                    } else {
                        ""
                    },
                    recovery,
                )
            })
            .collect();
        let mut event_queues: Vec<String> = self
            .events
            .summary()
            .into_iter()
            .map(|(name, items, next)| {
                let next = next.map_or("-".to_string(), |t| t.to_string());
                format!("{name}: {items} queued, next due {next}")
            })
            .collect();
        event_queues.push(format!("squash_cycles: {:?}", self.replay.cycles));
        let dynamic_caps = match &self.storage {
            Storage::Cached(c) => c.cache.dynamic_caps().map(<[usize]>::to_vec),
            _ => None,
        };
        Box::new(DiagnosticDump {
            cycle: self.now,
            last_progress: self.last_progress,
            retired: self.retired(),
            fetch_queue: self.threads.iter().map(ThreadState::latch_len).sum(),
            window_count: self.window_count,
            threads,
            rob_head,
            event_queues,
            recoveries: self.threads.iter().map(|t| t.recoveries).sum(),
            machine_checks: self.threads.iter().map(|t| t.machine_checks).sum(),
            last_recovery: self.threads.iter().filter_map(|t| t.last_recovery).max(),
            epochs: self.result.epoch_timeline.len() as u64,
            dynamic_caps,
        })
    }

    /// End-of-cycle invariant audit (`check.invariants`). Read-only:
    /// returns the first violation found, if any.
    pub(crate) fn check_invariants(&self) -> Option<Box<InvariantViolation>> {
        let cycle = self.now.saturating_sub(1);
        let viol = |thread: Option<usize>, invariant: &'static str, detail: String| {
            Some(Box::new(InvariantViolation {
                cycle,
                thread,
                invariant,
                detail,
            }))
        };
        // One walk over every window: count the waiting instructions,
        // and hold that a slot's armed bit is set exactly when the
        // slot is live with a finite deadline, with no bit set outside
        // the window.
        let mut waiting = 0;
        for (tid, t) in self.threads.iter().enumerate() {
            if t.sched.len() != t.renamed || t.renamed > t.window.len() {
                return viol(
                    Some(tid),
                    "sched-rob-lockstep",
                    format!(
                        "{} wake deadlines for {} renamed of {} window entries",
                        t.sched.len(),
                        t.renamed,
                        t.window.len()
                    ),
                );
            }
            if t.latch_len() > self.latch_cap() {
                return viol(
                    Some(tid),
                    "fetch-latch",
                    format!(
                        "{} unrenamed entries exceed the latch's {}",
                        t.latch_len(),
                        self.latch_cap()
                    ),
                );
            }
            if let Some(o) = &t.oracle {
                if o.records.len() != t.window.len() {
                    return viol(
                        Some(tid),
                        "fetch-latch",
                        format!(
                            "{} oracle records for {} window entries",
                            o.records.len(),
                            t.window.len()
                        ),
                    );
                }
            }
            let mut armed = 0;
            for (i, (inst, slot)) in t.rob().zip(&t.sched).enumerate() {
                waiting += usize::from(inst.exec_done == NOT_ISSUED);
                let pos = t.retired + i as u64;
                let finite = slot.wake < SCHED_PARKED;
                armed += u32::from(finite);
                if finite != t.armed.contains(pos) {
                    let wake = match slot.wake {
                        SCHED_ISSUED => "issued".to_string(),
                        SCHED_PARKED => "parked".to_string(),
                        w => format!("due at {w}"),
                    };
                    return viol(
                        Some(tid),
                        "armed-slot",
                        format!(
                            "seq {} at window position {pos} is {wake} but its armed bit is {}",
                            inst.seq,
                            if finite { "clear" } else { "set" }
                        ),
                    );
                }
            }
            if t.armed.count() != armed {
                return viol(
                    Some(tid),
                    "armed-slot",
                    format!(
                        "{} armed bits for {armed} slots with a finite deadline",
                        t.armed.count()
                    ),
                );
            }
        }
        if waiting != self.window_count {
            return viol(
                None,
                "window-count",
                format!(
                    "{waiting} waiting instructions but window_count={}",
                    self.window_count
                ),
            );
        }
        // Register-pool accounting: every live register is charged to
        // its holder, no thread exceeds the cap, live and free registers
        // make up the file, and a thread maps, or keeps on a free list of
        // its own, only registers it holds.
        let pool = &self.pool;
        let mut live = vec![0usize; self.threads.len()];
        for (p, &held) in pool.held.iter().enumerate() {
            if held {
                live[self.thread_of_preg(p as u16)] += 1;
            }
        }
        for (tid, (&counted, &tracked)) in live.iter().zip(&pool.live).enumerate() {
            if counted != tracked {
                return viol(
                    Some(tid),
                    "pool-accounting",
                    format!("{counted} live registers held but the pool tracks {tracked}"),
                );
            }
            if tracked > pool.cap {
                return viol(
                    Some(tid),
                    "pool-cap",
                    format!("{tracked} live registers exceed the cap of {}", pool.cap),
                );
            }
        }
        let total_live: usize = live.iter().sum();
        let free: usize = pool.free.iter().map(Vec::len).sum();
        if total_live + free != pool.held.len() {
            return viol(
                None,
                "pool-accounting",
                format!(
                    "{total_live} live + {free} free != {} physical registers",
                    pool.held.len()
                ),
            );
        }
        let own_lists = pool.free.len() == self.threads.len();
        for (tid, t) in self.threads.iter().enumerate() {
            let own_free = if own_lists { &pool.free[tid][..] } else { &[] };
            let held_elsewhere = |p: &&u16| self.thread_of_preg(**p) != tid;
            if let Some(&p) = t.map.iter().chain(own_free).find(held_elsewhere) {
                return viol(
                    Some(tid),
                    "pool-owner",
                    format!(
                        "rename map or free list holds p{p}, held by thread {}",
                        self.thread_of_preg(p)
                    ),
                );
            }
        }
        // A squash unwinds the rename map one mapping at a time; a stale
        // mapping it left behind would name a freed register.
        for (tid, t) in self.threads.iter().enumerate() {
            if let Some(&p) = t.map.iter().find(|&&p| !pool.held[p as usize]) {
                return viol(
                    Some(tid),
                    "rename-map-live",
                    format!("rename map holds p{p}, which is not active"),
                );
            }
        }
        // Event queues drain monotonically: everything due by the cycle
        // just completed must have been consumed by its processor.
        for (name, _, min_due) in self.events.summary() {
            if let Some(t) = min_due.filter(|&t| t <= cycle) {
                return viol(
                    None,
                    "event-drain",
                    format!("{name} still holds an event due at cycle {t}"),
                );
            }
        }
        if let Storage::Cached(c) = &self.storage {
            if let Some(ck) = &self.checker {
                let thread_of = |p| self.thread_of_preg(p);
                if let Some(v) = ck.check_tracker(&c.tracker, &pool.held, cycle, thread_of) {
                    return Some(v);
                }
                if let Some(v) = ck.check_cache(&c.cache, &c.tracker, cycle, thread_of) {
                    return Some(v);
                }
                for o in &ck.fill_obligations {
                    if o.due <= cycle
                        && self.preg_gen[o.preg as usize] == o.gen
                        && pool.held[o.preg as usize]
                    {
                        return viol(
                            Some(self.thread_of_preg(o.preg)),
                            "fill-obligation",
                            format!(
                                "fill for p{} scheduled for cycle {} never applied",
                                o.preg, o.due
                            ),
                        );
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_preserves_the_historical_cycle_order() {
        let names: Vec<&str> = SCHEDULE.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "inject",
                "execute",
                "retire",
                "issue",
                "rename",
                "fetch",
                "storage-tick",
                "epoch"
            ],
            "the within-cycle stage order is part of the golden-snapshot contract"
        );
    }

    /// The window entry holds only what the pipeline reads after fetch
    /// and repeats nothing its lockstep issue slot holds, and the slot
    /// stays within half a cache line.
    #[test]
    fn rob_entry_and_issue_slot_stay_small() {
        assert!(std::mem::size_of::<DynInst>() <= 80);
        assert_eq!(std::mem::size_of::<IssueSlot>(), 32);
    }

    /// Filling a window slot by slot as rename does, from position 127
    /// (the last bit of a word): the 66th slot outgrows the two-word
    /// ring, and in that ring its word is the window's first word. The
    /// larger ring must hold exactly the slots with a finite deadline.
    #[test]
    fn armed_slots_grow_without_stray_bits() {
        let base = 127;
        let mut sched = VecDeque::new();
        let mut armed = ArmedSlots::default();
        for i in 0..66 {
            let wake = match i {
                1 => SCHED_PARKED,
                2 => SCHED_ISSUED,
                _ => 5,
            };
            sched.push_back(IssueSlot {
                wake,
                age: i,
                earliest_issue: 0,
                srcs: [NO_SRC; 2],
            });
            armed.fit(base, &sched);
            if wake < SCHED_PARKED {
                armed.arm(base + i);
            }
            if i == 64 {
                assert_eq!(armed.words.len(), 2);
            }
        }
        assert_eq!(armed.words.len(), 4);
        assert_eq!(armed.count(), 64);
        for (i, s) in sched.iter().enumerate() {
            let pos = base + i as u64;
            assert_eq!(armed.contains(pos), s.wake < SCHED_PARKED, "position {pos}");
        }
        assert!(!armed.contains(255));
    }
}
