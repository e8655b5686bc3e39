//! The cycle-level out-of-order pipeline model.
//!
//! Execution-driven, functional-first: one emulator (`ubrc-emu`) per
//! hardware thread runs ahead and supplies
//! [`ExecRecord`](ubrc_emu::ExecRecord)s; this model charges cycles.
//! The pipeline implements the machine of Table 1 — 8-wide fetch with
//! one taken branch per block, an 11-stage front end, a 128-entry issue
//! window with oldest-ready-first issue, 512 physical registers, a
//! two-stage bypass network, the Alpha-21264-style register-cache miss
//! replay model (§5.2), and retirement at 8 per cycle (≤2 stores).
//!
//! The stage logic itself lives in the [`crate::stage`] modules
//! (`fetch`, `rename`, `issue`, `execute`, `retire`, `squash`), each an
//! `impl` block over the shared `CoreState`; one cycle is the
//! declarative stage schedule (`stage::SCHEDULE`). This module owns
//! construction and the run loop.
//!
//! SMT: [`Simulator::try_new_smt`] co-schedules several programs on one
//! core. Each context gets a replicated front end
//! ([`crate::stage::ThreadState`]) and renames from the register pool,
//! an even slice of the physical-register file per thread by default;
//! the issue window, execute units, register cache, backing file, and
//! memory hierarchy are shared. With one program the construction and
//! cycle-level behavior reduce exactly to the classic single-threaded
//! core.
//!
//! Timing rules (derived from Figure 3; see DESIGN.md):
//!
//! * a consumer may issue `X` cycles after its producer (X = producer
//!   execute latency) and catch the result on the bypass network for
//!   `bypass_stages` consecutive issue slots;
//! * later consumers read storage: a 1-cycle register cache (which may
//!   miss) or the multi-cycle monolithic file (readable only once the
//!   producer's write completes — the issue-restriction gap of §2.2);
//! * a cache miss squashes every instruction issued in the following
//!   cycle and fetches the value through the backing file's single
//!   read port, waiting out the producer's backing-file write.

use crate::check::{Checker, ConfigError, SimError};
use crate::config::{BranchPredictorKind, FreelistPolicy, RegStorage, SimConfig};
use crate::inject::Injector;
use crate::oracle::Oracle;
use crate::stage::{
    ArmedSlots, CoreState, EventLatch, FetchLatch, PregInfo, PregTime, RegPool, ReplayLatch,
    StageProfiler, Storage, ThreadState, NO_SRC,
};
use crate::stats::{LifetimeCollector, SimResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use ubrc_core::{
    BackingFile, IndexAssigner, IndexPolicy, PhysReg, RegisterCache, TwoLevelFile, UseTracker,
};
use ubrc_emu::Machine;
use ubrc_frontend::{
    Bimodal, CascadingIndirect, DegreeOfUsePredictor, DirectionPredictor, GlobalHistory, Gshare,
    ReturnAddressStack, Yags,
};
use ubrc_isa::Program;
use ubrc_memsys::MemSys;

/// The simulator: the shared pipeline core plus the run loop.
pub struct Simulator {
    pub(crate) core: CoreState,
}

impl Simulator {
    /// Validates the `(programs, config)` combination without building
    /// anything, returning the first problem found.
    fn validate_smt(nprograms: usize, config: &SimConfig) -> Result<(), ConfigError> {
        let nthreads = nprograms;
        if nthreads == 0 {
            return Err(ConfigError::NoPrograms);
        }
        // A zero here leaves an instruction that can never fetch,
        // issue, enter the window or retire.
        let fu = &config.fu;
        for (field, value) in [
            ("fetch_width", config.fetch_width),
            ("issue_width", config.issue_width),
            ("retire_width", config.retire_width),
            ("max_stores_per_retire", config.max_stores_per_retire),
            ("window_entries", config.window_entries),
            ("rob_entries", config.rob_entries),
            ("fu.int_alu", fu.int_alu),
            ("fu.branch", fu.branch),
            ("fu.int_mul", fu.int_mul),
            ("fu.fp_alu", fu.fp_alu),
            ("fu.fp_mul", fu.fp_mul),
            ("fu.load", fu.load),
            ("fu.store", fu.store),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroWidth { field });
            }
        }
        let npregs = config.phys_regs;
        let narch = ubrc_isa::NUM_ARCH_REGS as usize;
        // Register ids are u16, and the top id marks an unused operand.
        if npregs > NO_SRC as usize {
            return Err(ConfigError::TooManyPhysRegs {
                phys_regs: npregs,
                max: NO_SRC as usize,
            });
        }
        if !npregs.is_multiple_of(nthreads) {
            return Err(ConfigError::UnevenPartition {
                phys_regs: npregs,
                nthreads,
            });
        }
        let partition = npregs / nthreads;
        if partition <= narch {
            return Err(ConfigError::PartitionTooSmall {
                partition,
                arch_regs: narch,
            });
        }
        if let RegStorage::Cached { cache, .. } = &config.storage {
            cache.validate(nthreads).map_err(ConfigError::Cache)?;
            if config.backing_read_ports == 0 {
                return Err(ConfigError::ZeroWidth {
                    field: "backing_read_ports",
                });
            }
        }
        if config.filter_params.is_some() {
            // Only filtered round-robin indexing reads them; anywhere
            // else they would silently change nothing.
            if !matches!(
                config.storage,
                RegStorage::Cached {
                    index: IndexPolicy::FilteredRoundRobin,
                    ..
                }
            ) {
                return Err(ConfigError::FilterWithoutFilteredIndex);
            }
        }
        if let RegStorage::TwoLevel(tl) = &config.storage {
            if tl.transfers_per_cycle == 0 {
                return Err(ConfigError::ZeroWidth {
                    field: "transfers_per_cycle",
                });
            }
            if nthreads > 1 {
                // Its transfer-eligibility bookkeeping is keyed by a
                // single program order.
                return Err(ConfigError::TwoLevelSmt { nthreads });
            }
            if tl.l1_entries <= narch {
                return Err(ConfigError::L1TooSmall {
                    l1_entries: tl.l1_entries,
                    required: narch + 1,
                });
            }
        }
        config.douse.validate().map_err(ConfigError::Douse)?;
        config.memsys.validate().map_err(ConfigError::MemSys)?;
        if let FreelistPolicy::Shared { cap } = config.freelist {
            if cap <= narch {
                return Err(ConfigError::SharedFreelistCapTooSmall {
                    cap,
                    arch_regs: narch,
                });
            }
            if let RegStorage::Cached { cache, .. } = &config.storage {
                if nthreads > 1 && cache.partition != ubrc_core::CachePartition::Shared {
                    return Err(ConfigError::SharedFreelistWithPartitionedCache);
                }
            }
        }
        if let Some(plan) = &config.fault_plan {
            plan.validate(npregs, config.storage.protected())
                .map_err(ConfigError::FaultPlan)?;
        }
        Ok(())
    }

    /// Builds a simulator co-scheduling one program per hardware
    /// thread (one program is the classic single-threaded core).
    /// `config.freelist` divides the physical registers between the
    /// contexts.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the `(programs, config)`
    /// combination violates.
    pub fn try_new_smt(programs: Vec<Program>, config: SimConfig) -> Result<Self, ConfigError> {
        Self::validate_smt(programs.len(), &config)?;
        let nthreads = programs.len();
        let npregs = config.phys_regs;
        let narch = ubrc_isa::NUM_ARCH_REGS as usize;

        let mut checker = config.check.invariants.then(|| Checker::new(npregs));
        let injector = config.fault_plan.as_ref().map(Injector::new);
        let mut pool = RegPool::new(config.freelist, npregs, nthreads);

        let mut storage = match &config.storage {
            RegStorage::Monolithic { write_latency, .. } => Storage::Monolithic {
                write_latency: *write_latency,
            },
            RegStorage::Cached {
                cache,
                index,
                backing_read,
                backing_write,
            } => {
                let mut assigner = IndexAssigner::new(*index, cache.sets(), cache.ways);
                if let Some((degree, skip)) = config.filter_params {
                    assigner.set_filter_params(degree, skip);
                }
                Storage::Cached {
                    // The cache splits pregs between threads statically,
                    // so it sees one thread per pool list: a shared list
                    // hands any register to any thread.
                    cache: RegisterCache::new_smt(*cache, npregs, pool.free.len()),
                    backing: BackingFile::with_read_ports(
                        *backing_read,
                        *backing_write,
                        npregs,
                        config.backing_read_ports,
                    ),
                    assigner,
                    tracker: UseTracker::new(npregs),
                }
            }
            RegStorage::TwoLevel(tl) => Storage::TwoLevel {
                file: TwoLevelFile::new(*tl, npregs),
            },
        };

        let mut preg_time = vec![PregTime::UNKNOWN; npregs];
        let mut preg_info = vec![PregInfo::EMPTY; npregs];
        let mut threads = Vec::with_capacity(nthreads);
        for (tid, program) in programs.into_iter().enumerate() {
            let machine = Machine::new(program);
            // The retired-state machine forks the thread's machine: same
            // shared program, fresh architectural state — no deep copy
            // of the instruction stream. Only the oracle and machine-check
            // recovery read it.
            let retired_machine = (config.check.oracle || config.storage.protected())
                .then(|| Box::new(machine.fork_fresh()));

            // Initial architectural state: the thread's first `narch`
            // pops, a block of consecutive registers (validate_smt
            // leaves room for every thread's block).
            let map: Vec<u16> = (0..narch).map(|_| pool.alloc(tid)).collect();
            for &p in &map {
                preg_time[p as usize] = PregTime::ANCIENT;
                preg_info[p as usize] = PregInfo {
                    active: true,
                    ..PregInfo::EMPTY
                };
                match &mut storage {
                    Storage::Cached {
                        cache,
                        assigner,
                        tracker,
                        ..
                    } => {
                        cache.produce(PhysReg(p));
                        tracker.init(PhysReg(p), Some(0), 0, u8::MAX);
                        if let Some(ck) = checker.as_mut() {
                            ck.on_init(p, 0, false);
                        }
                        let set = assigner.assign(PhysReg(p), 1);
                        preg_info[p as usize].set = set;
                        preg_info[p as usize].predicted = 1;
                    }
                    Storage::TwoLevel { file } => {
                        // try_new_smt validated l1_entries > narch, so
                        // the architectural state always fits.
                        let allocated = file.try_allocate(PhysReg(p));
                        assert!(allocated, "validated L1 rejected arch state");
                    }
                    Storage::Monolithic { .. } => {}
                }
            }

            threads.push(ThreadState {
                machine,
                stream_done: false,
                peeked: None,
                seq: 0,
                retired: 0,
                last_retired_seq: 0,
                halted: false,
                fetch_resume: 0,
                waiting_on_branch: None,
                wrong_path: None,
                wp_ghist: GlobalHistory::new(),
                wp_ras: ReturnAddressStack::default(),
                fetch_latch: FetchLatch::new(),
                ghist: GlobalHistory::new(),
                branch_pred: match config.branch_predictor {
                    BranchPredictorKind::NotTaken => DirectionPredictor::AlwaysNotTaken,
                    BranchPredictorKind::Bimodal => DirectionPredictor::Bimodal(Bimodal::default()),
                    BranchPredictorKind::Gshare => DirectionPredictor::Gshare(Gshare::default()),
                    BranchPredictorKind::Yags => DirectionPredictor::Yags(Yags::default()),
                },
                ras: ReturnAddressStack::default(),
                indirect: CascadingIndirect::default(),
                douse: DegreeOfUsePredictor::new(config.douse),
                halt_fetched: false,
                map,
                rob: VecDeque::new(),
                sched: VecDeque::new(),
                due_hint: 0,
                armed: ArmedSlots::default(),
                store_granules: crate::stage::GranuleMap::default(),
                retired_machine,
                oracle: config.check.oracle.then(Oracle::new),
                recoveries: 0,
                machine_checks: 0,
                last_recovery: None,
                recovery_pending_since: None,
            });
        }

        let lifetimes = config.collect_lifetimes.then(LifetimeCollector::new);
        let memsys = MemSys::new(config.memsys);
        let core = CoreState {
            threads,
            pool,
            last_fetch_tid: nthreads - 1,
            now: 0,
            age: 0,
            last_progress: 0,
            preg_time,
            preg_info,
            window_count: 0,
            preg_waiters: vec![Vec::new(); npregs],
            cursors: Vec::new(),
            selected_buf: Vec::new(),
            squash_buf: Vec::new(),
            storage,
            events: EventLatch::new(),
            replay: ReplayLatch::new(),
            preg_gen: vec![0; npregs],
            memsys,
            result: SimResult::default(),
            lifetimes,
            trace: Vec::new(),
            checker,
            injector,
            error: None,
            cancel: None,
            pending_machine_check: None,
            forced_recovery: false,
            profiler: config.profile.then(|| Box::new(StageProfiler::new())),
            config,
        };
        Ok(Self { core })
    }

    /// Installs a cancellation flag polled periodically by
    /// [`Simulator::run_checked`]; setting it makes the run return
    /// [`SimError::Cancelled`]. Used by the bench runner's wall-clock
    /// timeout so a hung configuration's worker thread can be reaped.
    pub fn set_cancel(&mut self, flag: Arc<AtomicBool>) {
        self.core.cancel = Some(flag);
    }

    /// Runs the simulation to completion (program halt or the
    /// configured instruction budget) and returns the results, or the
    /// abnormal ending — oracle divergence, invariant violation,
    /// watchdog timeout, emulator fault, cancellation — as a structured
    /// [`SimError`].
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] encountered; the simulation
    /// cannot be resumed afterwards.
    pub fn run_checked(self) -> Result<SimResult, Box<SimError>> {
        let mut core = self.core;
        let budget = if core.config.max_instructions == 0 {
            u64::MAX
        } else {
            core.config.max_instructions
        };
        let watchdog = core.config.check.watchdog_cycles.max(1);
        while !core.halted() && core.retired() < budget {
            core.cycle();
            if let Some(e) = core.error.take() {
                return Err(e);
            }
            if core.checker.is_some() {
                if let Some(v) = core.check_invariants() {
                    return Err(Box::new(SimError::Invariant(v)));
                }
            }
            if core.now - core.last_progress >= watchdog {
                // With protection on the watchdog escalates once: a
                // forced machine-check squash of every live thread (the
                // stall may be fault-induced state the squash clears).
                // A second trip is a real deadlock.
                if core.config.storage.protected() && !core.forced_recovery {
                    core.forced_recovery = true;
                    let now = core.now;
                    for tid in 0..core.threads.len() {
                        if !core.threads[tid].halted {
                            core.machine_check_squash(tid, now);
                        }
                    }
                    core.last_progress = core.now;
                    continue;
                }
                return Err(Box::new(SimError::Watchdog(core.diagnostic_dump())));
            }
            if let Some(flag) = &core.cancel {
                if core.now & 0x3FF == 0 && flag.load(Ordering::Relaxed) {
                    return Err(Box::new(SimError::Cancelled { cycle: core.now }));
                }
            }
        }
        Ok(core.finish())
    }
}
