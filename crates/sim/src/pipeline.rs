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
//! core. Each context gets a replicated front end and an even slice of
//! the physical-register file ([`crate::stage::ThreadState`]); the
//! issue window, execute units, register cache, backing file, and
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
    CoreState, EventLatch, FetchLatch, PregInfo, PregTime, ReplayLatch, SharedPool, StageProfiler,
    Storage, ThreadState,
};
use crate::stats::{LifetimeCollector, SimResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use ubrc_core::{BackingFile, IndexAssigner, PhysReg, RegisterCache, TwoLevelFile, UseTracker};
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
        if config.fetch_width == 0 {
            return Err(ConfigError::ZeroWidth {
                field: "fetch_width",
            });
        }
        if config.issue_width == 0 {
            return Err(ConfigError::ZeroWidth {
                field: "issue_width",
            });
        }
        let npregs = config.phys_regs;
        let narch = ubrc_isa::NUM_ARCH_REGS as usize;
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
            if cache.entries == 0 || cache.ways == 0 || !cache.entries.is_multiple_of(cache.ways) {
                return Err(ConfigError::CacheGeometry {
                    entries: cache.entries,
                    ways: cache.ways,
                });
            }
        }
        match &config.storage {
            RegStorage::TwoLevel(tl) => {
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
            RegStorage::Cached { cache, .. } if nthreads > 1 => {
                if let Some(a) = cache.epoch_adapt {
                    if a.min_cycles == 0 || a.min_cycles > a.max_cycles {
                        return Err(ConfigError::EpochAdaptInvalidRange {
                            min_cycles: a.min_cycles,
                            max_cycles: a.max_cycles,
                        });
                    }
                    if !cache.partition.is_dynamic() {
                        return Err(ConfigError::EpochAdaptStaticPartition);
                    }
                }
                match cache.partition {
                    ubrc_core::CachePartition::Shared => {}
                    ubrc_core::CachePartition::WayPartition => {
                        if !cache.ways.is_multiple_of(nthreads) {
                            return Err(ConfigError::WayPartitionMismatch {
                                ways: cache.ways,
                                nthreads,
                            });
                        }
                    }
                    ubrc_core::CachePartition::OccupancyCap => {
                        if cache.entries < nthreads {
                            return Err(ConfigError::OccupancyCapTooSmall {
                                entries: cache.entries,
                                nthreads,
                            });
                        }
                    }
                    ubrc_core::CachePartition::DynamicCap {
                        epoch_cycles,
                        min_cap,
                    } => {
                        if epoch_cycles == 0 {
                            return Err(ConfigError::DynamicCapZeroEpoch);
                        }
                        if cache.entries < nthreads {
                            return Err(ConfigError::DynamicCapTooSmall {
                                entries: cache.entries,
                                nthreads,
                            });
                        }
                        if min_cap * nthreads > cache.entries {
                            return Err(ConfigError::DynamicCapMinCapTooLarge {
                                min_cap,
                                nthreads,
                                entries: cache.entries,
                            });
                        }
                    }
                    ubrc_core::CachePartition::DynamicWay { epoch_cycles } => {
                        if epoch_cycles == 0 {
                            return Err(ConfigError::DynamicWayZeroEpoch);
                        }
                        if !cache.ways.is_multiple_of(nthreads) {
                            return Err(ConfigError::DynamicWayMismatch {
                                ways: cache.ways,
                                nthreads,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
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
            // Recoverable fault kinds need the cache's protection layer;
            // non-cached storage has no parity model at all.
            let protection = match &config.storage {
                RegStorage::Cached { cache, .. } => cache.protection,
                _ => ubrc_core::ProtectionConfig::off(),
            };
            plan.validate(npregs, protection)
                .map_err(ConfigError::FaultPlan)?;
        }
        Ok(())
    }

    /// Builds a simulator co-scheduling one program per hardware
    /// thread (one program is the classic single-threaded core).
    /// `config.nthreads` is overwritten with the program count; the
    /// physical register file is partitioned evenly between the
    /// contexts.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the `(programs, config)`
    /// combination violates.
    pub fn try_new_smt(programs: Vec<Program>, mut config: SimConfig) -> Result<Self, ConfigError> {
        Self::validate_smt(programs.len(), &config)?;
        let nthreads = programs.len();
        config.nthreads = nthreads;
        let npregs = config.phys_regs;
        let narch = ubrc_isa::NUM_ARCH_REGS as usize;
        let partition = npregs / nthreads;

        let mut checker = config
            .check
            .invariants
            .then(|| Checker::new(npregs, partition));
        let injector = config.fault_plan.as_ref().map(Injector::new);

        // A shared freelist reassigns register ownership dynamically, so
        // the cache cannot key partitioning off a static preg split.
        let cache_threads = match config.freelist {
            FreelistPolicy::Partitioned => nthreads,
            FreelistPolicy::Shared { .. } => 1,
        };

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
                    cache: RegisterCache::new_smt(*cache, npregs, cache_threads),
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
        let read_latency = config.storage.read_latency();

        // Shared-freelist mode: thread t's architectural state occupies
        // the contiguous block [t*narch, (t+1)*narch); everything above
        // nthreads*narch goes into one common pool.
        let shared_cap = match config.freelist {
            FreelistPolicy::Partitioned => None,
            FreelistPolicy::Shared { cap } => Some(cap),
        };
        let shared_pool = shared_cap.map(|cap| SharedPool {
            free: ((nthreads * narch) as u16..npregs as u16).rev().collect(),
            owner: (0..npregs)
                .map(|p| (p / narch).min(nthreads - 1) as u16)
                .collect(),
            live: vec![narch; nthreads],
            cap,
        });

        let mut preg_time = vec![PregTime::UNKNOWN; npregs];
        let mut preg_info = vec![PregInfo::EMPTY; npregs];
        let mut threads = Vec::with_capacity(nthreads);
        for (tid, program) in programs.into_iter().enumerate() {
            let (lo, hi) = if shared_pool.is_some() {
                // Only the fixed architectural block is thread-owned;
                // renamed registers come from (and return to) the pool.
                ((tid * narch) as u16, ((tid + 1) * narch) as u16)
            } else {
                ((tid * partition) as u16, ((tid + 1) * partition) as u16)
            };
            let machine = Machine::new(program);
            // The oracle forks the thread's machine: same shared
            // program, fresh architectural state — no deep copy of the
            // instruction stream.
            let oracle = config.check.oracle.then(|| Oracle::for_machine(&machine));
            // The machine-check checkpoint is another fork, stepped
            // once per retirement (see `retire`), so it always sits at
            // the thread's retired architectural state.
            let recover = config
                .recovery
                .enabled
                .then(|| Box::new(machine.fork_fresh()));

            // Initial architectural state: arch reg i -> preg lo + i,
            // the rest of the partition free.
            let map: Vec<u16> = (lo..lo + narch as u16).collect();
            let freelist: Vec<u16> = (lo + narch as u16..hi).rev().collect();
            for p in lo..lo + narch as u16 {
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
                wrong_path: false,
                wp_resolve_seq: None,
                wp_map_checkpoint: Vec::new(),
                wp_map_saved: false,
                wp_ghist: GlobalHistory::new(),
                wp_ras: ReturnAddressStack::default(),
                wp_ras_saved: false,
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
                preg_lo: lo,
                preg_hi: hi,
                freelist,
                rob: VecDeque::new(),
                sched: VecDeque::new(),
                due_hint: 0,
                sched_base: 0,
                timed: Vec::new(),
                store_granules: crate::stage::GranuleMap::default(),
                oracle,
                recover,
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
            partition,
            shared_pool,
            last_fetch_tid: nthreads - 1,
            now: 0,
            age: 0,
            retired: 0,
            last_progress: 0,
            halted: false,
            wp_squashed: 0,
            preg_time,
            preg_info,
            window_count: 0,
            preg_waiters: vec![Vec::new(); npregs],
            due_buf: Vec::new(),
            selected_buf: Vec::new(),
            due_bounds: Vec::new(),
            merge_heads: Vec::new(),
            squash_buf: Vec::new(),
            storage,
            read_latency,
            events: EventLatch::new(),
            replay: ReplayLatch::new(),
            preg_gen: vec![0; npregs],
            load_replay_squashes: 0,
            store_forward_stalls: 0,
            memsys,
            cond_branches: 0,
            branch_mispredicts: 0,
            indirect_branches: 0,
            indirect_mispredicts: 0,
            replayed: 0,
            miss_events: 0,
            dispatch_stall_pregs: 0,
            operands_bypassed: 0,
            operands_from_storage: 0,
            lifetimes,
            trace: Vec::new(),
            epoch_timeline: Vec::new(),
            checker,
            injector,
            error: None,
            cancel: None,
            pending_machine_check: None,
            recovery_cycles: 0,
            recovery_latency: ubrc_stats::Histogram::new(),
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
        while !core.halted && core.retired < budget {
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
                // With recovery enabled the watchdog escalates once: a
                // forced machine-check squash of every live thread (the
                // stall may be fault-induced state the squash clears).
                // A second trip is a real deadlock.
                if core.config.recovery.enabled && !core.forced_recovery {
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
