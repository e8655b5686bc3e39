use crate::check::CheckConfig;
use crate::inject::FaultPlan;
use ubrc_core::{IndexPolicy, RegCacheConfig, TwoLevelConfig};
use ubrc_frontend::DouseConfig;
use ubrc_isa::ExecClass;
use ubrc_memsys::MemSysConfig;

/// Which conditional-branch direction predictor the front end uses.
///
/// The paper's machine uses the 12KB YAGS predictor; the others exist
/// for the front-end ablation experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BranchPredictorKind {
    /// Static not-taken.
    NotTaken,
    /// Per-PC 2-bit counters (4KB).
    Bimodal,
    /// PC ⊕ global-history indexed counters (4KB).
    Gshare,
    /// The paper's 12KB YAGS configuration.
    #[default]
    Yags,
}

/// SMT fetch-thread selection policy (only consulted with more than one
/// hardware thread; single-thread cores always fetch thread 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FetchPolicy {
    /// ICOUNT.1.8: each cycle the eligible thread with the fewest
    /// in-flight instructions (front-end queue + ROB) fetches one block;
    /// ties break toward the lower thread id. The default.
    #[default]
    Icount,
    /// Strict round-robin over eligible threads, ignoring load.
    RoundRobin,
    /// ICOUNT.2.8-style: the *two* least-loaded eligible threads each
    /// fetch a block per cycle (Tullsen et al.'s higher-bandwidth
    /// front end).
    Icount28,
}

/// How physical registers are divided between SMT threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FreelistPolicy {
    /// Each thread owns a fixed `phys_regs / threads` slice of the
    /// register file (the default; what the golden rows pin).
    #[default]
    Partitioned,
    /// One shared free pool: any thread may allocate any register, but
    /// each thread is capped at `cap` live registers so one stalled
    /// thread cannot starve the rest. `cap` must exceed the
    /// architectural register count (each thread permanently holds one
    /// mapping per architectural register).
    Shared {
        /// Per-thread cap on live physical registers.
        cap: usize,
    },
}

/// The register storage organization being evaluated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RegStorage {
    /// A monolithic multi-cycle register file (no cache): the baseline
    /// of Figures 6, 11, and 12 (dotted lines).
    Monolithic {
        /// Read latency in cycles (the paper's baseline is 3).
        read_latency: u32,
        /// Write latency in cycles (equal to the read latency in the
        /// paper).
        write_latency: u32,
    },
    /// A single-cycle register cache backed by a multi-cycle backing
    /// file — the framework of §2.2, with policies per
    /// [`RegCacheConfig`] and set assignment per [`IndexPolicy`].
    Cached {
        /// Cache geometry and policies.
        cache: RegCacheConfig,
        /// Set-index assignment policy.
        index: IndexPolicy,
        /// Backing file read latency (the paper's default is 2).
        backing_read: u32,
        /// Backing file write latency.
        backing_write: u32,
    },
    /// The optimistic two-level register file baseline (§5.5).
    TwoLevel(TwoLevelConfig),
}

impl RegStorage {
    /// The paper's proposed design point: 64-entry 2-way use-based
    /// cache, filtered round-robin indexing, 2-cycle backing file.
    pub fn paper_default() -> Self {
        RegStorage::Cached {
            cache: RegCacheConfig::use_based(64, 2),
            index: IndexPolicy::FilteredRoundRobin,
            backing_read: 2,
            backing_write: 2,
        }
    }

    /// The paper's cached design point with utility-driven dynamic
    /// partitioning layered on: an `entries`×`ways` use-based cache
    /// whose per-thread occupancy quotas are recomputed every
    /// `epoch_cycles` cycles with a floor of `min_cap` entries per
    /// thread (see [`ubrc_core::CachePartition::DynamicCap`]). Only
    /// meaningful on an SMT core; with one thread the partition policy
    /// is inert.
    pub fn dynamic_cap(entries: usize, ways: usize, epoch_cycles: u64, min_cap: usize) -> Self {
        let mut cache = RegCacheConfig::use_based(entries, ways);
        cache.partition = ubrc_core::CachePartition::DynamicCap {
            epoch_cycles,
            min_cap,
        };
        RegStorage::Cached {
            cache,
            index: IndexPolicy::FilteredRoundRobin,
            backing_read: 2,
            backing_write: 2,
        }
    }

    /// The paper's cached design point with utility-driven dynamic
    /// *way* partitioning layered on: an `entries`×`ways` use-based
    /// cache whose per-thread way blocks are reassigned every
    /// `epoch_cycles` cycles (see
    /// [`ubrc_core::CachePartition::DynamicWay`]). Only meaningful on
    /// an SMT core; with one thread the partition policy is inert.
    pub fn dynamic_way(entries: usize, ways: usize, epoch_cycles: u64) -> Self {
        let mut cache = RegCacheConfig::use_based(entries, ways);
        cache.partition = ubrc_core::CachePartition::DynamicWay { epoch_cycles };
        RegStorage::Cached {
            cache,
            index: IndexPolicy::FilteredRoundRobin,
            backing_read: 2,
            backing_write: 2,
        }
    }

    /// Whether soft-error protection is on: parity on a register cache
    /// with [`RegCacheConfig::protect`] set, and the machine-check
    /// recovery that acts on it. No other storage has parity.
    pub fn protected(&self) -> bool {
        matches!(self, RegStorage::Cached { cache, .. } if cache.protect)
    }

    /// Storage read latency between issue and execute.
    pub fn read_latency(&self) -> u32 {
        match self {
            RegStorage::Monolithic { read_latency, .. } => *read_latency,
            RegStorage::Cached { .. } => 1,
            RegStorage::TwoLevel(_) => 1,
        }
    }
}

/// Functional-unit pool sizes (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuPools {
    /// 1-cycle integer ALUs.
    pub int_alu: usize,
    /// Branch resolution units.
    pub branch: usize,
    /// Integer multipliers (divides share them).
    pub int_mul: usize,
    /// Floating-point ALUs.
    pub fp_alu: usize,
    /// Floating-point multiplier/dividers.
    pub fp_mul: usize,
    /// Load units.
    pub load: usize,
    /// Store units.
    pub store: usize,
}

impl FuPools {
    /// Table 1's execution resources.
    pub fn table1() -> Self {
        Self {
            int_alu: 6,
            branch: 2,
            int_mul: 2,
            fp_alu: 4,
            fp_mul: 2,
            load: 4,
            store: 2,
        }
    }

    /// Pool size for an execution class.
    pub fn size(&self, class: ExecClass) -> usize {
        match class {
            ExecClass::IntAlu => self.int_alu,
            ExecClass::Branch => self.branch,
            ExecClass::IntMul | ExecClass::IntDiv => self.int_mul,
            ExecClass::FpAlu => self.fp_alu,
            ExecClass::FpMul | ExecClass::FpDiv => self.fp_mul,
            ExecClass::Load => self.load,
            ExecClass::Store => self.store,
        }
    }

    /// Index of the pool backing a class (for per-cycle accounting).
    pub fn pool_index(class: ExecClass) -> usize {
        match class {
            ExecClass::IntAlu => 0,
            ExecClass::Branch => 1,
            ExecClass::IntMul | ExecClass::IntDiv => 2,
            ExecClass::FpAlu => 3,
            ExecClass::FpMul | ExecClass::FpDiv => 4,
            ExecClass::Load => 5,
            ExecClass::Store => 6,
        }
    }

    /// Number of distinct pools.
    pub const NUM_POOLS: usize = 7;
}

/// Full timing-simulator configuration (Table 1 of the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Fetch width (one taken branch per block).
    pub fetch_width: usize,
    /// Issue width.
    pub issue_width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// Maximum stores retired per cycle.
    pub max_stores_per_retire: usize,
    /// Issue-window entries.
    pub window_entries: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Physical registers. Shared by every hardware thread, so it must
    /// divide evenly between the co-scheduled programs and leave each
    /// thread's slice more registers than the architectural set.
    pub phys_regs: usize,
    /// Front-end depth in cycles from fetch to window entry
    /// (4 fetch + 2 decode + 3 rename + 2 dispatch = 11).
    pub frontend_stages: u32,
    /// Minimum fetch-to-fetch branch mis-speculation loop.
    pub min_branch_penalty: u32,
    /// Bypass network stages (ALU feedback + cache-write-to-read).
    pub bypass_stages: u32,
    /// Functional units.
    pub fu: FuPools,
    /// Register storage organization under evaluation.
    pub storage: RegStorage,
    /// Memory hierarchy.
    pub memsys: MemSysConfig,
    /// Conditional branch predictor style.
    pub branch_predictor: BranchPredictorKind,
    /// The register cache's degree-of-use predictor, one per thread
    /// (cached storage only: the other organizations predict nothing).
    pub douse: DouseConfig,
    /// Backing-file shared read ports (the paper's design uses 1).
    pub backing_read_ports: usize,
    /// Overrides the filtered round-robin index parameters
    /// `(high_use_degree, skip_above)`; `None` uses the paper's
    /// defaults (degree > 5, half the associativity). Set only on a
    /// register cache with [`IndexPolicy::FilteredRoundRobin`]: any
    /// other storage is rejected with
    /// [`crate::ConfigError::FilterWithoutFilteredIndex`].
    pub filter_params: Option<(u8, u32)>,
    /// Stop after this many retired instructions (0 = run to halt).
    pub max_instructions: u64,
    /// Collect per-value lifetime events (Figures 1 and 2; costs
    /// memory proportional to instruction count).
    pub collect_lifetimes: bool,
    /// Record a pipeline trace for the first N instructions (0 = off);
    /// see [`crate::Timeline`].
    pub trace_instructions: usize,
    /// Model store→load ordering through the load/store queues: a load
    /// waits for the youngest older store to its address to execute,
    /// then forwards at L1 latency. Disable to measure the cost of
    /// memory dependences.
    pub model_store_forwarding: bool,
    /// Model load-hit speculation (the Alpha 21264 scheme the paper
    /// cites): dependents of a load issue assuming an L1 hit; on a
    /// miss, everything issued in the two-cycle shadow replays, exactly
    /// like a register-cache miss (§2.2/§5.2).
    pub load_hit_speculation: bool,
    /// Runtime correctness checking (lockstep oracle, per-cycle
    /// invariants, forward-progress watchdog). Observation-only:
    /// enabling it never changes the simulated timing.
    pub check: CheckConfig,
    /// Deterministic fault-injection plan (`None` = no faults). Used by
    /// the robustness tests to prove the oracle/checker detect each
    /// corruption class.
    pub fault_plan: Option<FaultPlan>,
    /// Collect per-stage wall-time and call-count attribution
    /// ([`crate::SimResult::profile`]). Off by default: the per-cycle
    /// loop takes the original untimed path and no profiling code runs
    /// at all. Wall-time-only instrumentation — enabling it never
    /// changes the simulated timing.
    pub profile: bool,
    /// SMT fetch-thread selection (ignored with one thread).
    pub fetch_policy: FetchPolicy,
    /// Physical-register pool organization across threads (ignored with
    /// one thread unless [`FreelistPolicy::Shared`] caps are wanted).
    pub freelist: FreelistPolicy,
}

impl SimConfig {
    /// The machine of Table 1 with the given register storage.
    pub fn table1(storage: RegStorage) -> Self {
        Self {
            fetch_width: 8,
            issue_width: 8,
            retire_width: 8,
            max_stores_per_retire: 2,
            window_entries: 128,
            rob_entries: 512,
            phys_regs: 512,
            frontend_stages: 11,
            min_branch_penalty: 15,
            bypass_stages: 2,
            fu: FuPools::table1(),
            storage,
            memsys: MemSysConfig::table1(),
            branch_predictor: BranchPredictorKind::Yags,
            backing_read_ports: 1,
            douse: DouseConfig::default(),
            filter_params: None,
            max_instructions: 0,
            collect_lifetimes: false,
            trace_instructions: 0,
            model_store_forwarding: true,
            load_hit_speculation: true,
            check: CheckConfig::default(),
            fault_plan: None,
            profile: false,
            fetch_policy: FetchPolicy::Icount,
            freelist: FreelistPolicy::Partitioned,
        }
    }

    /// The paper's proposed design point (64-entry 2-way use-based
    /// cache with filtered round-robin indexing).
    pub fn paper_default() -> Self {
        Self::table1(RegStorage::paper_default())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let c = SimConfig::paper_default();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.window_entries, 128);
        assert_eq!(c.rob_entries, 512);
        assert_eq!(c.phys_regs, 512);
        assert_eq!(c.min_branch_penalty, 15);
        assert_eq!(c.bypass_stages, 2);
        assert_eq!(c.fu.int_alu, 6);
        assert_eq!(c.fu.load, 4);
    }

    #[test]
    fn storage_read_latencies() {
        assert_eq!(RegStorage::paper_default().read_latency(), 1);
        assert_eq!(
            RegStorage::Monolithic {
                read_latency: 3,
                write_latency: 3
            }
            .read_latency(),
            3
        );
    }

    #[test]
    fn dynamic_cap_storage_wraps_the_paper_cache() {
        let s = RegStorage::dynamic_cap(64, 4, 2048, 4);
        let RegStorage::Cached { cache, index, .. } = s else {
            panic!("dynamic_cap builds cached storage");
        };
        assert_eq!(cache.entries, 64);
        assert_eq!(cache.ways, 4);
        assert_eq!(
            cache.partition,
            ubrc_core::CachePartition::DynamicCap {
                epoch_cycles: 2048,
                min_cap: 4
            }
        );
        assert_eq!(index, IndexPolicy::FilteredRoundRobin);
        assert_eq!(s.read_latency(), 1);
    }

    #[test]
    fn dynamic_way_storage_wraps_the_paper_cache() {
        let s = RegStorage::dynamic_way(64, 8, 128);
        let RegStorage::Cached { cache, index, .. } = s else {
            panic!("dynamic_way builds cached storage");
        };
        assert_eq!(cache.entries, 64);
        assert_eq!(cache.ways, 8);
        assert_eq!(
            cache.partition,
            ubrc_core::CachePartition::DynamicWay { epoch_cycles: 128 }
        );
        assert_eq!(index, IndexPolicy::FilteredRoundRobin);
        assert_eq!(s.read_latency(), 1);
    }

    #[test]
    fn fu_pool_lookup() {
        let fu = FuPools::table1();
        assert_eq!(fu.size(ExecClass::IntAlu), 6);
        assert_eq!(fu.size(ExecClass::IntDiv), 2); // shares multipliers
        assert_eq!(fu.size(ExecClass::FpDiv), 2);
        assert_eq!(
            FuPools::pool_index(ExecClass::IntMul),
            FuPools::pool_index(ExecClass::IntDiv)
        );
    }
}
