//! Use-based register caching with decoupled indexing.
//!
//! This crate is the primary contribution of Butts & Sohi, *Use-Based
//! Register Caching with Decoupled Indexing* (ISCA 2004): the register
//! storage hierarchy of a wide, deeply-pipelined out-of-order core, built
//! from
//!
//! * [`RegisterCache`] — a small set-associative cache over the physical
//!   register file, with the insertion and replacement policies as
//!   plain enums ([`InsertionPolicy`]: write-all / non-bypass /
//!   use-based; [`ReplacementPolicy`]: LRU /
//!   fewest-remaining-uses / expected-hit-count), per-entry
//!   remaining-use counters with pinning, and miss classification
//!   (not-written / capacity / conflict) against a fully-associative
//!   shadow;
//! * [`IndexAssigner`] — decoupled indexing: register-cache set indices
//!   assigned at rename time, independent of the physical register tag,
//!   by one of four policies ([`IndexPolicy`]);
//! * [`UseTracker`] — the per-value remaining-use bookkeeping between
//!   rename and the cache write (the bypass window);
//! * [`CachePartition`] — how SMT threads share the cache: shared,
//!   static way/occupancy partitions, and the dynamic quota
//!   ([`CachePartition::DynamicCap`]) and whole-way
//!   ([`CachePartition::DynamicWay`]) partitions with optional adaptive
//!   epoch pacing ([`EpochAdapt`]); [`RegCacheConfig::validate`] holds
//!   every geometry and partition rule;
//! * [`UtilityMonitor`] — per-thread shadow-tag utility monitors and
//!   the lookahead partitioner that recomputes dynamic quotas and way
//!   maps at epoch boundaries, reported per epoch as
//!   [`EpochFeedback`];
//! * [`BackingFile`] — the multi-cycle backing register file with its
//!   single shared read port and write-completion interlock;
//! * [`TwoLevelFile`] — the optimistic two-level register file baseline
//!   (Balasubramonian et al.) the paper compares against.
//!
//! The timing simulator (`ubrc-sim`) drives these structures cycle by
//! cycle; everything here is also directly usable (and tested) in
//! isolation.
//!
//! # Examples
//!
//! ```
//! use ubrc_core::{PhysReg, RegCacheConfig, RegisterCache};
//!
//! let mut cache = RegisterCache::new(RegCacheConfig::use_based(64, 2), 512);
//! let p = PhysReg(7);
//! cache.produce(p);
//! // Value written with 2 predicted uses remaining, no bypasses yet.
//! cache.write(p, 3, 2, false, 0, 100);
//! assert!(cache.read(p, 3, 101)); // hit; one use left
//! assert!(cache.read(p, 3, 102)); // hit; zero left (stays until evicted)
//! cache.free(p, 3, 110);
//! assert!(!cache.contains(p));
//! ```

#![warn(missing_docs)]

mod backing;
mod cache;
mod index;
pub mod monitor;
mod partition;
mod policy;
mod twolevel;
mod usetrack;

pub use backing::{BackingFile, BackingStats};
pub use cache::{EntryView, MissClass, RegCacheStats, RegisterCache, WriteOutcome};
pub use index::{IndexAssigner, IndexPolicy};
pub use monitor::UtilityMonitor;
pub use policy::{
    CacheConfigError, CachePartition, EpochAdapt, EpochFeedback, InsertionContext, InsertionPolicy,
    RegCacheConfig, ReplacementPolicy, VictimScore, VictimView,
};
pub use twolevel::{TwoLevelConfig, TwoLevelFile, TwoLevelStats};
pub use usetrack::UseTracker;

/// A physical register identifier.
///
/// The paper's machine has 512 physical registers; the simulator
/// allocates them from a free list at rename.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(pub u16);

impl std::fmt::Display for PhysReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}
