//! Epoch stage: the feedback tick driving the dynamic partitions
//! ([`ubrc_core::CachePartition::DynamicCap`] and
//! [`ubrc_core::CachePartition::DynamicWay`]).
//!
//! Runs last in [`super::SCHEDULE`], after every cycle's reads and
//! writes have landed, so an epoch boundary observes a consistent
//! end-of-cycle cache state. Whenever the register cache reports a
//! boundary due ([`ubrc_core::RegisterCache::epoch_due`]) — every
//! `epoch_cycles`-th cycle, or at the variable instants an
//! [`ubrc_core::EpochAdapt`] pacer schedules — it asks the register
//! cache to close the epoch: the cache snapshots its per-thread
//! hit/miss deltas, reruns the lookahead utility partitioner over the
//! shadow-tag monitors, enforces the new quotas or way map, and
//! reports the result as an [`ubrc_core::EpochFeedback`]. This stage
//! only decides *when to ask*
//! — all repartitioning state lives in `ubrc-core`.
//!
//! Everything is keyed off the cycle counter — no RNG, no wall clock —
//! so dynamic repartitioning is exactly as reproducible as the rest of
//! the model, and the stage is a no-op for every other partition
//! policy (the golden-snapshot contract for static configurations is
//! untouched).

use super::{CoreState, Storage};

impl CoreState {
    pub(crate) fn epoch_stage(&mut self, now: u64) {
        let Storage::Cached { cache, .. } = &mut self.storage else {
            return;
        };
        if cache.epoch_due(now) {
            self.result.epoch_timeline.push(cache.epoch_boundary(now));
        }
    }
}
