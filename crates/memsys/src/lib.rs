//! Cache-hierarchy timing models for the UBRC simulator.
//!
//! Implements the memory system of Table 1 of the paper: 32KB 2-way L1
//! instruction and data caches (64-byte lines), a 1MB 4-way unified L2
//! (128-byte lines, 12-cycle latency), 64-entry unified prefetch/victim
//! buffers on each level, a 16-entry coalescing store buffer, a
//! unit-stride prefetcher, and a 180-cycle memory.
//!
//! These are *latency* models: the functional emulator owns the data, so
//! the hierarchy only tracks which lines are resident and answers "how
//! long does this access take". Bandwidth contention below the L1 and
//! MSHR occupancy are not modeled (the paper's evaluation is
//! register-file-bound; see DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use ubrc_memsys::{MemSys, MemSysConfig};
//!
//! let mut mem = MemSys::new(MemSysConfig::table1());
//! let cold = mem.load_latency(0x8000, 0);
//! let warm = mem.load_latency(0x8000, 1);
//! assert!(cold > warm); // first touch misses all the way to memory
//! assert_eq!(warm, 4);  // L1 hit: 4-cycle load-to-use
//! ```

#![warn(missing_docs)]

mod buffer;
mod cache;
mod hierarchy;
mod store_buffer;

pub use buffer::LineBuffer;
pub use cache::{Cache, CacheConfig, CacheStats, MemSysConfigError};
pub use hierarchy::{AccessLevel, MemSys, MemSysConfig, MemSysStats};
pub use store_buffer::StoreBuffer;
