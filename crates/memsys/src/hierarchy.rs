use crate::buffer::LineBuffer;
use crate::cache::{Cache, CacheConfig, MemSysConfigError};
use crate::store_buffer::StoreBuffer;

/// Latency and geometry of the full memory hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemSysConfig {
    /// L1 instruction/data cache geometry (both use this).
    pub l1: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Load-to-use latency on an L1 hit.
    pub l1_load_to_use: u32,
    /// Extra cycles for a hit in the L1 prefetch/victim buffer.
    pub l1_buffer_extra: u32,
    /// L2 access latency (added to the L1 latency on an L1 miss).
    pub l2_latency: u32,
    /// Main memory latency (added on an L2 miss; critical-word-first is
    /// folded in, per Table 1).
    pub memory_latency: u32,
    /// Capacity of each prefetch/victim buffer, in lines.
    pub buffer_lines: usize,
    /// Store buffer entries.
    pub store_buffer_entries: usize,
    /// Cycles between store-buffer drains.
    pub store_drain_interval: u64,
    /// Enables the opportunistic unit-stride prefetcher.
    pub prefetch: bool,
}

impl MemSysConfig {
    /// Checks that a hierarchy can be built from this configuration:
    /// both cache geometries ([`CacheConfig::validate`]) and non-zero
    /// buffer sizes and drain interval. [`MemSys::new`] panics with the
    /// error's message.
    ///
    /// # Errors
    ///
    /// Returns the first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), MemSysConfigError> {
        self.l1.validate()?;
        self.l2.validate()?;
        let zero = [
            ("buffer_lines", self.buffer_lines == 0),
            ("store_buffer_entries", self.store_buffer_entries == 0),
            ("store_drain_interval", self.store_drain_interval == 0),
        ];
        match zero.into_iter().find(|&(_, is_zero)| is_zero) {
            Some((field, _)) => Err(MemSysConfigError::Zero { field }),
            None => Ok(()),
        }
    }

    /// The configuration of Table 1 of the paper.
    pub fn table1() -> Self {
        Self {
            l1: CacheConfig {
                size_bytes: 32 << 10,
                line_bytes: 64,
                ways: 2,
            },
            l2: CacheConfig {
                size_bytes: 1 << 20,
                line_bytes: 128,
                ways: 4,
            },
            l1_load_to_use: 4,
            l1_buffer_extra: 2,
            l2_latency: 12,
            memory_latency: 180,
            buffer_lines: 64,
            store_buffer_entries: 16,
            store_drain_interval: 2,
            prefetch: true,
        }
    }
}

impl Default for MemSysConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// Which level satisfied an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessLevel {
    /// L1 hit (or store-buffer forward).
    L1,
    /// Hit in the L1 prefetch/victim buffer.
    L1Buffer,
    /// L2 hit.
    L2,
    /// Hit in the L2 prefetch/victim buffer.
    L2Buffer,
    /// Main memory.
    Memory,
}

/// Access counts by satisfying level, separately for loads and fetches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSysStats {
    /// Data-side accesses satisfied at [`AccessLevel::L1`].
    pub d_l1: u64,
    /// Data-side accesses satisfied by the L1 buffer.
    pub d_l1_buffer: u64,
    /// Data-side accesses satisfied at L2 (or its buffer).
    pub d_l2: u64,
    /// Data-side accesses that went to memory.
    pub d_memory: u64,
    /// Instruction fetches satisfied at L1.
    pub i_l1: u64,
    /// Instruction fetches that missed the L1.
    pub i_miss: u64,
}

/// The full two-level hierarchy with buffers, store buffer, and
/// prefetcher. See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct MemSys {
    config: MemSysConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l1_buf: LineBuffer,
    l2_buf: LineBuffer,
    store_buf: StoreBuffer,
    stats: MemSysStats,
}

impl MemSys {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics with the [`MemSysConfig::validate`] error's message on an
    /// inconsistent configuration.
    pub fn new(config: MemSysConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self {
            l1i: Cache::new(config.l1),
            l1d: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l1_buf: LineBuffer::new(config.buffer_lines, config.l1.line_bytes),
            l2_buf: LineBuffer::new(config.buffer_lines, config.l2.line_bytes),
            store_buf: StoreBuffer::new(
                config.store_buffer_entries,
                config.l1.line_bytes,
                config.store_drain_interval,
            ),
            config,
            stats: MemSysStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemSysConfig {
        &self.config
    }

    /// Access statistics.
    pub fn stats(&self) -> &MemSysStats {
        &self.stats
    }

    /// Resolves where a data-side access hits, performing fills and
    /// victim movement.
    fn access_data(&mut self, addr: u64) -> AccessLevel {
        if self.store_buf.probe(addr) {
            // Store-to-load forward from the coalescing buffer.
            return AccessLevel::L1;
        }
        if self.l1d.access(addr) {
            return AccessLevel::L1;
        }
        // L1 miss: on the paper's machine the unit-stride prefetcher
        // opportunistically pulls the next line into the L1 buffer.
        if self.config.prefetch {
            let next = addr + self.config.l1.line_bytes as u64;
            if !self.l1d.probe(next) {
                self.l1_buf.insert(next);
            }
        }
        if self.l1_buf.take(addr) {
            // Promote into L1.
            if let Some(victim) = self.l1d.fill(addr) {
                self.l1_buf.insert(victim);
            }
            return AccessLevel::L1Buffer;
        }
        // Fill the L1 from below.
        if let Some(victim) = self.l1d.fill(addr) {
            self.l1_buf.insert(victim);
        }
        if self.l2.access(addr) {
            return AccessLevel::L2;
        }
        if self.l2_buf.take(addr) {
            if let Some(victim) = self.l2.fill(addr) {
                self.l2_buf.insert(victim);
            }
            return AccessLevel::L2Buffer;
        }
        if let Some(victim) = self.l2.fill(addr) {
            self.l2_buf.insert(victim);
        }
        AccessLevel::Memory
    }

    /// Latency contribution of the satisfying level, measured as
    /// load-to-use cycles.
    fn latency_of(&self, level: AccessLevel) -> u32 {
        let c = &self.config;
        match level {
            AccessLevel::L1 => c.l1_load_to_use,
            AccessLevel::L1Buffer => c.l1_load_to_use + c.l1_buffer_extra,
            AccessLevel::L2 => c.l1_load_to_use + c.l2_latency,
            AccessLevel::L2Buffer => c.l1_load_to_use + c.l2_latency + c.l1_buffer_extra,
            AccessLevel::Memory => c.l1_load_to_use + c.l2_latency + c.memory_latency,
        }
    }

    /// Performs a load at time `now` and returns its load-to-use
    /// latency in cycles (4 on an L1 hit, per Table 1).
    pub fn load_latency(&mut self, addr: u64, now: u64) -> u32 {
        self.drain_stores(now);
        let level = self.access_data(addr);
        match level {
            AccessLevel::L1 => self.stats.d_l1 += 1,
            AccessLevel::L1Buffer => self.stats.d_l1_buffer += 1,
            AccessLevel::L2 | AccessLevel::L2Buffer => self.stats.d_l2 += 1,
            AccessLevel::Memory => self.stats.d_memory += 1,
        }
        self.latency_of(level)
    }

    /// Attempts to retire a store at time `now`. Returns `false` when
    /// the store buffer is full and retirement must stall this cycle.
    pub fn store_retire(&mut self, addr: u64, now: u64) -> bool {
        self.drain_stores(now);
        self.store_buf.push(addr, now)
    }

    /// Performs an instruction fetch and returns its latency beyond the
    /// pipelined fetch stages (0 on an L1-I hit).
    ///
    /// The unit-stride prefetcher also runs ahead of the fetch stream:
    /// the next sequential line is pulled into the L1-I (Table 1's
    /// prefetch buffers sit on both cache levels), so straight-line
    /// code pays one cold miss per region, not one per line.
    pub fn fetch_latency(&mut self, pc: u64) -> u32 {
        let latency = if self.l1i.access(pc) {
            self.stats.i_l1 += 1;
            0
        } else {
            self.stats.i_miss += 1;
            self.l1i.fill(pc);
            if self.l2.access(pc) {
                self.config.l2_latency
            } else {
                self.l2.fill(pc);
                self.config.l2_latency + self.config.memory_latency
            }
        };
        if self.config.prefetch {
            let next = pc + self.config.l1.line_bytes as u64;
            if !self.l1i.probe(next) {
                self.l1i.fill(next);
                if !self.l2.access(next) {
                    self.l2.fill(next);
                }
            }
        }
        latency
    }

    fn drain_stores(&mut self, now: u64) {
        for line in self.store_buf.drain(now) {
            // Drained stores install their line in the L1 (write-
            // allocate) and the L2.
            if !self.l1d.access(line) {
                if let Some(victim) = self.l1d.fill(line) {
                    self.l1_buf.insert(victim);
                }
                if !self.l2.access(line) {
                    self.l2.fill(line);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_costs_full_memory_latency() {
        let mut m = MemSys::new(MemSysConfig::table1());
        assert_eq!(m.load_latency(0x9000, 0), 4 + 12 + 180);
        assert_eq!(m.load_latency(0x9000, 1), 4);
        assert_eq!(m.stats().d_memory, 1);
        assert_eq!(m.stats().d_l1, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MemSysConfig {
            l1: CacheConfig {
                size_bytes: 128,
                line_bytes: 64,
                ways: 1,
            },
            buffer_lines: 1,
            prefetch: false,
            ..MemSysConfig::table1()
        };
        let mut m = MemSys::new(cfg);
        m.load_latency(0x0000, 0);
        m.load_latency(0x1000, 0); // evicts 0x0000 into the 1-line buffer
        m.load_latency(0x2000, 0); // 0x1000's eviction displaces 0x0000
        let lat = m.load_latency(0x0000, 0);
        assert_eq!(lat, 4 + 12, "expected an L2 hit");
    }

    #[test]
    fn victim_buffer_catches_recent_evictions() {
        let cfg = MemSysConfig {
            l1: CacheConfig {
                size_bytes: 128,
                line_bytes: 64,
                ways: 1,
            },
            prefetch: false,
            ..MemSysConfig::table1()
        };
        let mut m = MemSys::new(cfg);
        m.load_latency(0x0000, 0);
        m.load_latency(0x1000, 0); // 0x0000 evicted into the buffer
        assert_eq!(m.load_latency(0x0000, 0), 4 + 2);
    }

    #[test]
    fn unit_stride_prefetch_hides_the_next_line() {
        let mut m = MemSys::new(MemSysConfig::table1());
        m.load_latency(0x4000, 0); // miss; prefetches 0x4040
        let lat = m.load_latency(0x4040, 0);
        assert_eq!(lat, 4 + 2, "expected an L1-buffer (prefetch) hit");
    }

    #[test]
    fn store_buffer_forwards_and_stalls() {
        let mut m = MemSys::new(MemSysConfig {
            store_buffer_entries: 1,
            store_drain_interval: 1_000_000,
            ..MemSysConfig::table1()
        });
        assert!(m.store_retire(0x5000, 0));
        // Load from the same line forwards at L1 latency.
        assert_eq!(m.load_latency(0x5008, 0), 4);
        // A second line cannot enter the 1-entry buffer.
        assert!(!m.store_retire(0x6000, 0));
    }

    #[test]
    fn fetch_path_uses_l1i_and_l2() {
        let mut m = MemSys::new(MemSysConfig::table1());
        assert_eq!(m.fetch_latency(0x1000), 12 + 180);
        assert_eq!(m.fetch_latency(0x1000), 0);
        // A data access to the same address does not touch the L1-I but
        // hits in the shared L2.
        assert_eq!(m.load_latency(0x1000, 0), 4 + 12);
    }

    #[test]
    fn drained_stores_become_visible_in_l1() {
        let mut m = MemSys::new(MemSysConfig {
            store_drain_interval: 1,
            prefetch: false,
            ..MemSysConfig::table1()
        });
        assert!(m.store_retire(0x7000, 0));
        // After the drain interval passes, the line is installed.
        assert_eq!(m.load_latency(0x7000, 10), 4);
        assert_eq!(m.stats().d_l1, 1);
    }
}
