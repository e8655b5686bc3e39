use std::fmt;

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics with the [`CacheConfig::validate`] error's message if the
    /// geometry is inconsistent.
    pub fn sets(&self) -> usize {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self.size_bytes / self.line_bytes / self.ways
    }

    /// Checks the geometry: a power-of-two line size, a capacity that
    /// divides into `ways` lines per set, and a power-of-two set count.
    ///
    /// # Errors
    ///
    /// Returns the first rule the geometry breaks.
    pub fn validate(&self) -> Result<(), MemSysConfigError> {
        let line_bytes = self.line_bytes;
        if !line_bytes.is_power_of_two() {
            return Err(MemSysConfigError::LineSize { line_bytes });
        }
        let lines = self.size_bytes / line_bytes;
        if self.ways == 0 || !lines.is_multiple_of(self.ways) {
            return Err(MemSysConfigError::Ways {
                size_bytes: self.size_bytes,
                line_bytes,
                ways: self.ways,
            });
        }
        let sets = lines / self.ways;
        if !sets.is_power_of_two() {
            return Err(MemSysConfigError::Sets { sets });
        }
        Ok(())
    }
}

/// A memory-hierarchy configuration no [`crate::MemSys`] can be built
/// from, from [`crate::MemSysConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemSysConfigError {
    /// A cache's line size is not a power of two.
    LineSize {
        /// Configured line size.
        line_bytes: usize,
    },
    /// A cache's capacity does not divide into `ways` lines per set.
    Ways {
        /// Configured capacity.
        size_bytes: usize,
        /// Configured line size.
        line_bytes: usize,
        /// Configured associativity.
        ways: usize,
    },
    /// A cache's set count is not a power of two.
    Sets {
        /// The set count the geometry implies.
        sets: usize,
    },
    /// A buffer capacity or the store-buffer drain interval is zero.
    Zero {
        /// Name of the zero field.
        field: &'static str,
    },
}

impl fmt::Display for MemSysConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSysConfigError::LineSize { line_bytes } => {
                write!(f, "line size must be a power of two (got {line_bytes})")
            }
            MemSysConfigError::Ways {
                size_bytes,
                line_bytes,
                ways,
            } => write!(
                f,
                "capacity must divide into ways ({size_bytes} bytes of {line_bytes}-byte \
                 lines, {ways} ways)"
            ),
            MemSysConfigError::Sets { sets } => {
                write!(f, "set count must be a power of two (got {sets})")
            }
            MemSysConfigError::Zero { field } => write!(f, "{field} must be positive"),
        }
    }
}

impl std::error::Error for MemSysConfigError {}

/// Hit/miss tallies for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// `misses / (hits + misses)`, or `None` with no accesses.
    pub fn miss_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.misses as f64 / total as f64)
        }
    }
}

/// One way of a set: the line address it holds and the tick of its
/// last access or fill. Every access and fill stamps a tick of at least
/// 1, so `lru == 0` marks an invalid (never filled) way, and an invalid
/// way is always the least recently used.
#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    lru: u64,
}

impl Line {
    fn holds(&self, line: u64) -> bool {
        self.lru != 0 && self.tag == line
    }
}

/// A set-associative cache directory with true-LRU replacement.
///
/// Tracks residency only (no data). Used for the L1 instruction, L1
/// data, and L2 caches.
///
/// # Examples
///
/// ```
/// use ubrc_memsys::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 64, ways: 2 });
/// assert!(!c.access(0x1000));
/// c.fill(0x1000);
/// assert!(c.access(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>, // sets * ways
    sets: usize,
    /// log2 of the line size.
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            lines: vec![Line::default(); sets * config.ways],
            sets,
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Looks up `addr`, updating LRU and statistics. Returns `true` on
    /// hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let ways = self.config.ways;
        let tick = self.tick;
        for l in &mut self.lines[set * ways..(set + 1) * ways] {
            if l.holds(line) {
                l.lru = tick;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Checks residency without updating LRU or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let ways = self.config.ways;
        self.lines[set * ways..(set + 1) * ways]
            .iter()
            .any(|l| l.holds(line))
    }

    /// Installs the line containing `addr`, evicting LRU if needed.
    /// Returns the *byte address* of the evicted line, if a valid line
    /// was displaced.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.tick += 1;
        let line = self.line_addr(addr);
        let set = self.set_of(line);
        let ways = self.config.ways;
        let tick = self.tick;
        let slice = &mut self.lines[set * ways..(set + 1) * ways];
        if let Some(l) = slice.iter_mut().find(|l| l.holds(line)) {
            l.lru = tick; // already resident
            return None;
        }
        // The first invalid way, else the least recently used one.
        let victim = slice.iter_mut().min_by_key(|l| l.lru).expect("ways >= 1");
        let evicted = (victim.lru != 0).then_some(victim.tag << self.line_shift);
        *victim = Line {
            tag: line,
            lru: tick,
        };
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64B lines.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40));
        assert_eq!(c.fill(0x40), None);
        assert!(c.access(0x40));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().miss_rate(), Some(0.5));
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.fill(0x40);
        assert!(c.access(0x7f));
        assert!(!c.access(0x80)); // next line
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Set 0 lines: line addresses with bit0 (of line number) == 0:
        // 0x000, 0x080, 0x100 map to sets 0,0? lines 0,2,4 -> set 0,0,0
        // with 2 sets: set = line & 1. Lines 0, 2, 4 are all set 0.
        c.fill(0x000);
        c.fill(0x100);
        c.access(0x000); // make line 0 MRU
        let evicted = c.fill(0x200); // evicts line at 0x100
        assert_eq!(evicted, Some(0x100));
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn fill_of_resident_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x100);
        assert_eq!(c.fill(0x000), None);
        assert!(c.probe(0x100));
    }

    #[test]
    fn a_line_is_a_tag_and_a_tick() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
    }

    #[test]
    fn invalid_ways_fill_before_any_valid_way_is_evicted() {
        // 4 ways, one set: the first four distinct lines take the four
        // invalid ways, however recently the resident ones were used.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 4,
        });
        for addr in [0x000, 0x040, 0x080, 0x0c0] {
            assert_eq!(c.fill(addr), None, "{addr:#x} evicted a valid line");
            c.access(0x000);
        }
        for addr in [0x000, 0x040, 0x080, 0x0c0] {
            assert!(c.probe(addr), "{addr:#x} not resident");
        }
        // Only now is a valid way evicted: the least recently used.
        assert_eq!(c.fill(0x100), Some(0x040));
    }

    #[test]
    fn fill_returns_the_evicted_lines_byte_address() {
        // A line address above the set bits: line 0x2a1 of the 2-set
        // cache maps to set 1, and its byte address is 0xa840.
        let mut c = tiny();
        c.fill(0xa840);
        c.fill(0x40);
        assert_eq!(c.fill(0xc0), Some(0xa840));
        assert_eq!(c.fill(0x1c0), Some(0x40));
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x100);
        for _ in 0..10 {
            assert!(c.probe(0x100));
        }
        // 0x000 was filled first; probes must not refresh 0x100.
        // Touch 0x000 via access, then fill a conflicting line: the LRU
        // victim must be 0x100.
        c.access(0x000);
        assert_eq!(c.fill(0x200), Some(0x100));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn table1_geometries_are_consistent() {
        // L1: 32KB 2-way 64B lines; L2: 1MB 4-way 128B lines.
        assert_eq!(
            CacheConfig {
                size_bytes: 32 << 10,
                line_bytes: 64,
                ways: 2
            }
            .sets(),
            256
        );
        assert_eq!(
            CacheConfig {
                size_bytes: 1 << 20,
                line_bytes: 128,
                ways: 4
            }
            .sets(),
            2048
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 192,
            line_bytes: 48,
            ways: 2,
        });
    }
}
