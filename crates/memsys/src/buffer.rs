use std::collections::VecDeque;

/// A small fully-associative FIFO buffer of cache lines, used for the
/// unified prefetch/victim buffers attached to the L1 and L2 caches.
///
/// Victims displaced from the cache and prefetched lines both land here;
/// a hit promotes the line back into the cache (the caller handles the
/// promotion) and removes it from the buffer.
///
/// # Examples
///
/// ```
/// use ubrc_memsys::LineBuffer;
///
/// let mut b = LineBuffer::new(2, 64);
/// b.insert(0x1000);
/// assert!(b.take(0x1000));  // hit consumes the entry
/// assert!(!b.take(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct LineBuffer {
    lines: VecDeque<u64>,
    capacity: usize,
    /// log2 of the line size.
    line_shift: u32,
}

impl LineBuffer {
    /// Creates a buffer holding up to `capacity` lines of `line_bytes`
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `line_bytes` is not a power of
    /// two.
    pub fn new(capacity: usize, line_bytes: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            lines: VecDeque::with_capacity(capacity),
            capacity,
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Number of buffered lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Inserts the line containing `addr`, evicting the oldest entry if
    /// full. Re-inserting a resident line refreshes its age.
    pub fn insert(&mut self, addr: u64) {
        let line = self.line_of(addr);
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
        } else if self.lines.len() == self.capacity {
            self.lines.pop_front();
        }
        self.lines.push_back(line);
    }

    /// Checks residency without consuming.
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.lines.iter().any(|&l| l == line)
    }

    /// Removes and returns whether the line containing `addr` was
    /// present (a buffer hit that promotes the line into the cache).
    pub fn take(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_eviction_when_full() {
        let mut b = LineBuffer::new(2, 64);
        b.insert(0x000);
        b.insert(0x040);
        b.insert(0x080); // evicts 0x000
        assert!(!b.probe(0x000));
        assert!(b.probe(0x040));
        assert!(b.probe(0x080));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_age() {
        let mut b = LineBuffer::new(2, 64);
        b.insert(0x000);
        b.insert(0x040);
        b.insert(0x000); // refresh: 0x040 is now oldest
        b.insert(0x080);
        assert!(b.probe(0x000));
        assert!(!b.probe(0x040));
    }

    #[test]
    fn take_consumes() {
        let mut b = LineBuffer::new(4, 64);
        b.insert(0x100);
        assert!(b.take(0x13f)); // same line
        assert!(b.is_empty());
    }

    #[test]
    fn addresses_in_same_line_alias() {
        let mut b = LineBuffer::new(4, 64);
        b.insert(0x1000);
        assert!(b.probe(0x1020));
        assert!(!b.probe(0x1040));
    }
}
