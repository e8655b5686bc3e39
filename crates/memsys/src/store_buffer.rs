use std::collections::VecDeque;

/// A coalescing store buffer.
///
/// Retired stores enter the buffer (coalescing with an in-flight entry
/// for the same line) and drain to the data cache in the background at a
/// fixed rate. When the buffer is full and the incoming store cannot
/// coalesce, retirement must stall — the caller checks the return of
/// [`StoreBuffer::push`].
///
/// # Examples
///
/// ```
/// use ubrc_memsys::StoreBuffer;
///
/// let mut sb = StoreBuffer::new(2, 64, 2);
/// assert!(sb.push(0x1000, 0));
/// assert!(sb.push(0x1008, 0)); // coalesces into the same line
/// assert_eq!(sb.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct StoreBuffer {
    entries: VecDeque<(u64, u64)>, // (line, enqueue time)
    capacity: usize,
    /// log2 of the line size.
    line_shift: u32,
    drain_interval: u64,
    last_drain: u64,
}

impl StoreBuffer {
    /// Creates a buffer of `capacity` line entries that drains one entry
    /// every `drain_interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `drain_interval` is zero, or
    /// `line_bytes` is not a power of two.
    pub fn new(capacity: usize, line_bytes: usize, drain_interval: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(drain_interval > 0, "drain interval must be positive");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            line_shift: line_bytes.trailing_zeros(),
            drain_interval,
            last_drain: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Attempts to retire a store to `addr` at time `now`. Returns
    /// `false` when the buffer is full and the store does not coalesce
    /// (the caller must stall retirement and retry).
    pub fn push(&mut self, addr: u64, now: u64) -> bool {
        let line = addr >> self.line_shift;
        if self.entries.iter().any(|&(l, _)| l == line) {
            return true; // coalesced
        }
        if self.entries.len() == self.capacity {
            return false;
        }
        self.entries.push_back((line, now));
        true
    }

    /// Advances time to `now`, draining at the configured rate. Returns
    /// the byte addresses of lines written out (the caller forwards them
    /// to the data cache).
    pub fn drain(&mut self, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while !self.entries.is_empty() && now.saturating_sub(self.last_drain) >= self.drain_interval
        {
            let (line, _) = self.entries.pop_front().expect("non-empty");
            out.push(line << self.line_shift);
            self.last_drain += self.drain_interval;
        }
        if self.entries.is_empty() {
            self.last_drain = now;
        }
        out
    }

    /// True when a load from `addr` would be forwarded from a buffered
    /// (not yet drained) store line.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.entries.iter().any(|&(l, _)| l == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_keeps_one_entry_per_line() {
        let mut sb = StoreBuffer::new(4, 64, 2);
        assert!(sb.push(0x100, 0));
        assert!(sb.push(0x108, 0));
        assert!(sb.push(0x13f, 0));
        assert_eq!(sb.len(), 1);
        assert!(sb.push(0x140, 0));
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn full_buffer_rejects_new_lines_but_coalesces() {
        let mut sb = StoreBuffer::new(2, 64, 1000);
        assert!(sb.push(0x000, 0));
        assert!(sb.push(0x040, 0));
        assert!(!sb.push(0x080, 0)); // full, new line
        assert!(sb.push(0x000, 0)); // full, but coalesces
    }

    #[test]
    fn drain_rate_is_respected() {
        let mut sb = StoreBuffer::new(4, 64, 2);
        sb.push(0x000, 0);
        sb.push(0x040, 0);
        sb.push(0x080, 0);
        assert!(sb.drain(1).is_empty());
        assert_eq!(sb.drain(2), vec![0x000]);
        assert_eq!(sb.drain(6), vec![0x040, 0x080]);
        assert!(sb.is_empty());
    }

    #[test]
    fn probe_sees_undrained_lines() {
        let mut sb = StoreBuffer::new(4, 64, 100);
        sb.push(0x200, 0);
        assert!(sb.probe(0x23f));
        assert!(!sb.probe(0x240));
    }

    #[test]
    fn drain_clock_does_not_accumulate_credit_while_empty() {
        let mut sb = StoreBuffer::new(4, 64, 10);
        sb.push(0x000, 0);
        assert_eq!(sb.drain(10).len(), 1);
        // Long idle period...
        assert!(sb.drain(1000).is_empty());
        sb.push(0x040, 1000);
        // ...must not let the next drain happen instantly.
        assert!(sb.drain(1001).is_empty());
        assert_eq!(sb.drain(1010).len(), 1);
    }
}
