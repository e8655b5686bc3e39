use crate::PhysReg;

#[derive(Clone, Copy, Debug, Default)]
struct State {
    remaining: u8,
    pinned: bool,
    predicted: u8,
    /// Modeled parity error: set by the fault injector, cleared by the
    /// next write ([`UseTracker::init`] / [`UseTracker::scrub`]).
    parity_bad: bool,
}

/// Remaining-use bookkeeping for values between rename and the register
/// cache write (§3.3 of the paper).
///
/// The tracker keeps no liveness of its own: a register's word means
/// something only while the simulator's register pool holds it, and
/// [`UseTracker::init`] rewrites the whole word when the register is
/// allocated again, so nothing clears it when the register is freed.
///
/// At rename, each destination's predicted degree of use initializes a
/// counter (applying the *unknown default* when the predictor abstains
/// and pinning at the saturation limit). Consumers satisfied from the
/// bypass network decrement the counter; when the value reaches the
/// cache-write port, whatever remains becomes the cache entry's count.
///
/// # Examples
///
/// ```
/// use ubrc_core::{PhysReg, UseTracker};
///
/// let mut t = UseTracker::new(512);
/// t.init(PhysReg(3), Some(2), 1, 7);
/// t.consume(PhysReg(3)); // one consumer bypassed
/// assert_eq!(t.remaining(PhysReg(3)), 1);
/// assert!(!t.is_pinned(PhysReg(3)));
/// ```
#[derive(Clone, Debug)]
pub struct UseTracker {
    states: Vec<State>,
}

impl UseTracker {
    /// Creates a tracker for `num_pregs` physical registers.
    pub fn new(num_pregs: usize) -> Self {
        Self {
            states: vec![State::default(); num_pregs],
        }
    }

    /// Initializes the counter for a renamed destination.
    ///
    /// * `prediction` — the degree-of-use prediction, or `None` when the
    ///   predictor had no confident entry;
    /// * `unknown_default` — count assumed for unknown values;
    /// * `max_use_count` — the saturation/pinning limit.
    pub fn init(
        &mut self,
        preg: PhysReg,
        prediction: Option<u8>,
        unknown_default: u8,
        max_use_count: u8,
    ) {
        let degree = prediction.unwrap_or(unknown_default);
        let pinned = degree >= max_use_count;
        self.states[preg.0 as usize] = State {
            remaining: degree.min(max_use_count),
            pinned,
            predicted: degree.min(max_use_count),
            parity_bad: false,
        };
    }

    /// Records one consumer satisfied (bypass or cache read) before the
    /// value reaches the cache. Pinned counters do not decrement.
    pub fn consume(&mut self, preg: PhysReg) {
        let s = &mut self.states[preg.0 as usize];
        if !s.pinned {
            s.remaining = s.remaining.saturating_sub(1);
        }
    }

    /// The remaining predicted uses.
    pub fn remaining(&self, preg: PhysReg) -> u8 {
        self.states[preg.0 as usize].remaining
    }

    /// The initial (clamped) predicted degree for this value.
    pub fn predicted(&self, preg: PhysReg) -> u8 {
        self.states[preg.0 as usize].predicted
    }

    /// True when the value's degree saturated the counter and it should
    /// be pinned in the cache.
    pub fn is_pinned(&self, preg: PhysReg) -> bool {
        self.states[preg.0 as usize].pinned
    }

    /// Fault-injection hook: flips the low bits of the stored
    /// remaining-use counter and clears its pinned flag, as a bit upset
    /// in the counter SRAM would. The caller picks a register that
    /// holds a live value.
    pub fn corrupt_counter(&mut self, preg: PhysReg) {
        let s = &mut self.states[preg.0 as usize];
        s.remaining ^= 0b111;
        s.pinned = false;
    }

    /// Recoverable fault-injection hook: like
    /// [`UseTracker::corrupt_counter`], but also marks the counter's
    /// parity bad so a protected read
    /// ([`RegCacheConfig::protect`](crate::RegCacheConfig::protect))
    /// detects the upset and scrubs it instead of consuming the
    /// corrupted count.
    pub fn flip_use_counter(&mut self, preg: PhysReg) {
        self.corrupt_counter(preg);
        self.states[preg.0 as usize].parity_bad = true;
    }

    /// True when the counter word's modeled parity is clean.
    pub fn parity_ok(&self, preg: PhysReg) -> bool {
        !self.states[preg.0 as usize].parity_bad
    }

    /// Recovery scrub after a detected parity error: the counter bits
    /// are untrusted, so rewrite the word to the conservative
    /// zero-remaining, unpinned state (the counters are hints — a wrong
    /// scrub costs performance, never correctness).
    pub fn scrub(&mut self, preg: PhysReg) {
        let s = &mut self.states[preg.0 as usize];
        s.remaining = 0;
        s.pinned = false;
        s.parity_bad = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_default_applies_when_predictor_abstains() {
        let mut t = UseTracker::new(8);
        t.init(PhysReg(0), None, 1, 7);
        assert_eq!(t.remaining(PhysReg(0)), 1);
        assert_eq!(t.predicted(PhysReg(0)), 1);
    }

    #[test]
    fn saturated_predictions_pin() {
        let mut t = UseTracker::new(8);
        t.init(PhysReg(0), Some(9), 1, 7);
        assert!(t.is_pinned(PhysReg(0)));
        assert_eq!(t.remaining(PhysReg(0)), 7);
        t.consume(PhysReg(0));
        assert_eq!(
            t.remaining(PhysReg(0)),
            7,
            "pinned counters do not decrement"
        );
    }

    #[test]
    fn consume_decrements_and_saturates_at_zero() {
        let mut t = UseTracker::new(8);
        t.init(PhysReg(1), Some(2), 1, 7);
        t.consume(PhysReg(1));
        t.consume(PhysReg(1));
        t.consume(PhysReg(1));
        assert_eq!(t.remaining(PhysReg(1)), 0);
    }

    #[test]
    fn exact_max_prediction_pins() {
        let mut t = UseTracker::new(8);
        t.init(PhysReg(3), Some(7), 1, 7);
        assert!(t.is_pinned(PhysReg(3)));
    }

    #[test]
    fn parity_fault_is_detected_and_scrubbed() {
        let mut t = UseTracker::new(8);
        t.init(PhysReg(4), Some(9), 1, 7);
        assert!(t.parity_ok(PhysReg(4)));
        t.flip_use_counter(PhysReg(4));
        assert!(!t.parity_ok(PhysReg(4)));
        t.scrub(PhysReg(4));
        assert!(t.parity_ok(PhysReg(4)));
        assert_eq!(t.remaining(PhysReg(4)), 0);
        assert!(!t.is_pinned(PhysReg(4)));
    }

    #[test]
    fn init_rewrites_the_word() {
        let mut t = UseTracker::new(8);
        t.init(PhysReg(5), Some(2), 1, 7);
        t.flip_use_counter(PhysReg(5));
        t.init(PhysReg(5), Some(3), 1, 7);
        assert!(t.parity_ok(PhysReg(5)), "a fresh init overwrites parity");
        assert_eq!(t.remaining(PhysReg(5)), 3);
    }
}
