use crate::history::GlobalHistory;
use std::fmt;

/// Configuration of the degree-of-use predictor.
///
/// The default matches Table 1 of the paper: 4K entries, 4-way
/// set-associative, 2-bit confidence, 6-bit tag, 4-bit prediction, and
/// 6 bits of control-flow context in the index (≈9KB of state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DouseConfig {
    /// Number of sets (entries = `sets * ways`).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Bits of global branch history hashed into the index.
    pub history_bits: u32,
    /// Saturation ceiling of the confidence counter.
    pub conf_max: u8,
    /// Minimum confidence for a usable prediction.
    pub conf_threshold: u8,
    /// Largest representable degree (4-bit field → 15). Predictions
    /// saturate here; the register cache additionally clamps to its own
    /// pinning limit.
    pub max_degree: u8,
}

impl Default for DouseConfig {
    fn default() -> Self {
        Self {
            sets: 1024,
            ways: 4,
            history_bits: 6,
            conf_max: 3,
            conf_threshold: 2,
            max_degree: 15,
        }
    }
}

impl DouseConfig {
    /// Checks that a predictor can be built from this configuration:
    /// [`DegreeOfUsePredictor::new`] panics with the error's message.
    ///
    /// # Errors
    ///
    /// Returns the first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), DouseConfigError> {
        if !self.sets.is_power_of_two() {
            return Err(DouseConfigError::Sets { sets: self.sets });
        }
        if self.ways == 0 {
            return Err(DouseConfigError::ZeroWays);
        }
        Ok(())
    }
}

/// A [`DouseConfig`] no predictor can be built from, from
/// [`DouseConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DouseConfigError {
    /// The set count is not a power of two (the index is a bit mask).
    Sets {
        /// Configured set count.
        sets: usize,
    },
    /// The associativity is zero.
    ZeroWays,
}

impl fmt::Display for DouseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DouseConfigError::Sets { sets } => {
                write!(f, "sets must be a power of two (got {sets})")
            }
            DouseConfigError::ZeroWays => write!(f, "ways must be at least 1"),
        }
    }
}

impl std::error::Error for DouseConfigError {}

/// Running accuracy statistics for the predictor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DouseStats {
    /// Training events where the predictor had supplied a confident
    /// prediction.
    pub predicted: u64,
    /// Of those, how many matched the actual degree.
    pub correct: u64,
    /// Training events with no confident prediction (unknown default
    /// applies at rename).
    pub unknown: u64,
}

impl DouseStats {
    /// Fraction of confident predictions that were exactly right, or
    /// `None` before any prediction has been scored.
    pub fn accuracy(&self) -> Option<f64> {
        if self.predicted == 0 {
            None
        } else {
            Some(self.correct as f64 / self.predicted as f64)
        }
    }

    /// Fraction of training events covered by a confident prediction.
    pub fn coverage(&self) -> Option<f64> {
        let total = self.predicted + self.unknown;
        if total == 0 {
            None
        } else {
            Some(self.predicted as f64 / total as f64)
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    tag: u8,
    pred: u8,
    conf: u8,
    lru: u32,
    valid: bool,
}

/// History-based degree-of-use predictor (Butts & Sohi, MICRO 2002).
///
/// At rename, [`DegreeOfUsePredictor::predict`] recalls how many
/// consumers this static instruction's result had on previous dynamic
/// instances with similar control-flow context. Confidence gating makes
/// the common single-use case nearly always correct; unknown values fall
/// back to the register cache's *unknown default*.
///
/// # Examples
///
/// ```
/// use ubrc_frontend::{DegreeOfUsePredictor, GlobalHistory};
///
/// let mut p = DegreeOfUsePredictor::default();
/// let h = GlobalHistory::new();
/// assert_eq!(p.predict(0x1000, h), None); // untrained
/// p.train(0x1000, h, 2);
/// p.train(0x1000, h, 2);
/// assert_eq!(p.predict(0x1000, h), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct DegreeOfUsePredictor {
    config: DouseConfig,
    entries: Vec<Entry>, // sets * ways
    tick: u32,
    stats: DouseStats,
}

impl Default for DegreeOfUsePredictor {
    fn default() -> Self {
        Self::new(DouseConfig::default())
    }
}

impl DegreeOfUsePredictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics with the [`DouseConfig::validate`] error's message unless
    /// `sets` is a power of two and `ways >= 1`.
    pub fn new(config: DouseConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self {
            entries: vec![Entry::default(); config.sets * config.ways],
            config,
            tick: 0,
            stats: DouseStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DouseConfig {
        &self.config
    }

    /// Accuracy/coverage statistics accumulated by training.
    pub fn stats(&self) -> &DouseStats {
        &self.stats
    }

    fn index(&self, pc: u64, hist: GlobalHistory) -> usize {
        let h = hist.bits(self.config.history_bits);
        (((pc >> 2) ^ (h << 4)) as usize) & (self.config.sets - 1)
    }

    fn tag(pc: u64) -> u8 {
        ((pc >> 2) & 0x3f) as u8
    }

    fn set(&self, idx: usize) -> &[Entry] {
        &self.entries[idx * self.config.ways..(idx + 1) * self.config.ways]
    }

    fn set_mut(&mut self, idx: usize) -> &mut [Entry] {
        &mut self.entries[idx * self.config.ways..(idx + 1) * self.config.ways]
    }

    /// Predicts the degree of use of the value produced at `pc`, or
    /// `None` when the predictor has no confident entry (the consumer
    /// should apply the unknown default).
    pub fn predict(&self, pc: u64, hist: GlobalHistory) -> Option<u8> {
        let idx = self.index(pc, hist);
        let tag = Self::tag(pc);
        let threshold = self.config.conf_threshold;
        self.set(idx)
            .iter()
            .find(|e| e.valid && e.tag == tag && e.conf >= threshold)
            .map(|e| e.pred)
    }

    /// Trains with the actual consumer count observed when the value's
    /// physical register was freed. Also scores accuracy statistics.
    pub fn train(&mut self, pc: u64, hist: GlobalHistory, actual: u8) {
        let actual = actual.min(self.config.max_degree);
        match self.predict(pc, hist) {
            Some(p) => {
                self.stats.predicted += 1;
                if p == actual {
                    self.stats.correct += 1;
                }
            }
            None => self.stats.unknown += 1,
        }

        self.tick += 1;
        let tick = self.tick;
        let idx = self.index(pc, hist);
        let tag = Self::tag(pc);
        let conf_max = self.config.conf_max;
        let set = self.set_mut(idx);
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
            if e.pred == actual {
                e.conf = (e.conf + 1).min(conf_max);
            } else if e.conf == 0 {
                e.pred = actual;
                e.conf = 1;
            } else {
                e.conf -= 1;
            }
            e.lru = tick;
            return;
        }
        // Miss: replace invalid first, else LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|e| (e.valid, e.lru))
            .expect("ways >= 1");
        *victim = Entry {
            tag,
            pred: actual,
            conf: 1,
            lru: tick,
            valid: true,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> GlobalHistory {
        GlobalHistory::new()
    }

    #[test]
    fn untrained_predicts_none() {
        let p = DegreeOfUsePredictor::default();
        assert_eq!(p.predict(0x42f0, h()), None);
    }

    #[test]
    fn confidence_gates_predictions() {
        let mut p = DegreeOfUsePredictor::default();
        p.train(0x100, h(), 3);
        // conf = 1 < threshold 2: still unknown.
        assert_eq!(p.predict(0x100, h()), None);
        p.train(0x100, h(), 3);
        assert_eq!(p.predict(0x100, h()), Some(3));
    }

    #[test]
    fn mispredictions_decay_confidence_then_retrain() {
        let mut p = DegreeOfUsePredictor::default();
        for _ in 0..3 {
            p.train(0x200, h(), 1);
        }
        assert_eq!(p.predict(0x200, h()), Some(1));
        // The instruction changes behaviour.
        p.train(0x200, h(), 4); // conf 3 -> 2
        p.train(0x200, h(), 4); // conf 2 -> 1, below threshold
        assert_eq!(p.predict(0x200, h()), None);
        p.train(0x200, h(), 4); // conf 1 -> 0
        p.train(0x200, h(), 4); // retrains pred to 4, conf 1
        p.train(0x200, h(), 4); // conf 2
        assert_eq!(p.predict(0x200, h()), Some(4));
    }

    #[test]
    fn history_context_separates_predictions() {
        let mut p = DegreeOfUsePredictor::default();
        let mut ha = GlobalHistory::new();
        ha.push(true);
        let mut hb = GlobalHistory::new();
        hb.push(false);
        for _ in 0..3 {
            p.train(0x300, ha, 1);
            p.train(0x300, hb, 5);
        }
        assert_eq!(p.predict(0x300, ha), Some(1));
        assert_eq!(p.predict(0x300, hb), Some(5));
    }

    #[test]
    fn degree_saturates_at_max() {
        let mut p = DegreeOfUsePredictor::default();
        p.train(0x400, h(), 200);
        p.train(0x400, h(), 200);
        assert_eq!(p.predict(0x400, h()), Some(15));
    }

    #[test]
    fn lru_replacement_within_set() {
        let cfg = DouseConfig {
            sets: 1,
            ways: 2,
            ..DouseConfig::default()
        };
        let mut p = DegreeOfUsePredictor::new(cfg);
        // Three distinct tags contend for two ways (same set since
        // sets=1). Tags come from pc bits [7:2].
        for _ in 0..2 {
            p.train(0x04, h(), 1);
            p.train(0x08, h(), 2);
        }
        p.train(0x0c, h(), 3); // evicts LRU = tag of 0x04
        p.train(0x0c, h(), 3);
        assert_eq!(p.predict(0x08, h()), Some(2));
        assert_eq!(p.predict(0x0c, h()), Some(3));
        assert_eq!(p.predict(0x04, h()), None);
    }

    #[test]
    fn stats_track_accuracy_and_coverage() {
        let mut p = DegreeOfUsePredictor::default();
        p.train(0x500, h(), 1); // unknown
        p.train(0x500, h(), 1); // unknown (conf 1)
        p.train(0x500, h(), 1); // predicted correct
        p.train(0x500, h(), 2); // predicted wrong
        let s = p.stats();
        assert_eq!(s.unknown, 2);
        assert_eq!(s.predicted, 2);
        assert_eq!(s.correct, 1);
        assert_eq!(s.accuracy(), Some(0.5));
        assert_eq!(s.coverage(), Some(0.5));
    }

    #[test]
    fn high_accuracy_on_stable_code() {
        // A "program" of 64 static instructions with fixed degrees,
        // revisited many times: accuracy should approach the paper's 97%.
        let mut p = DegreeOfUsePredictor::default();
        let degrees: Vec<u8> = (0..64u64)
            .map(|i| (i % 4 + (i % 7 == 0) as u64) as u8)
            .collect();
        for _ in 0..50 {
            for (i, &d) in degrees.iter().enumerate() {
                p.train(0x1000 + 4 * i as u64, h(), d);
            }
        }
        let acc = p.stats().accuracy().unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = DegreeOfUsePredictor::new(DouseConfig {
            sets: 3,
            ..DouseConfig::default()
        });
    }
}
