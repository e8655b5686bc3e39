//! Deterministic fault injection.
//!
//! A [`FaultPlan`] arms faults at chosen cycles; each armed fault
//! lands at the first opportunity where its target state exists (a
//! live tracked value, a resident cache entry, a pending fill, a
//! fetched correct-path record). Target selection within a cycle is
//! driven by a seeded splitmix64 stream, so a given plan corrupts the
//! same state on every run — which is what lets the detection tests
//! assert *which* checker catches each fault class.
//!
//! Fault classes and their intended detectors:
//!
//! * [`FaultKind::FlipUsePrediction`] — flips bits of the stored
//!   remaining-use counter of a live value (a use-predictor
//!   output/counter-SRAM upset). Detected by the invariant checker's
//!   use-tracker mirror.
//! * [`FaultKind::DropFill`] — deletes a scheduled register-cache fill
//!   event. Detected by the checker's fill-obligation mirror when the
//!   due cycle passes unfilled.
//! * [`FaultKind::CorruptReplacement`] — unpins a resident entry and
//!   forces its use counter to 255. Detected by the cache audit
//!   (counter exceeds `max_use_count`) or the pinned-entry cross-check.
//! * [`FaultKind::CorruptRecord`] — flips one bit of a fetched
//!   correct-path record's architectural result. Timing-neutral;
//!   detected by the co-simulation oracle at retirement.
//!
//! The *recoverable* classes model transient upsets in the structures a
//! protected register cache (`RegCacheConfig::protect`, spec key
//! `protect=on`) guards with parity. Protection detects each upset at
//! the read port and recovers instead of diverging, so a plan with a
//! recoverable kind is rejected without it:
//!
//! * [`FaultKind::FlipCacheData`] — flips a data bit of a resident
//!   register-cache entry. Detected by the cache read port's parity
//!   check; recovered by invalidate-and-refill from the backing file.
//! * [`FaultKind::FlipUseCounter`] — flips bits of a live value's
//!   remaining-use counter *and* marks its parity bad. Detected at the
//!   counter read; recovered by scrubbing to the conservative
//!   zero-remaining state (counters are hints, never correctness).
//! * [`FaultKind::FlipBackingWord`] — flips a bit of a backing-file
//!   word (the architected copy). Detected at the miss-read port;
//!   recovered by a machine-check squash-and-replay of the consuming
//!   thread from its last retired instruction.

/// A deterministic fault-injection campaign (`SimConfig::fault_plan`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for within-cycle target selection.
    pub seed: u64,
    /// The faults to inject.
    pub faults: Vec<FaultSpec>,
    /// Optional recurring fault: re-armed every `period` cycles (for
    /// fault-rate sweeps). At most one instance is armed at a time.
    pub periodic: Option<PeriodicFault>,
}

impl FaultPlan {
    /// A plan injecting one fault of `kind` at `at_cycle`.
    pub fn single(seed: u64, at_cycle: u64, kind: FaultKind) -> Self {
        Self {
            seed,
            faults: vec![FaultSpec {
                at_cycle,
                kind,
                target: None,
            }],
            periodic: None,
        }
    }

    /// A plan re-arming one fault of `kind` every `period` cycles.
    pub fn periodic(seed: u64, period: u64, kind: FaultKind) -> Self {
        Self {
            seed,
            faults: Vec::new(),
            periodic: Some(PeriodicFault {
                period,
                kind,
                target: None,
            }),
        }
    }

    /// Like [`FaultPlan::periodic`], aimed at physical register
    /// `target` (useful for SMT isolation tests: faults land only in
    /// one thread's slice of the register file).
    pub fn periodic_targeted(seed: u64, period: u64, kind: FaultKind, target: u16) -> Self {
        Self {
            seed,
            faults: Vec::new(),
            periodic: Some(PeriodicFault {
                period,
                kind,
                target: Some(target),
            }),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.periodic.is_none()
    }

    /// Validates the plan against the machine it will run on: `period`
    /// must be non-zero, targets must name existing physical registers,
    /// and recoverable kinds require `protected` storage (otherwise a
    /// detected-and-recovered campaign would silently become a
    /// corruption campaign).
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate(&self, phys_regs: usize, protected: bool) -> Result<(), FaultPlanError> {
        let check_kind = |kind: FaultKind, target: Option<u16>| {
            if let Some(t) = target {
                if t as usize >= phys_regs {
                    return Err(FaultPlanError::TargetOutOfRange {
                        target: t,
                        phys_regs,
                    });
                }
            }
            if kind.is_recoverable() && !protected {
                return Err(FaultPlanError::RecoverableWithoutProtection { kind });
            }
            Ok(())
        };
        for f in &self.faults {
            check_kind(f.kind, f.target)?;
        }
        if let Some(p) = &self.periodic {
            if p.period == 0 {
                return Err(FaultPlanError::ZeroPeriod);
            }
            check_kind(p.kind, p.target)?;
        }
        Ok(())
    }
}

/// A malformed [`FaultPlan`], reported by [`FaultPlan::validate`]
/// (which the simulator's `try_new_smt` runs before
/// construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A periodic fault with `period == 0` would arm every cycle's
    /// modulus check never (and means nothing physically).
    ZeroPeriod,
    /// A targeted fault names a physical register the machine does not
    /// have.
    TargetOutOfRange {
        /// The requested register.
        target: u16,
        /// The machine's physical register count.
        phys_regs: usize,
    },
    /// A recoverable fault kind was requested without the protection
    /// that detects it.
    RecoverableWithoutProtection {
        /// The offending fault kind.
        kind: FaultKind,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ZeroPeriod => {
                write!(f, "periodic fault period must be non-zero")
            }
            FaultPlanError::TargetOutOfRange { target, phys_regs } => write!(
                f,
                "fault target p{target} out of range (machine has {phys_regs} physical registers)"
            ),
            FaultPlanError::RecoverableWithoutProtection { kind } => write!(
                f,
                "recoverable fault {kind:?} requires a protected register cache \
                 (spec key protect=on, RegCacheConfig::protect)"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One fault: what to corrupt and when to arm it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cycle at which the fault becomes armed; it lands at the first
    /// applicable opportunity from then on.
    pub at_cycle: u64,
    /// The corruption to perform.
    pub kind: FaultKind,
    /// Optional physical-register target; `None` lets the seeded
    /// stream pick among the applicable candidates.
    pub target: Option<u16>,
}

/// A recurring fault for rate sweeps ([`FaultPlan::periodic`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeriodicFault {
    /// Re-arm one fault every `period` cycles (must be non-zero).
    pub period: u64,
    /// The corruption to perform.
    pub kind: FaultKind,
    /// Optional physical-register target.
    pub target: Option<u16>,
}

/// The classes of state corruption the injector can perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Corrupt the stored remaining-use counter of a live value.
    FlipUsePrediction,
    /// Drop a scheduled register-cache fill.
    DropFill,
    /// Corrupt a resident cache entry's replacement metadata.
    CorruptReplacement,
    /// Flip one architectural-result bit in a fetched record.
    CorruptRecord,
    /// Flip a data bit of a resident cache entry (parity-detectable).
    FlipCacheData,
    /// Flip a live value's use counter, parity marked (detectable).
    FlipUseCounter,
    /// Flip a bit of a backing-file word (parity-detectable; recovery
    /// needs a machine-check squash).
    FlipBackingWord,
}

impl FaultKind {
    /// True for the parity-detectable kinds a protected register cache
    /// recovers from.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            FaultKind::FlipCacheData | FaultKind::FlipUseCounter | FaultKind::FlipBackingWord
        )
    }
}

/// One armed fault instance awaiting its landing opportunity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ArmedFault {
    pub(crate) kind: FaultKind,
    pub(crate) target: Option<u16>,
}

pub(crate) struct Injector {
    state: u64,
    pending: Vec<FaultSpec>,
    periodic: Option<PeriodicFault>,
    pub(crate) armed: Vec<ArmedFault>,
}

impl Injector {
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        Self {
            // splitmix64 degenerates briefly from state 0; mix the seed
            // once so seed 0 is as good as any.
            state: plan.seed ^ 0x6A09_E667_F3BC_C909,
            pending: plan.faults.clone(),
            periodic: plan.periodic,
            armed: Vec::new(),
        }
    }

    /// Moves faults whose cycle has arrived into the armed set, and
    /// re-arms the periodic fault on its period (at most one armed
    /// instance at a time, so a fault that cannot land yet does not
    /// pile up).
    pub(crate) fn arm(&mut self, now: u64) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].at_cycle <= now {
                let spec = self.pending.swap_remove(i);
                self.armed.push(ArmedFault {
                    kind: spec.kind,
                    target: spec.target,
                });
            } else {
                i += 1;
            }
        }
        if let Some(p) = self.periodic {
            if now > 0
                && now.is_multiple_of(p.period)
                && !self.armed.iter().any(|a| a.kind == p.kind)
            {
                self.armed.push(ArmedFault {
                    kind: p.kind,
                    target: p.target,
                });
            }
        }
    }

    /// Whether any fault of `kind` is currently armed.
    pub(crate) fn armed_for(&self, kind: FaultKind) -> bool {
        self.armed.iter().any(|a| a.kind == kind)
    }

    /// Removes one armed fault of `kind` (after it landed).
    pub(crate) fn disarm(&mut self, kind: FaultKind) {
        if let Some(i) = self.armed.iter().position(|a| a.kind == kind) {
            self.armed.swap_remove(i);
        }
    }

    /// Next value of the seeded splitmix64 stream.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed() {
        let plan = FaultPlan::single(42, 0, FaultKind::DropFill);
        let mut a = Injector::new(&plan);
        let mut b = Injector::new(&plan);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Injector::new(&FaultPlan::single(43, 0, FaultKind::DropFill));
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn arming_respects_cycles() {
        let plan = FaultPlan {
            seed: 1,
            faults: vec![
                FaultSpec {
                    at_cycle: 5,
                    kind: FaultKind::DropFill,
                    target: None,
                },
                FaultSpec {
                    at_cycle: 10,
                    kind: FaultKind::CorruptRecord,
                    target: None,
                },
            ],
            periodic: None,
        };
        let mut inj = Injector::new(&plan);
        inj.arm(4);
        assert!(inj.armed.is_empty());
        inj.arm(5);
        assert!(inj.armed_for(FaultKind::DropFill));
        assert!(!inj.armed_for(FaultKind::CorruptRecord));
        inj.arm(12);
        assert!(inj.armed_for(FaultKind::CorruptRecord));
        inj.disarm(FaultKind::DropFill);
        assert!(!inj.armed_for(FaultKind::DropFill));
    }

    #[test]
    fn periodic_faults_rearm_without_piling_up() {
        let plan = FaultPlan::periodic(1, 10, FaultKind::FlipCacheData);
        let mut inj = Injector::new(&plan);
        inj.arm(0);
        assert!(inj.armed.is_empty(), "cycle 0 does not fire");
        inj.arm(10);
        assert!(inj.armed_for(FaultKind::FlipCacheData));
        inj.arm(20);
        assert_eq!(inj.armed.len(), 1, "unlanded instance is not duplicated");
        inj.disarm(FaultKind::FlipCacheData);
        inj.arm(30);
        assert!(inj.armed_for(FaultKind::FlipCacheData));
        inj.arm(31);
        assert_eq!(inj.armed.len(), 1, "off-period cycles do not arm");
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        assert_eq!(
            FaultPlan::periodic(1, 0, FaultKind::FlipCacheData).validate(512, true),
            Err(FaultPlanError::ZeroPeriod)
        );
        let out_of_range = FaultPlan {
            seed: 1,
            faults: vec![FaultSpec {
                at_cycle: 5,
                kind: FaultKind::FlipBackingWord,
                target: Some(600),
            }],
            periodic: None,
        };
        assert_eq!(
            out_of_range.validate(512, true),
            Err(FaultPlanError::TargetOutOfRange {
                target: 600,
                phys_regs: 512
            })
        );
        assert_eq!(
            FaultPlan::single(1, 5, FaultKind::FlipUseCounter).validate(512, false),
            Err(FaultPlanError::RecoverableWithoutProtection {
                kind: FaultKind::FlipUseCounter
            })
        );
        // Non-recoverable kinds never need protection.
        assert_eq!(
            FaultPlan::single(1, 5, FaultKind::CorruptRecord).validate(512, false),
            Ok(())
        );
        assert_eq!(
            FaultPlan::periodic_targeted(1, 50, FaultKind::FlipBackingWord, 40).validate(512, true),
            Ok(())
        );
        assert!(FaultPlan::default().is_empty());
    }
}
