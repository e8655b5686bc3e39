//! Execute stage: deferred-event processing.
//!
//! Execution itself is charged at issue time (the functional emulator
//! already ran ahead); what remains per cycle is draining the
//! [`EventLatch`](super::EventLatch): load-hit retimes, register-cache
//! writes, backing-file fills, and late bypass decrements. Armed
//! faults also land here, at the top of the cycle, before any event is
//! processed.

use super::{CoreState, Storage};
use crate::inject::FaultKind;
use ubrc_core::PhysReg;

impl CoreState {
    /// The fault-injection stage: a no-op unless a fault plan armed an
    /// injector.
    pub(crate) fn inject_stage(&mut self, now: u64) {
        if self.injector.is_some() {
            self.apply_faults(now);
        }
    }

    /// The execute/deferred-event stage: corrects mis-speculated load
    /// timings, then drains the due register-cache events.
    pub(crate) fn execute_stage(&mut self, now: u64) {
        self.process_retimes(now);
        self.process_cache_events(now);
    }

    /// Lands armed faults whose target state exists this cycle.
    fn apply_faults(&mut self, now: u64) {
        let Some(mut inj) = self.injector.take() else {
            return;
        };
        inj.arm(now);
        let mut i = 0;
        while i < inj.armed.len() {
            let target = inj.armed[i].target;
            let landed = match inj.armed[i].kind {
                FaultKind::FlipUsePrediction => {
                    let r = inj.next_u64() as usize;
                    if let Storage::Cached(c) = &mut self.storage {
                        let p = held_from(&self.pool.held, r).next();
                        p.inspect(|&p| c.tracker.corrupt_counter(PhysReg(p)))
                            .is_some()
                    } else {
                        false
                    }
                }
                FaultKind::CorruptReplacement => {
                    let r = inj.next_u64() as usize;
                    if let Storage::Cached(c) = &mut self.storage {
                        c.cache.corrupt_metadata(r).is_some()
                    } else {
                        false
                    }
                }
                FaultKind::DropFill => {
                    if self.events.fills.items.is_empty() {
                        false
                    } else {
                        let idx = (inj.next_u64() as usize) % self.events.fills.items.len();
                        self.events.fills.items.swap_remove(idx);
                        self.events.fills.refresh_due();
                        true
                    }
                }
                // Recoverable: marks a resident cache entry's parity
                // bad; detected (and the entry invalidated and
                // re-filled) at the next protected read.
                FaultKind::FlipCacheData => {
                    if let Storage::Cached(c) = &mut self.storage {
                        match target {
                            Some(t) => c.cache.corrupt_preg_data(PhysReg(t)),
                            None => c.cache.corrupt_data(inj.next_u64() as usize).is_some(),
                        }
                    } else {
                        false
                    }
                }
                // Recoverable: flips a live use counter and marks its
                // parity bad; scrubbed at the next protected counter
                // read. The checker suspends its mirror for the preg
                // until the scrub, since the corruption is *supposed*
                // to go unnoticed until then.
                FaultKind::FlipUseCounter => {
                    let hit = if let Storage::Cached(c) = &mut self.storage {
                        let held = &self.pool.held;
                        let p = match target {
                            Some(t) => Some(t).filter(|&t| held[t as usize]),
                            None => held_from(held, inj.next_u64() as usize).next(),
                        };
                        p.inspect(|&p| c.tracker.flip_use_counter(PhysReg(p)))
                    } else {
                        None
                    };
                    if let Some(p) = hit {
                        if let Some(ck) = self.checker.as_mut() {
                            ck.on_counter_fault(p);
                        }
                        true
                    } else {
                        false
                    }
                }
                // Recoverable, but only by machine check: the backing
                // file is the architected copy. Lands on an active
                // register so the fault is reachable by a read.
                FaultKind::FlipBackingWord => {
                    if let Storage::Cached(c) = &mut self.storage {
                        let held = &self.pool.held;
                        match target {
                            Some(t) => held[t as usize] && c.backing.corrupt_word(PhysReg(t)),
                            None => held_from(held, inj.next_u64() as usize)
                                .any(|p| c.backing.corrupt_word(PhysReg(p))),
                        }
                    } else {
                        false
                    }
                }
                // Lands on the fetch path when a correct-path record
                // with a data result comes by.
                FaultKind::CorruptRecord => false,
            };
            if landed {
                inj.armed.swap_remove(i);
            } else {
                i += 1;
            }
        }
        self.injector = Some(inj);
    }

    /// Corrects the advertised readiness of load results whose L1-hit
    /// assumption just failed: dependents that have not issued yet wait
    /// for the true latency (those in the shadow were squashed when the
    /// miss was detected).
    fn process_retimes(&mut self, now: u64) {
        let (preg_gen, preg_time) = (&self.preg_gen, &mut self.preg_time);
        self.events.retimes.drain_due(now, |(p, gen, timing)| {
            if preg_gen[p as usize] == gen {
                preg_time[p as usize] = timing;
            }
        });
    }

    fn process_cache_events(&mut self, now: u64) {
        let protected = self.config.storage.protected();
        let mut scrubbed: Vec<u16> = Vec::new();
        let Storage::Cached(c) = &mut self.storage else {
            return;
        };
        // Every free bumps the register's generation, so an event whose
        // generation still matches belongs to the value that holds it.
        let preg_gen = &self.preg_gen;
        let live = |p: u16, gen: u32| preg_gen[p as usize] == gen;
        // Initial writes the cycle after execution completes.
        self.events.writes.drain_due(now, |(p, gen)| {
            if live(p, gen) {
                // The write decision reads the use counter; a protected
                // read detects a flipped counter here and scrubs it (the
                // write proceeds with the conservative scrubbed count).
                if protected && !c.tracker.parity_ok(PhysReg(p)) {
                    c.tracker.scrub(PhysReg(p));
                    scrubbed.push(p);
                }
                let uses = c.tracker.remaining(PhysReg(p));
                let pinned = c.tracker.is_pinned(PhysReg(p));
                let v = c.values[p as usize];
                c.cache
                    .write(PhysReg(p), v.set, uses, pinned, v.pre_write_bypasses, now);
            }
        });
        // Fills completing after a backing-file read.
        let checker = &mut self.checker;
        self.events.fills.drain_due(now, |(p, gen)| {
            if live(p, gen) {
                c.cache.fill(PhysReg(p), c.values[p as usize].set, now);
                if let Some(ck) = checker.as_mut() {
                    ck.on_fill_applied(p, gen);
                }
            }
        });
        // Second-stage bypass consumers decrement the entry after the
        // write lands (§3.1: they cannot affect the write decision).
        self.events.bypass_decs.drain_due(now, |(p, gen)| {
            if live(p, gen) {
                c.cache.bypass_consume(PhysReg(p), c.values[p as usize].set);
            }
        });
        for p in scrubbed {
            if let Some(ck) = self.checker.as_mut() {
                ck.on_scrub(p);
            }
            let tid = self.thread_of_preg(p);
            self.note_recovery(tid, now, 0);
        }
    }
}

/// The registers the pool holds, from `r` on and wrapping round the
/// file: where a fault on a live value's register may land, in the
/// order it tries them.
fn held_from(held: &[bool], r: usize) -> impl Iterator<Item = u16> + '_ {
    let n = held.len();
    (0..n)
        .map(move |k| ((r + k) % n) as u16)
        .filter(|&p| held[p as usize])
}
