//! Differential property test for the scheduler fast path.
//!
//! Drives a fast-kind (mirrored, lock-free) and a reference-kind
//! [`SchedTable`] through identical pseudo-random — but protocol-valid — operation
//! sequences, asserting after every single step that the two agree exactly
//! on each scheduling query the runtime uses: `state`, `published`,
//! `eligible`, `crossing_v` and `min_waiting_other` (plus the round-robin
//! turn), and that the fast side's mirror passes `check_invariants`. Any
//! divergence would let the fast scheduler produce a different
//! token order than the reference table, breaking the bit-identical
//! schedule guarantee that `stress --sched-diff` checks end to end.
//!
//! Half of the fast side's publications go through the shared [`Slots`]
//! handle, around the table, as the runtime's hot path does — so the
//! table's own copy of a running thread's clock lags at every compared
//! query.
//!
//! Every sequence also runs a second time with a watchdog failover of the
//! fast side injected at a seed-derived step: agreement must hold at the
//! failover itself and for the rest of the sequence, wherever it lands.

use std::sync::Arc;

use det_clock::{OrderPolicy, SchedKind, SchedTable, Slots};
use dmt_api::Tid;

/// Deterministic LCG (MMIX constants) driving case generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What the harness believes each simulated thread is doing. Mirrors the
/// runtime's own call discipline so every generated op is one the runtime
/// could have issued.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Model {
    /// Executing a chunk; may publish or arrive at a sync op.
    Running,
    /// Blocked at a sync op performed at this clock.
    AtSync(u64),
    /// Departed (blocked on a lock/condvar) at this saved clock.
    Departed(u64),
    /// Exited; its tid is never reused.
    Finished,
}

const MAX_THREADS: usize = 8;

struct Harness {
    fast: SchedTable,
    /// The fast table's slots, as the runtime's publishers hold them.
    slots: Arc<Slots>,
    refr: SchedTable,
    model: Vec<Model>,
    clock: Vec<u64>,
    v: u64,
}

impl Harness {
    fn new(policy: OrderPolicy) -> Harness {
        let slots = Slots::new(MAX_THREADS);
        let mut h = Harness {
            fast: SchedTable::new(SchedKind::Fast, policy, slots.clone()),
            slots,
            refr: SchedTable::new(SchedKind::Reference, policy, Slots::new(MAX_THREADS)),
            model: Vec::new(),
            clock: Vec::new(),
            v: 0,
        };
        h.register(0);
        h
    }

    fn register(&mut self, birth_clock: u64) {
        let t = Tid(self.model.len() as u32);
        self.fast.register(t, birth_clock, self.v);
        self.refr.register(t, birth_clock, self.v);
        self.model.push(Model::Running);
        self.clock.push(birth_clock);
    }

    /// Publishes thread `i`'s clock on both sides; `around` the fast table
    /// (straight into its slots) while the runtime would still do so.
    fn publish(&mut self, i: usize, around: bool) {
        let (t, clock, v) = (Tid(i as u32), self.clock[i], self.v);
        let adv_f = if around && self.fast.kind() == SchedKind::Fast {
            self.slots.publish(t, clock, v).advanced
        } else {
            self.fast.publish(t, clock, v)
        };
        assert_eq!(adv_f, self.refr.publish(t, clock, v), "publish advanced");
    }

    /// All-queries comparison; the heart of the lockstep property.
    fn check(&mut self) {
        self.fast.check_invariants().expect("mirror in step");
        for i in 0..self.model.len() {
            let t = Tid(i as u32);
            if self.model[i] == Model::Finished {
                continue;
            }
            assert_eq!(self.fast.state(t), self.refr.state(t), "state({t})");
            assert_eq!(
                self.fast.published(t),
                self.refr.published(t),
                "published({t})"
            );
            assert_eq!(
                self.fast.min_waiting_other(t),
                self.refr.min_waiting_other(t),
                "min_waiting_other({t})"
            );
            if let Model::AtSync(c) = self.model[i] {
                assert_eq!(
                    self.fast.eligible(t),
                    self.refr.eligible(t),
                    "eligible({t}) at clock {c}"
                );
                assert_eq!(
                    self.fast.crossing_v(t, c),
                    self.refr.crossing_v(t, c),
                    "crossing_v({t}, {c})"
                );
            }
        }
        let expect = match self.fast.policy() {
            OrderPolicy::InstructionCount => {
                // A table's successor — the one thread a token release
                // wakes — must be exactly the waiter the reference table
                // would grant to: the minimum (clock, tid) waiter, when
                // eligible.
                let min_waiter = self
                    .model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, m)| match m {
                        Model::AtSync(c) => Some((*c, i as u32)),
                        _ => None,
                    })
                    .min();
                min_waiter
                    .filter(|&(_, w)| self.refr.eligible(Tid(w)))
                    .map(|(_, w)| Tid(w))
            }
            OrderPolicy::RoundRobin => {
                assert_eq!(self.fast.rr_holder(), self.refr.rr_holder(), "rr_holder");
                assert_eq!(self.fast.rr_turn_v(), self.refr.rr_turn_v(), "rr_turn_v");
                let holder = self.fast.rr_holder();
                matches!(self.model.get(holder), Some(Model::AtSync(_))).then(|| Tid(holder as u32))
            }
        };
        // Both kinds name it, and so does a failed-over table.
        assert_eq!(self.fast.successor(), expect, "successor");
        assert_eq!(self.refr.successor(), expect, "reference successor");
    }

    fn step(&mut self, rng: &mut Rng) {
        self.v += 1 + rng.below(5);
        let i = rng.below(self.model.len() as u64) as usize;
        let t = Tid(i as u32);
        match self.model[i] {
            Model::Running => match rng.below(10) {
                // Publish a counter-overflow bound (the hot path).
                n @ 0..=4 => {
                    self.clock[i] += 1 + rng.below(50);
                    self.publish(i, n % 2 == 0);
                }
                // Arrive at a sync op (possibly at the current clock).
                5..=8 => {
                    self.clock[i] += rng.below(20);
                    self.fast.arrive_sync(t, self.clock[i], self.v);
                    self.refr.arrive_sync(t, self.clock[i], self.v);
                    self.model[i] = Model::AtSync(self.clock[i]);
                }
                // Spawn: the child starts at the parent's clock, which is
                // ≥ every pruning watermark (the parent is live).
                _ => {
                    if self.model.len() < MAX_THREADS {
                        self.register(self.clock[i]);
                    }
                }
            },
            Model::AtSync(_) => match rng.below(10) {
                // Granted the token and released it: resume running,
                // possibly fast-forwarded past the arrival clock.
                0..=5 => {
                    self.clock[i] += rng.below(10);
                    self.fast.resume(t, self.clock[i], self.v);
                    self.refr.resume(t, self.clock[i], self.v);
                    self.model[i] = Model::Running;
                    if self.fast.policy() == OrderPolicy::RoundRobin && self.fast.rr_holder() == i {
                        // The runtime advances the turn when the holder
                        // releases the token.
                        self.fast.rr_advance(self.v);
                        self.refr.rr_advance(self.v);
                    }
                }
                // Block on a lock or condvar: leave GMIC consideration.
                6..=8 => {
                    self.fast.depart(t, self.v);
                    self.refr.depart(t, self.v);
                    self.model[i] = Model::Departed(self.clock[i]);
                }
                // Exit (from the sync arrival, as ctx::finish does).
                _ => {
                    self.fast.finish(t, self.v);
                    self.refr.finish(t, self.v);
                    self.model[i] = Model::Finished;
                }
            },
            Model::Departed(saved) => {
                // Woken by an unlock/signal at the waker's virtual time.
                self.fast.reactivate(t, saved, self.v);
                self.refr.reactivate(t, saved, self.v);
                self.clock[i] = self.clock[i].max(saved);
                self.model[i] = Model::Running;
            }
            Model::Finished => {}
        }
        self.check();
    }
}

const STEPS: usize = 400;

/// One sequence. `failover_at` is the step before which the fast side's
/// watchdog fails it over (`None`: never) — the comparison then continues
/// against the failed-over table to the end of the sequence.
fn run_seed(policy: OrderPolicy, seed: u64, failover_at: Option<usize>) {
    let mut rng = Rng(seed);
    let mut h = Harness::new(policy);
    for step in 0..STEPS {
        if failover_at == Some(step) {
            assert!(h.fast.failover(), "first failover at step {step}");
            h.check();
        }
        h.step(&mut rng);
    }
    assert_eq!(h.fast.failover(), failover_at.is_none());
}

/// Runs `seed` clean and once more failing over at a seed-derived step.
fn run_both(policy: OrderPolicy, seed: u64) {
    run_seed(policy, seed, None);
    let at = Rng(seed ^ 0xFA11_0FE2).below(STEPS as u64) as usize;
    run_seed(policy, seed, Some(at));
}

#[test]
fn fast_and_reference_agree_under_instruction_count() {
    for seed in 0..20 {
        run_both(OrderPolicy::InstructionCount, 0x5EED_1C00 + seed);
    }
}

#[test]
fn fast_and_reference_agree_under_round_robin() {
    for seed in 0..20 {
        run_both(OrderPolicy::RoundRobin, 0x5EED_4200 + seed);
    }
}

/// Long publication streams with an active waiter: pruning fires on both
/// tables, and every query must still agree (the watermark proof in
/// `table.rs` says pruned entries can never change an answer above the
/// watermark).
#[test]
fn agreement_survives_history_pruning() {
    let mut h = Harness::new(OrderPolicy::InstructionCount);
    h.register(0); // Tid(1)
    let mut rng = Rng(0x5EED_9900);
    for round in 0..2_000u64 {
        h.v += 1;
        h.clock[0] += 1 + rng.below(8);
        h.publish(0, round % 2 == 0);
        if round % 64 == 0 {
            h.v += 1;
            h.clock[1] = h.clock[0].saturating_sub(1);
            h.fast.arrive_sync(Tid(1), h.clock[1], h.v);
            h.refr.arrive_sync(Tid(1), h.clock[1], h.v);
            h.model[1] = Model::AtSync(h.clock[1]);
            h.check();
            h.v += 1;
            h.fast.resume(Tid(1), h.clock[1], h.v);
            h.refr.resume(Tid(1), h.clock[1], h.v);
            h.model[1] = Model::Running;
        }
        h.check();
    }
    // Pruning actually happened: the publisher's history stayed bounded.
    assert!(h.fast.history_len(Tid(0)) < 512, "fast history unbounded");
    assert!(
        h.refr.history_len(Tid(0)) < 512,
        "reference history unbounded"
    );
}
