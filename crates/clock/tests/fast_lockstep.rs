//! Differential property test of the clock table against its definition.
//!
//! Drives the [`SchedTable`] — the fast side: its head waiter is cached at
//! every transition and its histories are pruned at the watermark — and a
//! reference model that reads each rule straight off its definition (every
//! query a scan, every history kept whole) through identical pseudo-random
//! but protocol-valid operation sequences. After every single step the two
//! must agree exactly on each scheduling query the runtime uses: `state`,
//! `published`, `eligible`, `crossing_v`, `min_waiting_other`, the
//! successor a release wakes, the crossing a publication reports, and the
//! round-robin turn. Any divergence would let the runtime produce a token
//! order the definitions do not, breaking the bit-identical schedule
//! guarantee.

use det_clock::{OrderPolicy, SchedTable, ThreadState};
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

/// One thread of the reference model.
struct SpecThread {
    state: ThreadState,
    published: u64,
    /// Every `(effective bound, virtual time)` the thread ever had.
    hist: Vec<(u64, u64)>,
}

impl SpecThread {
    fn in_rotation(&self) -> bool {
        matches!(self.state, ThreadState::Running | ThreadState::AtSync(_))
    }
}

/// The reference side: the table's rules read off their definitions.
struct Spec {
    policy: OrderPolicy,
    threads: Vec<SpecThread>,
    rr_turn: usize,
    rr_turn_v: u64,
}

impl Spec {
    /// Whether thread `j`, at bound `bound`, could still perform a sync op
    /// ordered before `(c, w)`.
    fn blocks(&self, j: usize, bound: u64, (c, w): (u64, u32)) -> bool {
        j != w as usize && self.threads[j].in_rotation() && (bound, j as u32) < (c, w)
    }

    fn min_waiting_other(&self, t: Option<usize>) -> Option<(u64, u32)> {
        let waiting = self
            .threads
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != t);
        let keys = waiting.filter_map(|(i, e)| match e.state {
            ThreadState::AtSync(c) => Some((c, i as u32)),
            _ => None,
        });
        keys.min()
    }

    fn eligible(&self, t: usize) -> bool {
        let ThreadState::AtSync(c) = self.threads[t].state else {
            return false;
        };
        match self.policy {
            OrderPolicy::RoundRobin => self.rr_turn == t,
            OrderPolicy::InstructionCount => (0..self.threads.len())
                .all(|j| !self.blocks(j, self.threads[j].published, (c, t as u32))),
        }
    }

    fn successor(&self) -> Option<Tid> {
        match self.policy {
            OrderPolicy::InstructionCount => self
                .min_waiting_other(None)
                .map(|(_, w)| w as usize)
                .filter(|&w| self.eligible(w))
                .map(|w| Tid(w as u32)),
            OrderPolicy::RoundRobin => matches!(
                self.threads.get(self.rr_turn).map(|e| e.state),
                Some(ThreadState::AtSync(_))
            )
            .then_some(Tid(self.rr_turn as u32)),
        }
    }

    /// The virtual time of the last entry after which no other thread's
    /// history blocks `(c, t)` again, over threads that ever blocked it.
    fn crossing_v(&self, t: usize, c: u64) -> u64 {
        let key = (c, t as u32);
        let mut wake = 0;
        for (j, e) in self.threads.iter().enumerate().filter(|&(j, _)| j != t) {
            let blocked = |&(b, _): &(u64, u64)| (b, j as u32) <= key;
            if let Some(k) = e.hist.iter().rposition(blocked) {
                if let Some(&(_, v)) = e.hist.get(k + 1) {
                    wake = wake.max(v);
                }
            }
        }
        wake
    }

    fn rr_advance(&mut self, v: u64) {
        let n = self.threads.len();
        if let Some(i) = (1..=n)
            .map(|s| (self.rr_turn + s) % n)
            .find(|&i| self.threads[i].in_rotation())
        {
            self.rr_turn = i;
            self.rr_turn_v = self.rr_turn_v.max(v);
        }
    }

    /// Ends a transition of `t`: records its effective bound, and moves a
    /// turn whose holder left the rotation on to the next thread in it.
    fn record(&mut self, t: usize, v: u64) {
        let e = &mut self.threads[t];
        let bound = if e.in_rotation() {
            e.published
        } else {
            u64::MAX
        };
        e.hist.push((bound, v));
        if self.policy == OrderPolicy::RoundRobin && !self.threads[self.rr_turn].in_rotation() {
            self.rr_advance(v);
        }
    }

    fn set(&mut self, t: usize, state: ThreadState, published: u64, v: u64) {
        let e = &mut self.threads[t];
        e.state = state;
        e.published = e.published.max(published);
        self.record(t, v);
    }

    fn publish(&mut self, t: usize, clock: u64, v: u64) -> bool {
        let head = self.min_waiting_other(None);
        let old = std::mem::replace(&mut self.threads[t].published, clock);
        self.threads[t].hist.push((clock, v));
        head.is_some_and(|h| self.blocks(t, old, h) && !self.blocks(t, clock, h))
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
    refr: Spec,
    model: Vec<Model>,
    clock: Vec<u64>,
    v: u64,
}

impl Harness {
    fn new(policy: OrderPolicy) -> Harness {
        let mut h = Harness {
            fast: SchedTable::with_policy(policy, MAX_THREADS),
            refr: Spec {
                policy,
                threads: Vec::new(),
                rr_turn: 0,
                rr_turn_v: 0,
            },
            model: Vec::new(),
            clock: Vec::new(),
            v: 0,
        };
        h.register(0);
        h
    }

    fn register(&mut self, birth_clock: u64) {
        let i = self.model.len();
        self.fast.register(Tid(i as u32), birth_clock, self.v);
        self.refr.threads.push(SpecThread {
            state: ThreadState::Running,
            published: birth_clock,
            hist: Vec::new(),
        });
        self.refr.record(i, self.v);
        self.model.push(Model::Running);
        self.clock.push(birth_clock);
    }

    /// Moves thread `i` to `state` on both sides, as `call` does on the
    /// table (`published` is the clock the transition carries).
    fn transition(
        &mut self,
        i: usize,
        state: ThreadState,
        published: u64,
        call: impl FnOnce(&mut SchedTable, Tid, u64),
    ) {
        call(&mut self.fast, Tid(i as u32), self.v);
        self.refr.set(i, state, published, self.v);
    }

    fn publish(&mut self, i: usize) {
        let (clock, v) = (self.clock[i], self.v);
        let crossed = self.fast.publish(Tid(i as u32), clock, v);
        assert_eq!(crossed, self.refr.publish(i, clock, v), "publish crossed");
    }

    /// All-queries comparison; the heart of the lockstep property.
    fn check(&self) {
        for i in 0..self.model.len() {
            let t = Tid(i as u32);
            if self.model[i] == Model::Finished {
                continue;
            }
            let spec = &self.refr.threads[i];
            assert_eq!(self.fast.state(t), spec.state, "state({t})");
            assert_eq!(self.fast.published(t), spec.published, "published({t})");
            assert_eq!(
                self.fast.min_waiting_other(t),
                self.refr.min_waiting_other(Some(i)),
                "min_waiting_other({t})"
            );
            if let Model::AtSync(c) = self.model[i] {
                assert_eq!(
                    self.fast.eligible(t),
                    self.refr.eligible(i),
                    "eligible({t}) at {c}"
                );
                assert_eq!(
                    self.fast.crossing_v(t, c),
                    self.refr.crossing_v(i, c),
                    "crossing_v({t}, {c})"
                );
            }
        }
        if self.fast.policy() == OrderPolicy::RoundRobin {
            assert_eq!(self.fast.rr_holder(), self.refr.rr_turn, "rr_holder");
            assert_eq!(self.fast.rr_turn_v(), self.refr.rr_turn_v, "rr_turn_v");
        }
        assert_eq!(self.fast.successor(), self.refr.successor(), "successor");
    }

    fn step(&mut self, rng: &mut Rng) {
        self.v += 1 + rng.below(5);
        let i = rng.below(self.model.len() as u64) as usize;
        match self.model[i] {
            Model::Running => match rng.below(10) {
                // Publish a counter-overflow bound (the hot path).
                0..=4 => {
                    self.clock[i] += 1 + rng.below(50);
                    self.publish(i);
                }
                // Arrive at a sync op (possibly at the current clock).
                5..=8 => {
                    self.clock[i] += rng.below(20);
                    let c = self.clock[i];
                    self.transition(i, ThreadState::AtSync(c), c, |t, tid, v| {
                        t.arrive_sync(tid, c, v)
                    });
                    self.model[i] = Model::AtSync(c);
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
                    let c = self.clock[i];
                    self.transition(i, ThreadState::Running, c, |t, tid, v| t.resume(tid, c, v));
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
                    self.transition(i, ThreadState::Departed, 0, SchedTable::depart);
                    self.model[i] = Model::Departed(self.clock[i]);
                }
                // Exit (from the sync arrival, as ctx::finish does).
                _ => {
                    self.transition(i, ThreadState::Finished, 0, SchedTable::finish);
                    self.model[i] = Model::Finished;
                }
            },
            Model::Departed(saved) => {
                // Woken by an unlock/signal at the waker's virtual time.
                self.transition(i, ThreadState::Running, saved, |t, tid, v| {
                    t.reactivate(tid, saved, v)
                });
                self.clock[i] = self.clock[i].max(saved);
                self.model[i] = Model::Running;
            }
            Model::Finished => {}
        }
        self.check();
    }
}

const STEPS: usize = 400;

fn run_seed(policy: OrderPolicy, seed: u64) {
    let mut rng = Rng(seed);
    let mut h = Harness::new(policy);
    for _ in 0..STEPS {
        h.step(&mut rng);
    }
}

#[test]
fn fast_and_reference_agree_under_instruction_count() {
    for seed in 0..20 {
        run_seed(OrderPolicy::InstructionCount, 0x5EED_1C00 + seed);
    }
}

#[test]
fn fast_and_reference_agree_under_round_robin() {
    for seed in 0..20 {
        run_seed(OrderPolicy::RoundRobin, 0x5EED_4200 + seed);
    }
}

/// Long publication streams with an active waiter: the table prunes, the
/// reference keeps everything, and every query must still agree (the
/// watermark proof in `table.rs` says pruned entries can never change an
/// answer above the watermark). Every other time the waiter arrives at
/// its last clock, the watermark, where the entry that last blocked it is
/// the one pruning keeps as a sentinel; otherwise anywhere below the
/// publisher's clock.
#[test]
fn agreement_survives_history_pruning() {
    let mut h = Harness::new(OrderPolicy::InstructionCount);
    h.register(0); // Tid(1)
    let mut rng = Rng(0x5EED_9900);
    for round in 0..2_000u64 {
        h.v += 1;
        h.clock[0] += 1 + rng.below(8);
        h.publish(0);
        if round % 64 == 0 {
            h.v += 1;
            let c = h.clock[1] + (round % 128 / 64) * rng.below(h.clock[0] - h.clock[1]);
            h.clock[1] = c;
            h.transition(1, ThreadState::AtSync(c), c, |t, tid, v| {
                t.arrive_sync(tid, c, v)
            });
            h.model[1] = Model::AtSync(c);
            h.check();
            h.v += 1;
            h.transition(1, ThreadState::Running, c, |t, tid, v| t.resume(tid, c, v));
            h.model[1] = Model::Running;
        }
        h.check();
    }
    // Pruning actually happened: the table's publisher history stayed
    // bounded while the reference kept every entry.
    assert!(h.fast.history_len(Tid(0)) < 512, "table history unbounded");
    assert!(h.refr.threads[0].hist.len() > 2_000);
}
