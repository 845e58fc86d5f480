//! Differential property test of the clock table against its definition.
//!
//! Drives the [`SchedTable`] — its head waiter is cached at every
//! transition and its histories are pruned at the watermark — and a model
//! that reads each rule straight off its definition (every query a scan,
//! every history kept whole) through identical pseudo-random but
//! protocol-valid operation sequences. After every single step the two
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

/// One thread of the model.
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

/// The model side: the table's rules read off their definitions.
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
enum Phase {
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
    table: SchedTable,
    model: Spec,
    phase: Vec<Phase>,
    clock: Vec<u64>,
    v: u64,
}

impl Harness {
    fn new(policy: OrderPolicy) -> Harness {
        let mut h = Harness {
            table: SchedTable::with_policy(policy, MAX_THREADS),
            model: Spec {
                policy,
                threads: Vec::new(),
                rr_turn: 0,
                rr_turn_v: 0,
            },
            phase: Vec::new(),
            clock: Vec::new(),
            v: 0,
        };
        h.register(0);
        h
    }

    fn register(&mut self, birth_clock: u64) {
        let i = self.phase.len();
        self.table.register(Tid(i as u32), birth_clock, self.v);
        self.model.threads.push(SpecThread {
            state: ThreadState::Running,
            published: birth_clock,
            hist: Vec::new(),
        });
        self.model.record(i, self.v);
        self.phase.push(Phase::Running);
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
        call(&mut self.table, Tid(i as u32), self.v);
        self.model.set(i, state, published, self.v);
    }

    fn publish(&mut self, i: usize) {
        let (clock, v) = (self.clock[i], self.v);
        let crossed = self.table.publish(Tid(i as u32), clock, v);
        assert_eq!(crossed, self.model.publish(i, clock, v), "publish crossed");
    }

    /// All-queries comparison; the heart of the lockstep property.
    fn check(&self) {
        for i in 0..self.phase.len() {
            let t = Tid(i as u32);
            if self.phase[i] == Phase::Finished {
                continue;
            }
            let spec = &self.model.threads[i];
            assert_eq!(self.table.state(t), spec.state, "state({t})");
            assert_eq!(self.table.published(t), spec.published, "published({t})");
            assert_eq!(
                self.table.min_waiting_other(t),
                self.model.min_waiting_other(Some(i)),
                "min_waiting_other({t})"
            );
            if let Phase::AtSync(c) = self.phase[i] {
                assert_eq!(
                    self.table.eligible(t),
                    self.model.eligible(i),
                    "eligible({t}) at {c}"
                );
                assert_eq!(
                    self.table.crossing_v(t, c),
                    self.model.crossing_v(i, c),
                    "crossing_v({t}, {c})"
                );
            }
        }
        if self.table.policy() == OrderPolicy::RoundRobin {
            assert_eq!(self.table.rr_holder(), self.model.rr_turn, "rr_holder");
            assert_eq!(self.table.rr_turn_v(), self.model.rr_turn_v, "rr_turn_v");
        }
        assert_eq!(self.table.successor(), self.model.successor(), "successor");
    }

    fn step(&mut self, rng: &mut Rng) {
        self.v += 1 + rng.below(5);
        let i = rng.below(self.phase.len() as u64) as usize;
        match self.phase[i] {
            Phase::Running => match rng.below(10) {
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
                    self.phase[i] = Phase::AtSync(c);
                }
                // Spawn: the child starts at the parent's clock, which is
                // ≥ every pruning watermark (the parent is live).
                _ => {
                    if self.phase.len() < MAX_THREADS {
                        self.register(self.clock[i]);
                    }
                }
            },
            Phase::AtSync(_) => match rng.below(10) {
                // Granted the token and released it: resume running,
                // possibly fast-forwarded past the arrival clock.
                0..=5 => {
                    self.clock[i] += rng.below(10);
                    let c = self.clock[i];
                    self.transition(i, ThreadState::Running, c, |t, tid, v| t.resume(tid, c, v));
                    self.phase[i] = Phase::Running;
                    if self.table.policy() == OrderPolicy::RoundRobin && self.table.rr_holder() == i
                    {
                        // The runtime advances the turn when the holder
                        // releases the token.
                        self.table.rr_advance(self.v);
                        self.model.rr_advance(self.v);
                    }
                }
                // Block on a lock or condvar: leave GMIC consideration.
                6..=8 => {
                    self.transition(i, ThreadState::Departed, 0, SchedTable::depart);
                    self.phase[i] = Phase::Departed(self.clock[i]);
                }
                // Exit (from the sync arrival, as ctx::finish does).
                _ => {
                    self.transition(i, ThreadState::Finished, 0, SchedTable::finish);
                    self.phase[i] = Phase::Finished;
                }
            },
            Phase::Departed(saved) => {
                // Woken by an unlock/signal at the waker's virtual time.
                self.transition(i, ThreadState::Running, saved, |t, tid, v| {
                    t.reactivate(tid, saved, v)
                });
                self.clock[i] = self.clock[i].max(saved);
                self.phase[i] = Phase::Running;
            }
            Phase::Finished => {}
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
fn table_and_model_agree_under_instruction_count() {
    for seed in 0..20 {
        run_seed(OrderPolicy::InstructionCount, 0x5EED_1C00 + seed);
    }
}

#[test]
fn table_and_model_agree_under_round_robin() {
    for seed in 0..20 {
        run_seed(OrderPolicy::RoundRobin, 0x5EED_4200 + seed);
    }
}

/// Long publication streams with an active waiter: the table prunes, the
/// model keeps everything, and every query must still agree (the
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
            h.phase[1] = Phase::AtSync(c);
            h.check();
            h.v += 1;
            h.transition(1, ThreadState::Running, c, |t, tid, v| t.resume(tid, c, v));
            h.phase[1] = Phase::Running;
        }
        h.check();
    }
    // Pruning actually happened: the table's publisher history stayed
    // bounded while the model kept every entry.
    assert!(h.table.history_len(Tid(0)) < 512, "table history unbounded");
    assert!(h.model.threads[0].hist.len() > 2_000);
}
