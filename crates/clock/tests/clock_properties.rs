//! Property-style tests for the deterministic clock table.
//!
//! These were originally `proptest` properties; they now run over scripted
//! pseudo-random cases from a local LCG so the workspace builds with no
//! external dependencies. The case counts match the old configs.

use std::ops::Range;

use det_clock::{OrderPolicy, OverflowPolicy, SchedTable, ThreadState};
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

/// A simulated runnable thread with a fixed schedule of sync-op clocks.
#[derive(Clone, Debug)]
struct Plan {
    /// Strictly increasing clocks at which this thread performs sync ops.
    ops: Vec<u64>,
}

fn gen_plans(rng: &mut Rng) -> Vec<Plan> {
    let nthreads = 2 + rng.below(3) as usize;
    (0..nthreads)
        .map(|_| {
            let nops = 1 + rng.below(5) as usize;
            let mut v: Vec<u64> = (0..nops).map(|_| 1 + rng.below(499)).collect();
            v.sort_unstable();
            v.dedup();
            // Make strictly increasing cumulative clocks.
            let mut acc = 0;
            let ops = v
                .into_iter()
                .map(|d| {
                    acc += d;
                    acc
                })
                .collect();
            Plan { ops }
        })
        .collect()
}

/// Replays all threads' sync ops through the table in an arbitrary
/// arrival interleaving (driven by `perm`), granting greedily whenever
/// someone is eligible, and returns the grant order.
fn simulate(plans: &[Plan], policy: OrderPolicy, perm: u64) -> Vec<(u64, u32)> {
    let n = plans.len();
    let mut t = SchedTable::with_policy(policy, n);
    for (i, _) in plans.iter().enumerate() {
        t.register(Tid(i as u32), 0, 0);
    }
    let mut next = vec![0usize; n];
    let mut arrived = vec![false; n];
    let mut grants = Vec::new();
    let mut rng = perm;
    let total: usize = plans.iter().map(|p| p.ops.len()).sum();
    while grants.len() < total {
        // Nondeterministically let some thread arrive at its next op.
        let mut progressed = false;
        for _ in 0..n {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (rng >> 33) as usize % n;
            if !arrived[i] && next[i] < plans[i].ops.len() {
                t.arrive_sync(Tid(i as u32), plans[i].ops[next[i]], 0);
                arrived[i] = true;
                progressed = true;
                break;
            }
        }
        // Grant to whoever is eligible.
        let mut granted = false;
        for i in 0..n {
            if arrived[i] && t.eligible(Tid(i as u32)) {
                let c = plans[i].ops[next[i]];
                grants.push((c, i as u32));
                next[i] += 1;
                arrived[i] = false;
                if next[i] == plans[i].ops.len() {
                    t.finish(Tid(i as u32), 0);
                } else {
                    t.resume(Tid(i as u32), c, 0);
                }
                if policy == OrderPolicy::RoundRobin {
                    t.rr_advance(0);
                }
                granted = true;
                break;
            }
        }
        // If nothing arrived and nothing was granted, force an arrival of
        // the lowest pending op (models that thread publishing/arriving).
        if !progressed && !granted {
            let pending = (0..n)
                .filter(|&i| !arrived[i] && next[i] < plans[i].ops.len())
                .min_by_key(|&i| (plans[i].ops[next[i]], i));
            if let Some(i) = pending {
                t.arrive_sync(Tid(i as u32), plans[i].ops[next[i]], 0);
                arrived[i] = true;
            }
        }
    }
    grants
}

/// Under instruction-count ordering, the grant multiset equals the plan
/// multiset, per-thread grant order follows each plan, and two different
/// interleavings give the same grant order.
#[test]
fn ic_grants_sort_by_clock_tid() {
    let mut rng = Rng(0x1c_1c_1c);
    for _ in 0..128 {
        let ps = gen_plans(&mut rng);
        let perm = rng.next();
        let grants = simulate(&ps, OrderPolicy::InstructionCount, perm);
        // Grant multiset must equal the plan multiset…
        let mut expect: Vec<(u64, u32)> = ps
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.ops.iter().map(move |&c| (c, i as u32)))
            .collect();
        let mut got = grants.clone();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
        // …and per-thread grant order must follow each plan (clocks are
        // strictly increasing per thread).
        for (i, p) in ps.iter().enumerate() {
            let mine: Vec<u64> = grants
                .iter()
                .filter(|(_, t)| *t == i as u32)
                .map(|(c, _)| *c)
                .collect();
            assert_eq!(mine, p.ops);
        }
        // Two different interleavings give the same grant order.
        let again = simulate(&ps, OrderPolicy::InstructionCount, perm.wrapping_add(1));
        assert_eq!(grants, again);
    }
}

/// Round-robin grants are interleaving-independent too.
#[test]
fn rr_grants_are_interleaving_independent() {
    let mut rng = Rng(0x2d_2d_2d);
    for _ in 0..128 {
        let ps = gen_plans(&mut rng);
        let perm = rng.next();
        let a = simulate(&ps, OrderPolicy::RoundRobin, perm);
        let b = simulate(
            &ps,
            OrderPolicy::RoundRobin,
            perm.wrapping_mul(31).wrapping_add(7),
        );
        assert_eq!(a, b);
    }
}

/// Crossing lookups return the virtual time of an event that actually
/// released the waiter: monotone in the waiter's clock.
#[test]
fn crossing_v_is_monotone_in_waiter_clock() {
    let mut rng = Rng(0x3e_3e_3e);
    for _ in 0..96 {
        let npubs = 1 + rng.below(19) as usize;
        let mut t = SchedTable::with_policy(OrderPolicy::InstructionCount, 2);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        let mut clock = 0;
        let mut v = 0;
        for _ in 0..npubs {
            clock += 1 + rng.below(999);
            v += 1 + rng.below(999);
            t.publish(Tid(0), clock, v);
        }
        let mut last = 0;
        for c in (0..clock).step_by(97) {
            let w = t.crossing_v(Tid(1), c);
            assert!(w >= last, "crossing_v must be monotone");
            last = w;
        }
    }
}

/// The adaptive overflow policy always proposes a strictly future
/// threshold, and rule 2 lands exactly one past the waiter.
#[test]
fn overflow_thresholds_are_future() {
    let mut rng = Rng(0x4f_4f_4f);
    for _ in 0..256 {
        let now = rng.below(1_000_000);
        let w = if rng.below(2) == 0 {
            None
        } else {
            Some(rng.below(1_000_000))
        };
        let mut p = OverflowPolicy::paper(true);
        let t = p.next_threshold(now, w);
        assert!(t > now);
        if let Some(w) = w {
            if w >= now {
                assert_eq!(t, w + 1);
            }
        }
    }
}

#[test]
fn census_and_state_transitions() {
    let mut t = SchedTable::with_policy(OrderPolicy::InstructionCount, 3);
    t.register(Tid(0), 0, 0);
    assert_eq!(t.state(Tid(0)), ThreadState::Running);
    t.arrive_sync(Tid(0), 5, 0);
    assert!(matches!(t.state(Tid(0)), ThreadState::AtSync(5)));
    t.depart(Tid(0), 0);
    assert_eq!(t.state(Tid(0)), ThreadState::Departed);
    t.reactivate(Tid(0), 5, 1);
    assert_eq!(t.state(Tid(0)), ThreadState::Running);
    t.finish(Tid(0), 2);
    assert_eq!(t.state(Tid(0)), ThreadState::Finished);
    assert_eq!(t.census(), (0, 0, 0));
}

/// One run of the holder's tenures in two tables: `tabs[0]` resumes at
/// every operation of a tenure, `tabs[1]` only at the first and at the
/// tenure's last transition. Other threads publish, arrive, take their
/// own turns and depart around and inside the tenures, in both alike.
struct Tenures {
    tabs: [SchedTable; 2],
    /// Per thread: its clock, and its virtual time.
    clock: Vec<u64>,
    v: Vec<u64>,
    /// Per table, the virtual time of the holder's last transition: the
    /// release that follows it chains every later grant off it.
    v_rel: [u64; 2],
}

impl Tenures {
    /// Thread 0 is the holder.
    fn new(n: usize) -> Tenures {
        let mut tabs = [0, 1].map(|_| SchedTable::with_policy(OrderPolicy::InstructionCount, n));
        for tab in &mut tabs {
            (0..n).for_each(|i| tab.register(Tid(i as u32), 0, 0));
        }
        Tenures {
            tabs,
            clock: vec![0; n],
            v: vec![0; n],
            v_rel: [0; 2],
        }
    }

    /// Applies a transition of the holder at virtual time `v` to the
    /// tables `to`.
    fn holder(&mut self, to: Range<usize>, v: u64, f: impl Fn(&mut SchedTable)) {
        for k in to {
            f(&mut self.tabs[k]);
            self.v_rel[k] = v;
        }
    }

    /// Applies one transition to both tables.
    fn both(&mut self, f: impl Fn(&mut SchedTable)) {
        self.tabs.iter_mut().for_each(f);
    }

    /// Moves thread `i` on by a random step and returns `(tid, clock, v)`.
    fn step(&mut self, rng: &mut Rng, i: usize) -> (Tid, u64, u64) {
        self.clock[i] += rng.below(300);
        self.v[i] += 1 + rng.below(500);
        (Tid(i as u32), self.clock[i], self.v[i])
    }

    /// What another thread may do: publish or arrive while it runs, and,
    /// while the token is free, take its turn or depart from a wait.
    fn other(&mut self, rng: &mut Rng, token_free: bool) {
        let i = 1 + rng.below(self.clock.len() as u64 - 1) as usize;
        let (t, c, v) = self.step(rng, i);
        match (self.tabs[1].state(t), rng.below(3)) {
            (ThreadState::Running, 0) => self.both(|tab| tab.arrive_sync(t, c, v)),
            (ThreadState::Running, _) => self.both(|tab| {
                tab.publish(t, c, v);
            }),
            (ThreadState::AtSync(_), 0) if token_free => self.both(|tab| tab.depart(t, v)),
            (ThreadState::AtSync(_), _) if token_free => self.both(|tab| tab.resume(t, c, v)),
            (ThreadState::Departed, _) if token_free => self.both(|tab| tab.reactivate(t, c, v)),
            _ => {}
        }
    }

    /// One tenure of the holder: it arrives, resumes at its first retained
    /// operation, makes `middle` more (resumed in `tabs[0]` only) while
    /// others publish and arrive, and ends with a resume or a depart.
    fn tenure(&mut self, rng: &mut Rng, middle: u64) {
        let h = Tid(0);
        if self.tabs[1].state(h) == ThreadState::Departed {
            let (_, c, v) = self.step(rng, 0);
            self.holder(0..2, v, |tab| tab.reactivate(h, c, v));
        }
        let (_, c, v) = self.step(rng, 0);
        self.holder(0..2, v, |tab| tab.arrive_sync(h, c, v));
        let (_, c, v) = self.step(rng, 0);
        self.holder(0..2, v, |tab| tab.resume(h, c, v));
        for _ in 0..middle {
            (0..rng.below(3)).for_each(|_| self.other(rng, false));
            let (_, c, v) = self.step(rng, 0);
            self.holder(0..1, v, |tab| tab.resume(h, c, v));
        }
        let (_, c, v) = self.step(rng, 0);
        if rng.below(2) == 0 {
            self.holder(0..2, v, |tab| tab.resume(h, c, v));
        } else {
            self.holder(0..2, v, |tab| tab.depart(h, v));
        }
    }

    /// Every waiter key a thread can still query (no lower than its
    /// published clock in either table), around the bounds in play:
    /// `crossing_v(t, c).max(v_rel)` agrees between the tables.
    fn check(&self) {
        let mut near: Vec<u64> = self.clock.iter().flat_map(|c| [*c, c + 1]).collect();
        for i in 0..self.clock.len() {
            let t = Tid(i as u32);
            if self.tabs[1].state(t) == ThreadState::Finished {
                continue;
            }
            let floor = self
                .tabs
                .iter()
                .map(|tab| tab.published(t))
                .max()
                .unwrap_or(0);
            near.push(floor);
            for &c in near.iter().filter(|&&c| c >= floor) {
                let [with, without] =
                    [0, 1].map(|k| self.tabs[k].crossing_v(t, c).max(self.v_rel[k]));
                assert_eq!(with, without, "key ({c}, {t})");
            }
        }
    }
}

/// The argument that lets a coarsened tenure resume in the clock table
/// once: the resumes of its later operations land in the holder's history
/// no later than the tenure's last transition, so whatever crossing they
/// would make is dominated by the release every later grant chains off.
/// Checked over random tenures interleaved with other threads' traffic,
/// and the histories long enough to be pruned.
#[test]
fn a_tenures_middle_resumes_never_move_a_grant() {
    let mut rng = Rng(0x5a_5a_5a);
    for _ in 0..48 {
        let mut run = Tenures::new(2 + rng.below(3) as usize);
        for _ in 0..4 + rng.below(12) {
            (0..rng.below(6)).for_each(|_| run.other(&mut rng, true));
            let middle = rng.below(40);
            run.tenure(&mut rng, middle);
            run.check();
        }
    }
}
