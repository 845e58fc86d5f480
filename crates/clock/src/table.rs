//! The clock table: per-thread logical clocks and token eligibility.
//!
//! [`SchedTable`] is one state machine under the owning runtime's global
//! lock: per-thread `(state, published clock)`, the round-robin turn, and
//! the per-thread publication histories a waiter's wake time is read back
//! from. Every query is a scan over the registered entries, and a
//! publication is a transition like any other: it takes the lock.

use dmt_api::Tid;

/// Which deterministic total order the table enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Kendo-style: order sync ops by `(logical clock, tid)`.
    InstructionCount,
    /// DThreads-style: threads take turns in id order.
    RoundRobin,
}

/// Scheduling state of one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Executing a chunk; `published` is a monotone lower bound of its true
    /// logical clock.
    Running,
    /// Blocked at a synchronization operation with this exact clock,
    /// waiting for eligibility.
    AtSync(u64),
    /// Removed itself from GMIC consideration (`clockDepart()`): blocked on
    /// a lock, condition variable, barrier or join.
    Departed,
    /// Exited.
    Finished,
}

/// A clock value standing in for "will never block anyone again" (departed
/// or finished threads).
const UNBLOCKED: u64 = u64::MAX;

/// Histories shorter than this are never pruned: below it the scan cost is
/// noise and the doubling amortization would thrash.
pub(crate) const PRUNE_MIN: usize = 64;

/// One thread's scheduling state.
#[derive(Clone, Copy, Debug)]
struct Entry {
    state: ThreadState,
    published: u64,
}

impl Entry {
    /// Whether the thread takes part in the order (GMIC consideration, the
    /// round-robin rotation): its bound can block a waiter.
    fn in_rotation(&self) -> bool {
        matches!(self.state, ThreadState::Running | ThreadState::AtSync(_))
    }
}

/// Drops history entries unreachable by any query at clock `>= w`.
///
/// An entry with `bound < w` compares lexicographically below every future
/// query key `(c, tid)` with `c >= w`, so the backward walk in `crossing_v`
/// always stops at the *newest* such entry ("blocked"); everything older is
/// dead. That newest entry itself is retained as the blocked sentinel.
fn prune_history(h: &mut Vec<(u64, u64)>, w: u64) {
    if let Some(k) = h.iter().rposition(|&(b, _)| b < w) {
        h.drain(..k);
    }
}

/// Per-thread logical clocks plus the eligibility rule for the global token.
///
/// All methods must be called under one external lock (the runtime's global
/// mutex); the table itself performs no synchronization. The lock, not the
/// token, is what protects it: threads that do not hold the token publish
/// and arrive. The token holder's own transitions need the lock too, but
/// not every one of them: while it holds the token nobody can act on its
/// bound, so a coarsened run of operations resumes once, at its first,
/// and again at its release (see [`SchedTable::crossing_v`]).
#[derive(Debug)]
pub struct SchedTable {
    policy: OrderPolicy,
    /// Threads the table can register: every tid is below it.
    capacity: usize,
    /// By tid, grown by registration: a scan walks the registered threads.
    entries: Vec<Option<Entry>>,
    /// By tid, beside `entries`: every externally visible change of the
    /// thread's effective clock bound as `(bound, virtual time)`, and the
    /// history's length right after its last prune (the amortization floor).
    ///
    /// A departure records `(u64::MAX, v)`; a reactivation records the
    /// restored (possibly lower) bound. The sequence is a deterministic
    /// function of the program, which is what makes virtual-time waits
    /// reproducible: a waiter's wake time is looked up here rather than
    /// taken from racy wall-clock arrival order. Watermark pruning keeps it
    /// bounded.
    hists: Vec<(Vec<(u64, u64)>, usize)>,
    /// The longest any history was between two table calls, as of its
    /// last prune: pruning is the only place a history shrinks.
    hist_peak: usize,
    /// The head waiter: the smallest `(clock, tid)` of an `AtSync` thread.
    /// A publication changes no thread's state, so every other transition
    /// re-derives it and a publication reads it.
    head: Option<(u64, u32)>,
    /// Round-robin: index of the thread whose turn it is, and the virtual
    /// time of the event that moved the turn there.
    rr_turn: usize,
    rr_turn_v: u64,
}

impl SchedTable {
    /// An empty table over up to `capacity` threads.
    pub fn with_policy(policy: OrderPolicy, capacity: usize) -> SchedTable {
        SchedTable {
            policy,
            capacity,
            entries: Vec::with_capacity(capacity),
            hists: Vec::with_capacity(capacity),
            hist_peak: 0,
            head: None,
            rr_turn: 0,
            rr_turn_v: 0,
        }
    }

    /// The ordering policy in force.
    pub fn policy(&self) -> OrderPolicy {
        self.policy
    }

    // INVARIANT: every `Tid` reaching a table method was registered by the
    // runtime before use (registration happens under the same global lock
    // as every query). An unregistered tid is API misuse by the caller —
    // a program bug, not a recoverable runtime condition — so these two
    // accessors are the crate's sanctioned panic sites.
    #[allow(clippy::expect_used)]
    fn entry(&self, t: Tid) -> &Entry {
        let e = self.entries.get(t.index()).and_then(Option::as_ref);
        e.expect("unregistered tid")
    }

    #[allow(clippy::expect_used)]
    fn entry_mut(&mut self, t: Tid) -> &mut Entry {
        let e = self.entries.get_mut(t.index()).and_then(Option::as_mut);
        e.expect("unregistered tid")
    }

    /// Completes a state transition of `t` at virtual time `v`: appends its
    /// new effective bound to its history, re-derives the head waiter, and
    /// keeps the round-robin turn on a thread that can take it.
    fn record(&mut self, t: Tid, v: u64) {
        let e = *self.entry(t);
        self.head = self.min_waiting(None);
        let bound = if e.in_rotation() {
            e.published
        } else {
            UNBLOCKED
        };
        // Arrivals prune: threads that sync without ever overflowing a
        // counter still grow history.
        self.push_hist(t, bound, v, matches!(e.state, ThreadState::AtSync(_)));
        if self.policy == OrderPolicy::RoundRobin {
            // A thread in the rotation claims a turn that points at nobody
            // (a no-op while the holder is live, hence for a thread that
            // was in the rotation already); one that left it passes on a
            // turn it held.
            if e.in_rotation() {
                self.rr_fixup(v);
            } else if self.rr_turn == t.index() {
                self.rr_advance(v);
            }
        }
    }

    /// Registers a new thread with an inherited starting clock, at the
    /// spawner's virtual time `v`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is taken or out of range.
    pub fn register(&mut self, t: Tid, clock: u64, v: u64) {
        let i = t.index();
        assert!(i < self.capacity, "tid {t} has no slot");
        if self.entries.len() <= i {
            self.entries.resize(i + 1, None);
            self.hists.resize_with(i + 1, Default::default);
        }
        let slot = &mut self.entries[i];
        assert!(slot.is_none(), "tid {t} registered twice");
        *slot = Some(Entry {
            state: ThreadState::Running,
            published: clock,
        });
        self.record(t, v);
    }

    /// Current state of `t`.
    pub fn state(&self, t: Tid) -> ThreadState {
        self.entry(t).state
    }

    /// Last published clock of `t`.
    pub fn published(&self, t: Tid) -> u64 {
        self.entry(t).published
    }

    /// Current length of `t`'s publication history (watermark pruning keeps
    /// this bounded while the rest of the table makes progress).
    pub fn history_len(&self, t: Tid) -> usize {
        self.hists.get(t.index()).map_or(0, |(h, _)| h.len())
    }

    /// Longest per-thread clock history right now (the pruning watermark
    /// must bound it).
    fn max_history_len(&self) -> usize {
        self.hists.iter().map(|(h, _)| h.len()).max().unwrap_or(0)
    }

    /// Longest any per-thread clock history has been between two table
    /// calls since the table was built (`RunReport::peak_clock_history`).
    pub fn peak_history_len(&self) -> usize {
        self.hist_peak.max(self.max_history_len())
    }

    /// The minimum clock any current or future waiter can still query:
    /// `AtSync` threads can query at their waiting clock, Running and
    /// Departed threads at no less than their published clock (clocks are
    /// monotone, and a new registration inherits its spawner's clock).
    /// Finished threads never query again.
    fn watermark(&self) -> u64 {
        let floor = |e: &Entry| match e.state {
            ThreadState::Running | ThreadState::Departed => Some(e.published),
            ThreadState::AtSync(c) => Some(c),
            ThreadState::Finished => None,
        };
        let floors = self.entries.iter().flatten().filter_map(floor);
        floors.min().unwrap_or(u64::MAX)
    }

    /// Appends `(bound, v)` to `t`'s history and, with `prune`, prunes it
    /// against the watermark once it has doubled since the last attempt.
    fn push_hist(&mut self, t: Tid, bound: u64, v: u64, prune: bool) {
        let (h, floor) = &mut self.hists[t.index()];
        h.push((bound, v));
        if !prune || h.len() < PRUNE_MIN || h.len() < 2 * (*floor).max(PRUNE_MIN / 2) {
            return;
        }
        let w = self.watermark();
        let (h, floor) = &mut self.hists[t.index()];
        // Its length before this push: the longest the history was since
        // its last prune, as the caller saw it.
        self.hist_peak = self.hist_peak.max(h.len() - 1);
        prune_history(h, w);
        *floor = h.len();
    }

    /// Publishes a running thread's clock (a counter overflow) at virtual
    /// time `v`. Returns `true` if the publication crossed the head
    /// waiter's key: `t` blocked it before and does not after, so it may
    /// have become eligible. No other publication can make anybody
    /// eligible, so nobody else needs to ask.
    pub fn publish(&mut self, t: Tid, clock: u64, v: u64) -> bool {
        let e = self.entry_mut(t);
        debug_assert!(matches!(e.state, ThreadState::Running));
        let old = std::mem::replace(&mut e.published, clock);
        debug_assert!(clock >= old, "published clock must be monotone");
        self.push_hist(t, clock, v, true);
        self.head
            .is_some_and(|head| (old, t.0) < head && head < (clock, t.0))
    }

    /// Thread `t` arrives at a synchronization operation with exact clock
    /// `clock`, at virtual time `v`.
    pub fn arrive_sync(&mut self, t: Tid, clock: u64, v: u64) {
        let e = self.entry_mut(t);
        e.published = e.published.max(clock);
        e.state = ThreadState::AtSync(clock);
        self.record(t, v);
    }

    /// Thread `t` removes itself from GMIC consideration (`clockDepart`)
    /// at virtual time `v`.
    pub fn depart(&mut self, t: Tid, v: u64) {
        self.entry_mut(t).state = ThreadState::Departed;
        self.record(t, v);
    }

    /// Thread `t` finishes at virtual time `v`.
    pub fn finish(&mut self, t: Tid, v: u64) {
        self.entry_mut(t).state = ThreadState::Finished;
        self.record(t, v);
    }

    /// A departed thread is woken by an event at virtual time `v` (lock
    /// hand-off, signal, exit) and rejoins GMIC consideration with clock
    /// `clock` — which may *lower* its effective bound again.
    pub fn reactivate(&mut self, t: Tid, clock: u64, v: u64) {
        debug_assert!(matches!(self.entry(t).state, ThreadState::Departed));
        self.resume(t, clock, v);
    }

    /// Thread `t` resumes running after completing a sync op at clock
    /// `clock` (possibly fast-forwarded) and virtual time `v`.
    pub fn resume(&mut self, t: Tid, clock: u64, v: u64) {
        let e = self.entry_mut(t);
        e.state = ThreadState::Running;
        e.published = e.published.max(clock);
        self.record(t, v);
    }

    /// Whether `t` (which must be `AtSync`) may proceed under the policy.
    ///
    /// Instruction count: no other live thread could still perform an
    /// earlier-ordered sync op — every Running/AtSync thread's published
    /// clock is lexicographically past `(clock, t)`. Round robin: it is
    /// `t`'s turn.
    pub fn eligible(&self, t: Tid) -> bool {
        let ThreadState::AtSync(c) = self.entry(t).state else {
            return false;
        };
        match self.policy {
            OrderPolicy::RoundRobin => self.rr_turn == t.index(),
            OrderPolicy::InstructionCount => self.entries.iter().enumerate().all(|(i, e)| {
                let Some(e) = e else { return true };
                i == t.index() || !e.in_rotation() || (e.published, i as u32) > (c, t.0)
            }),
        }
    }

    /// The unique thread a token release should wake, if any: the head
    /// waiter when it is (now) eligible, or the round-robin turn holder
    /// when it waits. `None` means nobody can take the token yet: the
    /// publication that crosses the head last will find it eligible.
    pub fn successor(&self) -> Option<Tid> {
        match self.policy {
            OrderPolicy::InstructionCount => {
                debug_assert_eq!(self.head, self.min_waiting(None), "stale head waiter");
                let (_, head) = self.head?;
                Some(Tid(head)).filter(|&w| self.eligible(w))
            }
            OrderPolicy::RoundRobin => {
                let holder = self.entries.get(self.rr_turn)?.as_ref()?;
                matches!(holder.state, ThreadState::AtSync(_)).then_some(Tid(self.rr_turn as u32))
            }
        }
    }

    /// Virtual time of the event that made `t` (waiting at clock `c`)
    /// eligible: for every other thread, the final transition of its
    /// effective bound from "could still order before `(c, t)`" to "cannot".
    ///
    /// Because every history is a deterministic function of the program,
    /// this wake time is reproducible regardless of physical arrival order.
    /// Must be called at token acquisition, when eligibility holds.
    ///
    /// A token holder that keeps the token across several operations (a
    /// tenure) may resume once, at its first, and leave out the resumes of
    /// the rest: each would append `(bound, v)` with `v` no later than
    /// `v_rel`, the virtual time of the tenure's last transition, and bounds
    /// within a tenure only grow. So an entry left out can only have made
    /// an earlier entry of the tenure the crossing — a value `≤ v_rel` — and
    /// the caller, acquiring after that release, takes the maximum of this
    /// value and the last release's virtual time, which is `≥ v_rel`:
    /// `crossing_v(t, c).max(v_rel)` is the same with and without them.
    pub fn crossing_v(&self, t: Tid, c: u64) -> u64 {
        let mut wake = 0;
        for (i, (e, (hist, _))) in self.entries.iter().zip(&self.hists).enumerate() {
            if e.is_none() || i == t.index() {
                continue;
            }
            // Walk backwards to the start of the final non-blocking run.
            // If no entry ever blocked `(c, t)`, this thread imposes no
            // wake constraint at all.
            let mut cross = None;
            let mut blocked = false;
            for &(bound, v) in hist.iter().rev() {
                if (bound, i as u32) > (c, t.0) {
                    cross = Some(v);
                } else {
                    blocked = true;
                    break;
                }
            }
            if blocked {
                if let Some(v) = cross {
                    wake = wake.max(v);
                }
            }
        }
        wake
    }

    /// Round robin only: advances the turn past the current holder to the
    /// next live, non-departed thread; `v` is the virtual time of the
    /// advancing event. No-op if no such thread exists.
    pub fn rr_advance(&mut self, v: u64) {
        debug_assert_eq!(self.policy, OrderPolicy::RoundRobin);
        let n = self.entries.len();
        for step in 1..=n {
            let i = (self.rr_turn + step) % n;
            if self.entries[i].is_some_and(|e| e.in_rotation()) {
                self.rr_turn = i;
                self.rr_turn_v = self.rr_turn_v.max(v);
                return;
            }
        }
    }

    /// Round robin: if the turn points at a thread that can no longer take
    /// it (departed/finished — e.g. everyone was blocked when the turn
    /// last advanced), move it to the next eligible thread. A no-op while
    /// the holder is live.
    fn rr_fixup(&mut self, v: u64) {
        if !self.entries[self.rr_turn].is_some_and(|e| e.in_rotation()) {
            self.rr_advance(v);
        }
    }

    /// Round robin only: current turn holder.
    pub fn rr_holder(&self) -> usize {
        self.rr_turn
    }

    /// Round robin only: virtual time at which the current turn was set.
    pub fn rr_turn_v(&self) -> u64 {
        self.rr_turn_v
    }

    /// Smallest `(clock, tid)` among threads waiting at a sync op, other
    /// than `t`. Drives the §3.2 adaptive overflow target.
    pub fn min_waiting_other(&self, t: Tid) -> Option<(u64, u32)> {
        match self.head {
            Some((_, w)) if w == t.0 => self.min_waiting(Some(t)),
            head => head,
        }
    }

    /// Smallest `(clock, tid)` among waiting threads other than `skip`; with
    /// `None`, the head waiter, by a scan.
    fn min_waiting(&self, skip: Option<Tid>) -> Option<(u64, u32)> {
        let skip = skip.map(|t| t.index());
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != skip)
            .filter_map(|(i, e)| match e {
                Some(Entry {
                    state: ThreadState::AtSync(c),
                    ..
                }) => Some((*c, i as u32)),
                _ => None,
            })
            .min()
    }

    /// Number of threads in each non-finished state:
    /// `(running, at_sync, departed)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut r = (0, 0, 0);
        for e in self.entries.iter().flatten() {
            match e.state {
                ThreadState::Running => r.0 += 1,
                ThreadState::AtSync(_) => r.1 += 1,
                ThreadState::Departed => r.2 += 1,
                ThreadState::Finished => {}
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ic(capacity: usize) -> SchedTable {
        SchedTable::with_policy(OrderPolicy::InstructionCount, capacity)
    }

    fn rr(capacity: usize) -> SchedTable {
        SchedTable::with_policy(OrderPolicy::RoundRobin, capacity)
    }

    #[test]
    fn lone_thread_is_always_eligible() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.arrive_sync(Tid(0), 100, 0);
        assert!(t.eligible(Tid(0)));
    }

    #[test]
    fn lower_clock_wins() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(0), 50, 0);
        t.arrive_sync(Tid(1), 40, 0);
        assert!(!t.eligible(Tid(0)));
        assert!(t.eligible(Tid(1)));
    }

    #[test]
    fn equal_clocks_tie_break_by_tid() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(0), 50, 0);
        t.arrive_sync(Tid(1), 50, 0);
        assert!(t.eligible(Tid(0)));
        assert!(!t.eligible(Tid(1)));
    }

    #[test]
    fn running_thread_with_low_published_clock_blocks_waiter() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 7);
        assert!(!t.eligible(Tid(1)));
        let hint = t.publish(Tid(0), 60, 123);
        assert!(hint);
        assert!(t.eligible(Tid(1)));
        // The crossing event carries T0's virtual time.
        assert_eq!(t.crossing_v(Tid(1), 50), 123);
    }

    #[test]
    fn crossing_is_found_even_when_waiter_arrives_late() {
        // T0 crosses 50 at v=123 while nobody waits; T1 arrives later and
        // must still observe the same deterministic wake time.
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.publish(Tid(0), 60, 123);
        t.arrive_sync(Tid(1), 50, 200);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 123);
    }

    #[test]
    fn thread_that_never_blocked_adds_no_constraint() {
        let mut t = ic(4);
        t.register(Tid(0), 100, 999);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 5);
        // T0 started above 50: it never blocked T1, so no wake constraint.
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 0);
    }

    #[test]
    fn publication_at_equal_clock_respects_tid_tiebreak() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        t.publish(Tid(0), 50, 5);
        assert!(!t.eligible(Tid(1)), "T0 could still sync at (50, 0)");
        t.publish(Tid(0), 51, 9);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 9);
    }

    #[test]
    fn departed_threads_do_not_block_and_carry_their_departure_time() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        assert!(!t.eligible(Tid(1)));
        t.depart(Tid(0), 77);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 77);
    }

    #[test]
    fn finished_threads_do_not_block() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        t.finish(Tid(0), 31);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 31);
    }

    #[test]
    fn reactivated_thread_blocks_again_and_recrosses() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.depart(Tid(0), 10);
        t.arrive_sync(Tid(1), 50, 0);
        assert!(t.eligible(Tid(1)));
        // T0 is woken with its old clock 10 (< 50): T1 is blocked again.
        t.reactivate(Tid(0), 10, 12);
        assert!(!t.eligible(Tid(1)));
        // T0 then runs past 50: the *final* crossing is what counts.
        t.publish(Tid(0), 90, 300);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 300);
    }

    #[test]
    fn min_waiting_other_finds_earliest_sync_waiter() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        assert_eq!(t.min_waiting_other(Tid(0)), None);
        t.arrive_sync(Tid(1), 70, 0);
        t.arrive_sync(Tid(2), 30, 0);
        assert_eq!(t.min_waiting_other(Tid(0)), Some((30, 2)));
        assert_eq!(t.min_waiting_other(Tid(2)), Some((70, 1)));
    }

    #[test]
    fn successor_is_the_eligible_head_waiter() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 70, 0);
        t.arrive_sync(Tid(2), 30, 0);
        // T0 still running at clock 0: nobody is eligible yet.
        assert_eq!(t.successor(), None);
        t.publish(Tid(0), 100, 1);
        assert_eq!(t.successor(), Some(Tid(2)));
        // T2 resumes at clock 30: still below T1's (70, 1), so it blocks the
        // new head until it runs past it.
        t.resume(Tid(2), 30, 2);
        assert_eq!(t.successor(), None);
        t.publish(Tid(2), 90, 3);
        assert_eq!(t.successor(), Some(Tid(1)));
    }

    #[test]
    fn crossing_is_reported_once_per_head_key_per_publisher() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        // Below the head's key: no crossing yet. (50, 0) still orders before
        // (50, 1).
        assert!(!t.publish(Tid(0), 40, 1));
        assert!(!t.publish(Tid(0), 50, 1));
        // T0 crosses. The report says that and nothing more: T2 (published 0)
        // still blocks the head.
        assert!(t.publish(Tid(0), 60, 1));
        assert!(!t.eligible(Tid(1)));
        // Once per publisher: T0 is past the key for good.
        assert!(!t.publish(Tid(0), 70, 1));
        // T2 crosses last, and now the head is the successor.
        assert!(t.publish(Tid(2), 51, 1));
        assert!(!t.publish(Tid(2), 52, 1));
        assert_eq!(t.successor(), Some(Tid(1)));
        // Per head key: T1 runs and waits again at a later clock, and both
        // publishers cross the new key once more.
        t.resume(Tid(1), 50, 2);
        t.arrive_sync(Tid(1), 100, 3);
        assert!(!t.publish(Tid(0), 99, 4));
        assert!(t.publish(Tid(0), 101, 4));
        assert!(t.publish(Tid(2), 200, 4));
        assert!(!t.publish(Tid(0), 300, 4));
    }

    #[test]
    fn crossing_is_never_reported_for_the_heads_own_publication() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        assert_eq!(t.min_waiting_other(Tid(0)), Some((50, 1)));
        // Only a running thread publishes, so the head runs again first: its
        // own stream past the key it waited at unblocks nobody.
        t.resume(Tid(1), 50, 1);
        assert!(!t.publish(Tid(1), 60, 2));
        // Nor is there anything to cross with nobody waiting.
        assert_eq!(t.min_waiting_other(Tid(0)), None);
        assert!(!t.publish(Tid(0), 70, 3));
    }

    #[test]
    fn dead_waiter_is_removed_from_queue_on_finish() {
        // Regression (waiter-queue leak): a thread that dies while queued
        // AtSync must stop being the head waiter, or the GMIC successor
        // computation would select a dead thread forever.
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        t.arrive_sync(Tid(2), 70, 1);
        // T1 (the head waiter) dies while queued.
        t.finish(Tid(1), 5);
        assert_eq!(
            t.min_waiting_other(Tid(0)),
            Some((70, 2)),
            "head moves to T2"
        );
        t.publish(Tid(0), 100, 6);
        assert_eq!(t.successor(), Some(Tid(2)), "dead thread must be skipped");
        assert!(t.eligible(Tid(2)));
    }

    #[test]
    fn dead_waiter_is_removed_from_queue_on_depart() {
        // Same leak class via the depart path (a queued thread pulled off to
        // block on a lock hand-off, then never re-queued).
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        assert_eq!(t.min_waiting_other(Tid(0)), Some((50, 1)));
        t.depart(Tid(1), 2);
        assert_eq!(t.min_waiting_other(Tid(0)), None);
        assert_eq!(t.successor(), None);
    }

    #[test]
    fn round_robin_takes_turns_in_tid_order() {
        let mut t = rr(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 10, 0);
        t.arrive_sync(Tid(2), 5, 0);
        t.arrive_sync(Tid(0), 99, 0);
        assert!(t.eligible(Tid(0)), "clocks are irrelevant under RR");
        assert!(!t.eligible(Tid(2)));
        t.rr_advance(11);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.rr_turn_v(), 11);
        t.rr_advance(12);
        assert!(t.eligible(Tid(2)));
        t.rr_advance(13);
        assert!(t.eligible(Tid(0)), "rotation wraps");
    }

    #[test]
    fn round_robin_skips_departed_and_finished() {
        let mut t = rr(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.depart(Tid(1), 0);
        t.arrive_sync(Tid(0), 1, 0);
        t.arrive_sync(Tid(2), 1, 0);
        assert!(t.eligible(Tid(0)));
        t.rr_advance(5);
        assert_eq!(t.rr_holder(), 2, "skips departed T1");
        t.finish(Tid(2), 6);
        assert_eq!(t.rr_holder(), 0, "finish advances past holder");
    }

    #[test]
    fn rr_departure_of_holder_advances_turn() {
        let mut t = rr(2);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 1, 0);
        assert!(!t.eligible(Tid(1)));
        t.depart(Tid(0), 42);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.rr_turn_v(), 42);
    }

    #[test]
    fn census_counts_states() {
        let mut t = ic(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 1, 0);
        t.depart(Tid(2), 0);
        assert_eq!(t.census(), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let mut t = ic(2);
        t.register(Tid(0), 0, 0);
        t.register(Tid(0), 0, 0);
    }

    #[test]
    fn long_running_publisher_history_stays_bounded() {
        // Regression: before watermark pruning, a thread's history grew by
        // one entry per publication forever. A publisher that overflows
        // 100k times while a peer keeps syncing (advancing the watermark)
        // must keep a small bounded history.
        let mut t = ic(2);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        let (mut peak, mut seen) = (0, 0);
        let mut step = |t: &SchedTable| seen = seen.max(t.max_history_len());
        for i in 1..=100_000u64 {
            t.publish(Tid(0), i, i);
            step(&t);
            if i % 64 == 0 {
                // Peer syncs just behind the publisher, then resumes: the
                // watermark trails the publisher's clock closely.
                t.arrive_sync(Tid(1), i - 1, i);
                step(&t);
                assert!(t.eligible(Tid(1)));
                t.resume(Tid(1), i - 1, i);
                step(&t);
            }
            peak = peak.max(t.history_len(Tid(0)));
        }
        // The table's high-water mark is the longest history any step left.
        assert_eq!(t.peak_history_len(), seen);
        assert!(
            peak < 4 * PRUNE_MIN,
            "publisher history peaked at {peak} entries"
        );
        assert!(t.history_len(Tid(1)) < 4 * PRUNE_MIN);
        assert!(t.max_history_len() < 4 * PRUNE_MIN);
        // Pruning must not change answers: T1 waits at the final clock and
        // the crossing virtual time is still the publisher's last advance.
        t.arrive_sync(Tid(1), 99_999, 100_001);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 99_999), 100_000);
    }

    #[test]
    fn pruning_preserves_crossing_answers_above_watermark() {
        let mut h: Vec<(u64, u64)> = (0..100).map(|i| (i * 10, i)).collect();
        prune_history(&mut h, 500);
        // Newest entry below 500 is (490, 49): kept as the blocked
        // sentinel; everything older dropped.
        assert_eq!(h[0], (490, 49));
        assert_eq!(h.len(), 51);
        // A second prune at the same watermark is a no-op.
        let before = h.clone();
        prune_history(&mut h, 500);
        assert_eq!(h, before);
        // No entry below the watermark at all: nothing to drop.
        let mut h2 = vec![(700, 1), (800, 2)];
        prune_history(&mut h2, 500);
        assert_eq!(h2.len(), 2);
    }
}
