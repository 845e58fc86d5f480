//! The clock table: per-thread logical clocks and token eligibility.
//!
//! [`SchedTable`] is the one state machine behind both scheduler kinds:
//! per-thread `(state, published clock)`, the round-robin turn, and the wake
//! time read back from the publication histories (which live in the shared
//! [`Slots`]). Every query is a scan over the registered entries. On its
//! own — [`SchedKind::Reference`] — every publication goes through the
//! owning runtime's global lock and eligibility is read from the entries.
//! [`SchedKind::Fast`] is the same table plus an atomic mirror of it
//! (`crate::fast`): one bound per thread, raised by lock-free publication
//! and read by eligibility, and the head waiter's key, which a publisher
//! reads without the lock. The mirror is derived state; no longer reading
//! it ([`SchedTable::failover`]) leaves the reference table.

use std::sync::Arc;

use dmt_api::Tid;

use crate::fast::{pack, packed_clock, Slots, TID_BITS};

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

/// Which scheduler a runtime uses: the clock table with or without its
/// atomic mirror.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedKind {
    /// Lock-free publication into per-thread slots, eligibility read from
    /// those slots.
    #[default]
    Fast,
    /// The table alone: publication under the one lock, eligibility read
    /// from the entries. What a failed-over run executes, and the oracle
    /// the fast kind is differentially tested against.
    Reference,
}

/// A clock value standing in for "will never block anyone again" (departed
/// or finished threads).
const UNBLOCKED: u64 = u64::MAX;

/// Histories shorter than this are never pruned: below it the scan cost is
/// noise and the doubling amortization would thrash.
pub(crate) const PRUNE_MIN: usize = 64;

/// One thread's scheduling state. Its publication history lives in
/// [`Slots`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) state: ThreadState,
    /// Authoritative published clock, except for a `Running` thread of a
    /// fast-kind table, whose atomic slot may be ahead.
    pub(crate) published: u64,
}

impl Entry {
    /// Whether the thread takes part in the order (GMIC consideration, the
    /// round-robin rotation): its bound can block a waiter.
    pub(crate) fn in_rotation(&self) -> bool {
        matches!(self.state, ThreadState::Running | ThreadState::AtSync(_))
    }
}

/// Drops history entries unreachable by any query at clock `>= w`.
///
/// An entry with `bound < w` compares lexicographically below every future
/// query key `(c, tid)` with `c >= w`, so the backward walk in `crossing_v`
/// always stops at the *newest* such entry ("blocked"); everything older is
/// dead. That newest entry itself is retained as the blocked sentinel.
pub(crate) fn prune_history(h: &mut Vec<(u64, u64)>, w: u64) {
    if let Some(k) = h.iter().rposition(|&(b, _)| b < w) {
        h.drain(..k);
    }
}

/// Per-thread logical clocks plus the eligibility rule for the global token.
///
/// All methods must be called under one external lock (the runtime's global
/// mutex); the table itself performs no synchronization. On the fast kind
/// publications may *also* flow directly through the shared [`Slots`]
/// without this table's involvement — a running thread's entry then lags
/// its slot.
#[derive(Debug)]
pub struct SchedTable {
    policy: OrderPolicy,
    /// [`SchedKind::Reference`] from the start, or since a failover.
    pub(crate) kind: SchedKind,
    pub(crate) slots: Arc<Slots>,
    /// By tid, grown by registration: a scan walks the registered threads,
    /// not the slots' capacity.
    pub(crate) entries: Vec<Option<Entry>>,
    /// Round-robin: index of the thread whose turn it is, and the virtual
    /// time of the event that moved the turn there.
    pub(crate) rr_turn: usize,
    rr_turn_v: u64,
}

impl SchedTable {
    /// An empty table of the chosen kind over up to `slots.capacity()`
    /// threads, keeping its publication histories in `slots`.
    pub fn new(kind: SchedKind, policy: OrderPolicy, slots: Arc<Slots>) -> SchedTable {
        SchedTable {
            policy,
            kind,
            entries: Vec::with_capacity(slots.capacity()),
            slots,
            rr_turn: 0,
            rr_turn_v: 0,
        }
    }

    /// Which kind this table currently is ([`SchedKind::Reference`] after
    /// a failover).
    pub fn kind(&self) -> SchedKind {
        self.kind
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
    /// new effective bound to its history, then brings the mirror (if any)
    /// up to date. History before bound: an acquirer that observed the new
    /// bound (that is why it became eligible) must find the crossing entry.
    fn record(&mut self, t: Tid, v: u64) {
        let e = *self.entry(t);
        let bound = match e.state {
            ThreadState::Running | ThreadState::AtSync(_) => e.published,
            ThreadState::Departed | ThreadState::Finished => UNBLOCKED,
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
        self.mirror(t, &e);
    }

    /// Registers a new thread with an inherited starting clock, at the
    /// spawner's virtual time `v`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is taken, out of range, or `t` overflows the
    /// packed-key tid field.
    pub fn register(&mut self, t: Tid, clock: u64, v: u64) {
        assert!(
            u64::from(t.0) < (1 << TID_BITS) - 1,
            "tid {t} overflows packed keys"
        );
        let i = t.index();
        assert!(i < self.slots.capacity(), "tid {t} has no slot");
        if self.entries.len() <= i {
            self.entries.resize(i + 1, None);
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

    /// Last published clock of `t` (for a running thread of a fast-kind
    /// table this reads the atomic slot, which lock-free publications may
    /// have advanced past the table's value).
    pub fn published(&self, t: Tid) -> u64 {
        self.published_of(t.index(), self.entry(t))
    }

    fn published_of(&self, i: usize, e: &Entry) -> u64 {
        match (e.state, self.kind) {
            (ThreadState::Running, SchedKind::Fast) => packed_clock(self.slots.bound_key(i)),
            _ => e.published,
        }
    }

    /// Current length of `t`'s publication history (watermark pruning keeps
    /// this bounded while the rest of the table makes progress).
    pub fn history_len(&self, t: Tid) -> usize {
        self.slots.hist(t.index()).len()
    }

    /// Longest per-thread clock history over tids `0..threads` (the
    /// resource-witness gauge; the pruning watermark must bound it).
    pub fn max_history_len(&self, threads: u32) -> usize {
        (0..threads)
            .map(|t| self.history_len(Tid(t)))
            .max()
            .unwrap_or(0)
    }

    /// The minimum clock any current or future waiter can still query:
    /// `AtSync` threads can query at their waiting clock, Running and
    /// Departed threads at no less than their published clock (clocks are
    /// monotone, and a new registration inherits its spawner's clock).
    /// Finished threads never query again.
    pub(crate) fn watermark(&self) -> u64 {
        let mut w = u64::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            let floor = match e.state {
                ThreadState::Running | ThreadState::Departed => self.published_of(i, e),
                ThreadState::AtSync(c) => c,
                ThreadState::Finished => continue,
            };
            w = w.min(floor);
        }
        w
    }

    /// Appends `(bound, v)` to `t`'s history and, with `prune`, prunes it
    /// against the watermark once it has doubled since the last attempt.
    fn push_hist(&self, t: Tid, bound: u64, v: u64, prune: bool) {
        let mut h = self.slots.hist(t.index());
        h.push((bound, v));
        if prune {
            self.slots
                .prune_locked(t.index(), &mut h, || self.watermark());
        }
    }

    /// Publishes a running thread's clock (a counter overflow) at virtual
    /// time `v`, under the lock. Returns `true` if the published value
    /// advanced (waiters may have become eligible — a notification hint).
    /// A fast-kind runtime's hot path calls [`Slots::publish`] directly
    /// instead; on a fast-kind table this goes through it too.
    pub fn publish(&mut self, t: Tid, clock: u64, v: u64) -> bool {
        let e = self.entry_mut(t);
        debug_assert!(matches!(e.state, ThreadState::Running));
        let old = std::mem::replace(&mut e.published, clock);
        debug_assert!(clock >= old, "published clock must be monotone");
        if self.kind == SchedKind::Fast {
            return self.slots.publish(t, clock, v).advanced;
        }
        self.push_hist(t, clock, v, true);
        clock > old
    }

    /// Thread `t` arrives at a synchronization operation with exact clock
    /// `clock`, at virtual time `v`.
    pub fn arrive_sync(&mut self, t: Tid, clock: u64, v: u64) {
        // Fold in any bound the thread published lock-free since the table
        // last saw it.
        let published = clock.max(self.published(t));
        let e = self.entry_mut(t);
        e.published = published;
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
    /// clock is lexicographically past `(clock, t)`. One scan: of the
    /// entries on the reference kind, of the mirror slots (which hold the
    /// running threads' lock-free publications) on the fast kind. Round
    /// robin: it is `t`'s turn.
    pub fn eligible(&mut self, t: Tid) -> bool {
        let ThreadState::AtSync(c) = self.entry(t).state else {
            return false;
        };
        match (self.policy, self.kind) {
            (OrderPolicy::RoundRobin, _) => self.rr_turn == t.index(),
            (OrderPolicy::InstructionCount, SchedKind::Fast) => {
                self.slots.all_past(self.entries.len(), pack(c, t.0))
            }
            (OrderPolicy::InstructionCount, SchedKind::Reference) => {
                self.entries.iter().enumerate().all(|(i, e)| {
                    let Some(e) = e else { return true };
                    i == t.index() || !e.in_rotation() || (e.published, i as u32) > (c, t.0)
                })
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
    pub fn crossing_v(&self, t: Tid, c: u64) -> u64 {
        let mut wake = 0;
        for (i, e) in self.entries.iter().enumerate() {
            if e.is_none() || i == t.index() {
                continue;
            }
            // Walk backwards to the start of the final non-blocking run.
            // If no entry ever blocked `(c, t)`, this thread imposes no
            // wake constraint at all.
            let mut cross = None;
            let mut blocked = false;
            for &(bound, v) in self.slots.hist(i).iter().rev() {
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
        self.min_waiting(Some(t))
    }

    /// Smallest `(clock, tid)` among waiting threads other than `skip`; with
    /// `None`, the head waiter.
    pub(crate) fn min_waiting(&self, skip: Option<Tid>) -> Option<(u64, u32)> {
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

    fn table(policy: OrderPolicy, slots: usize) -> SchedTable {
        SchedTable::new(SchedKind::Reference, policy, Slots::new(slots))
    }

    fn ic(slots: usize) -> SchedTable {
        table(OrderPolicy::InstructionCount, slots)
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
    fn round_robin_takes_turns_in_tid_order() {
        let mut t = table(OrderPolicy::RoundRobin, 4);
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
        let mut t = table(OrderPolicy::RoundRobin, 4);
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
        let mut t = table(OrderPolicy::RoundRobin, 2);
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
        let mut peak = 0;
        for i in 1..=100_000u64 {
            t.publish(Tid(0), i, i);
            if i % 64 == 0 {
                // Peer syncs just behind the publisher, then resumes: the
                // watermark trails the publisher's clock closely.
                t.arrive_sync(Tid(1), i - 1, i);
                assert!(t.eligible(Tid(1)));
                t.resume(Tid(1), i - 1, i);
            }
            peak = peak.max(t.history_len(Tid(0)));
        }
        assert!(
            peak < 4 * PRUNE_MIN,
            "publisher history peaked at {peak} entries"
        );
        assert!(t.history_len(Tid(1)) < 4 * PRUNE_MIN);
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
