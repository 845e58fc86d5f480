//! Scheduler fast path: one atomic per thread.
//!
//! On its own the clock table ([`SchedTable`], kind
//! [`Reference`](crate::SchedKind::Reference)) is a passive state machine
//! mutated under the runtime's one global mutex. That is correct but
//! serializes *every* counter overflow through the global lock. The
//! [`Fast`](crate::SchedKind::Fast) kind adds a mirror of the table in
//! atomics, and nothing else:
//!
//! * [`Slots`] — one cache-padded `AtomicU64` per thread holding the
//!   thread's *effective clock bound* packed with its tid (so a single
//!   integer compare is the lexicographic `(clock, tid)` order), the head
//!   waiter's key and the pruning watermark, plus a per-thread publication
//!   history behind a per-thread mutex (the one home of the histories for
//!   both kinds; the reference kind uses nothing else here).
//!   Counter-overflow [`Slots::publish`] touches only the publisher's own
//!   cache line and the head key, and never takes the global mutex.
//! * the table's half, at the bottom of this file. State transitions
//!   (arrive, depart, finish, reactivate, resume) still happen under the
//!   global runtime lock, written once in `crate::table`; after each one
//!   `SchedTable::mirror` stores the thread's new bound in its slot and
//!   re-derives the head key — and, on arrival, the watermark — by a scan
//!   of the registered entries. Eligibility on the fast kind is the GMIC
//!   rule read off the mirror: every other registered slot is past the
//!   waiter's key. A running thread's entry may lag its slot (it publishes
//!   around the table); nothing on the fast kind reads the lagging copy
//!   where the slot has the answer.
//!
//! The mirror is derived from the table's entries, and the reference kind
//! answers every query from the entries alone, so the watchdog's failover
//! ([`SchedTable::failover`]) is to stop reading the mirror.
//!
//! # Why the schedule cannot change
//!
//! Eligibility under GMIC is a monotone predicate of published clocks: once
//! a waiter is eligible it stays eligible until it runs, and at most one
//! waiter (the global minimum `(clock, tid)`) is eligible at a time. Wake
//! *timing* therefore cannot reorder token grants — a late or spurious
//! wake-up only delays the same grant. Virtual time is likewise unaffected:
//! wake virtual times come from the deterministic publication histories
//! ([`SchedTable::crossing_v`]), not from wall-clock arrival order. The
//! differential stress matrix (`stress --sched-diff`) checks the resulting
//! schedule hashes are bit-identical against the reference kind.
//!
//! # No lost wake-up
//!
//! "The token is free and the head waiter is eligible" must never become
//! true without somebody evaluating it under the runtime lock afterwards;
//! that somebody records the wake, and the unpark follows its unlock (the
//! waiter's permit keeps a wake that lands before its `park`). Every event
//! that can make the condition true is followed by that evaluation in the
//! same thread — an arrival (`wake_successor`, then its own admission
//! check, in the same lock section), a token release (`wake_successor`),
//! a locked publication (reference kind or failed over: `wake_successor`
//! in the same lock section), every other transition (made by the token
//! holder, whose release follows) — except one: a lock-free publication.
//! For it:
//!
//! 1. *A publisher's slot store vs. a head-key store* — the one `SeqCst`
//!    pair. The publisher does `W(slot); R(head_key)`; whoever makes `w`
//!    the head does `W(head_key); R(slot)` (the eligibility scan that
//!    closes its lock section). In the `SeqCst` total order one side sees
//!    the other's store: either the scan reads the new bound, or the
//!    publisher reads `w`'s key, finds its store crossed it
//!    ([`PublishOutcome::wake_hint`]) and goes on to 2.
//! 2. *Everything else is lock order.* A publisher that crossed the head
//!    takes the runtime lock **after** its store and evaluates the same
//!    rule (`wake_successor`) there. Against a token release, and
//!    against a second publisher that blocks the same head, whichever lock
//!    section comes later sees both the free token and every crossing
//!    store that preceded the earlier section, and records the wake.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use dmt_api::sync::{Mutex, MutexGuard};
use dmt_api::{CachePadded, Tid};

use crate::table::{
    prune_history, Entry, OrderPolicy, SchedKind, SchedTable, ThreadState, PRUNE_MIN,
};

/// Bits of a packed key holding the clock; the low 16 bits hold the tid.
pub const TID_BITS: u32 = 16;
/// Largest clock a packed key can represent; larger clocks saturate, which
/// is indistinguishable from "unblocked" (2^48 virtual cycles is decades
/// of simulated work — unreachable in practice, asserted in debug builds).
pub const MAX_PACKED_CLOCK: u64 = (1 << (64 - TID_BITS)) - 1;
/// Sentinel "no thread is waiting" head key. Distinct from every packed
/// key because tids are asserted `< 0xFFFF` at registration.
pub const NO_WAITER: u64 = u64::MAX;

/// Packs `(clock, tid)` so that unsigned integer compare is the
/// lexicographic GMIC order.
#[inline]
pub fn pack(clock: u64, tid: u32) -> u64 {
    debug_assert!(u64::from(tid) < (1 << TID_BITS) - 1);
    (clock.min(MAX_PACKED_CLOCK) << TID_BITS) | u64::from(tid)
}

/// Clock half of a packed key.
#[inline]
pub fn packed_clock(key: u64) -> u64 {
    key >> TID_BITS
}

/// Tid half of a packed key.
#[inline]
pub fn packed_tid(key: u64) -> u32 {
    (key & ((1 << TID_BITS) - 1)) as u32
}

/// Effective bound of a departed or finished thread: blocks nobody.
#[inline]
fn unblocked_key(tid: u32) -> u64 {
    pack(MAX_PACKED_CLOCK, tid)
}

/// What thread `tid`'s slot holds while its entry is `e` (a running
/// thread's own publications may have raised it further).
#[inline]
fn mirror_key(tid: u32, e: &Entry) -> u64 {
    if e.in_rotation() {
        pack(e.published, tid)
    } else {
        unblocked_key(tid)
    }
}

/// Outcome of a lock-free [`Slots::publish`].
#[derive(Clone, Copy, Debug)]
pub struct PublishOutcome {
    /// The published bound advanced (the locked [`SchedTable::publish`]'s
    /// notification hint).
    pub advanced: bool,
    /// Current head waiter `(clock, tid)`, if any. The publisher is
    /// running, so this *is* `min_waiting_other(publisher)`, the
    /// adaptive-overflow target, read without the lock.
    pub head: Option<(u64, u32)>,
    /// This store crossed the head waiter's key: the publisher blocked
    /// that thread before it and does not after. Nothing else is implied —
    /// the token may be held and other threads may still block the head —
    /// so the runtime takes the global lock and re-evaluates its wake
    /// rule there.
    pub wake_hint: Option<Tid>,
}

/// Per-thread publication history behind its own (uncontended) mutex.
#[derive(Debug, Default)]
struct HistSlot {
    /// Every externally visible change of this thread's effective clock
    /// bound, as `(bound, virtual time)`. A departure records
    /// `(u64::MAX, v)`; a reactivation records the restored (possibly
    /// lower) bound. The sequence is a deterministic function of the
    /// program, which is what makes virtual-time waits reproducible: a
    /// waiter's wake time is looked up here rather than taken from racy
    /// wall-clock arrival order.
    ///
    /// Bounded by watermark pruning: entries below the minimum clock any
    /// current or future waiter can query are unreachable by the backward
    /// walk in [`SchedTable::crossing_v`] and are periodically dropped.
    hist: Mutex<Vec<(u64, u64)>>,
    /// Length right after the last prune attempt (amortization floor).
    floor: AtomicUsize,
}

/// The lock-free half of the fast-path scheduler, and the home of every
/// thread's publication history for both kinds.
///
/// Shared by the runtime (publishers go straight here, bypassing the
/// global mutex) and the [`SchedTable`] (which mirrors locked state
/// transitions into the slots and answers fast-kind eligibility from
/// them).
#[derive(Debug)]
pub struct Slots {
    /// `pack(effective bound, tid)` per thread slot. Unregistered slots
    /// hold `u64::MAX` (blocks nobody).
    bounds: Box<[CachePadded<AtomicU64>]>,
    hists: Box<[HistSlot]>,
    /// `pack(clock, tid)` of the minimum `AtSync` waiter, or [`NO_WAITER`].
    /// Written only under the global runtime lock (after each transition);
    /// read lock-free by publishers.
    head_key: AtomicU64,
    /// Monotone lower bound on every clock any current or future waiter
    /// can query. Raised under the global lock, at arrivals, via
    /// `fetch_max`; read lock-free by publishers pruning their own
    /// histories. A stale read is a *lower* watermark, which only prunes
    /// less — always safe.
    watermark: AtomicU64,
}

impl Slots {
    /// Slots for up to `n` threads, all unregistered.
    pub fn new(n: usize) -> Arc<Slots> {
        Arc::new(Slots {
            bounds: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(u64::MAX)))
                .collect(),
            hists: (0..n).map(|_| HistSlot::default()).collect(),
            head_key: AtomicU64::new(NO_WAITER),
            watermark: AtomicU64::new(0),
        })
    }

    /// Number of thread slots.
    pub fn capacity(&self) -> usize {
        self.bounds.len()
    }

    /// Lock-free publication of a running thread's clock: append to own
    /// history (with amortized watermark pruning), raise own slot, and
    /// report whether this store crossed the head waiter's key.
    pub fn publish(&self, t: Tid, clock: u64, v: u64) -> PublishOutcome {
        debug_assert!(clock < MAX_PACKED_CLOCK, "clock saturates packed keys");
        let i = t.index();
        // History before bound: an acquirer that observed the new bound
        // (that is why it became eligible) must find the crossing entry.
        {
            let mut h = self.hist(i);
            h.push((clock, v));
            self.prune_locked(i, &mut h, || self.watermark.load(SeqCst));
        }
        let key = pack(clock, t.0);
        // Store, then read the head key: argument 1 of the module docs.
        let old = self.bounds[i].swap(key, SeqCst);
        let head = self.head_key.load(SeqCst);
        let waiting = head != NO_WAITER;
        // `NO_WAITER` is above every key, and a waiter's own slot holds at
        // least its key: neither can be crossed.
        let crossed = old < head && head < key;
        PublishOutcome {
            advanced: key > old,
            head: waiting.then(|| (packed_clock(head), packed_tid(head))),
            wake_hint: crossed.then(|| Tid(packed_tid(head))),
        }
    }

    /// Current head waiter key ([`NO_WAITER`] if none).
    pub fn head_key(&self) -> u64 {
        self.head_key.load(SeqCst)
    }

    /// Raw bound key of one slot.
    pub(crate) fn bound_key(&self, i: usize) -> u64 {
        self.bounds[i].load(SeqCst)
    }

    /// The GMIC rule over the first `n` slots — [`SchedTable::eligible`] on
    /// the fast kind: every one other than the waiter's own is past its
    /// `key`. (Unregistered slots hold `u64::MAX` and pass.)
    pub(crate) fn all_past(&self, n: usize, key: u64) -> bool {
        let own = packed_tid(key) as usize;
        self.bounds[..n]
            .iter()
            .enumerate()
            .all(|(i, b)| i == own || b.load(SeqCst) > key)
    }

    /// Thread `i`'s publication history, locked.
    pub(crate) fn hist(&self, i: usize) -> MutexGuard<'_, Vec<(u64, u64)>> {
        self.hists[i].hist.lock()
    }

    /// Amortized prune of one (locked) history against `watermark()` once
    /// it has doubled past the last attempt.
    pub(crate) fn prune_locked(
        &self,
        i: usize,
        h: &mut Vec<(u64, u64)>,
        watermark: impl FnOnce() -> u64,
    ) {
        let len = h.len();
        let floor = self.hists[i].floor.load(SeqCst);
        if len >= PRUNE_MIN && len >= 2 * floor.max(PRUNE_MIN / 2) {
            prune_history(h, watermark());
            self.hists[i].floor.store(h.len(), SeqCst);
        }
    }
}

/// The mirror-facing half of the table: everything here is a no-op (or the
/// documented constant) on a reference-kind table.
impl SchedTable {
    /// Mirrors `t`'s entry `e` into the atomics after a transition: its new
    /// bound into its slot, then the head key — and, on arrival, the
    /// watermark — from a scan of the registered entries. Slot before head
    /// key, and both before the eligibility scan that closes the caller's
    /// lock section (module docs, argument 1).
    pub(crate) fn mirror(&self, t: Tid, e: &Entry) {
        if self.kind != SchedKind::Fast {
            return;
        }
        self.slots.bounds[t.index()].store(mirror_key(t.0, e), SeqCst);
        self.slots.head_key.store(self.scan_head_key(), SeqCst);
        if let ThreadState::AtSync(c) = e.state {
            debug_assert!(c < MAX_PACKED_CLOCK);
            self.slots.watermark.fetch_max(self.watermark(), SeqCst);
        }
    }

    /// What the head key should hold: the minimum waiter's, by a scan.
    fn scan_head_key(&self) -> u64 {
        self.min_waiting(None)
            .map_or(NO_WAITER, |(c, w)| pack(c, w))
    }

    /// The unique thread a token release should wake, if any: the head
    /// waiter (the cached key on the fast kind, a scan on the reference
    /// kind) when it is (now) eligible. `None` means nobody can take the
    /// token yet: the publication that crosses the head last will find it
    /// eligible under the lock.
    pub fn successor(&mut self) -> Option<Tid> {
        match self.policy() {
            OrderPolicy::InstructionCount => {
                let head = match self.kind {
                    SchedKind::Fast => self.slots.head_key(),
                    SchedKind::Reference => self.scan_head_key(),
                };
                let t = Tid(packed_tid(head));
                (head != NO_WAITER && self.eligible(t)).then_some(t)
            }
            OrderPolicy::RoundRobin => {
                let holder = self.entries.get(self.rr_turn)?.as_ref()?;
                matches!(holder.state, ThreadState::AtSync(_)).then_some(Tid(self.rr_turn as u32))
            }
        }
    }

    /// Cross-checks the mirror against the entries it is derived from:
    /// every registered thread's slot against its entry, and the head key
    /// against the scan. `Err` names the first violation found — the
    /// supervisor's cue to fail over before a wrong bound blocks (or
    /// admits) a token grant. The reference kind reads no derived state:
    /// always `Ok`.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.kind != SchedKind::Fast {
            return Ok(());
        }
        for (i, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            let (slot, want) = (self.slots.bound_key(i), mirror_key(i as u32, e));
            // A running thread publishes around the table: its slot may be
            // ahead of its entry, never behind.
            if slot != want && !(e.state == ThreadState::Running && slot > want) {
                return Err(format!(
                    "thread {i}: mirror slot holds ({}, {}) but its entry is {:?} with \
                     published clock {}",
                    packed_clock(slot),
                    packed_tid(slot),
                    e.state,
                    e.published
                ));
            }
        }
        let (head, expect) = (self.slots.head_key(), self.scan_head_key());
        if head != expect {
            return Err(format!(
                "published head key {head:#x} disagrees with the minimum waiter {expect:#x}"
            ));
        }
        Ok(())
    }

    /// Fault-injection hook: puts the bound the lowest-clocked departed
    /// thread published before it left back into its slot, as if the
    /// mirror had missed its `clockDepart` (the paper's Figure 7 line 12)
    /// — every fast-kind waiter past that bound is blocked until the
    /// thread is reactivated, which may need one of them to run first.
    /// This is the corruption class
    /// [`check_invariants`](Self::check_invariants) exists to catch and
    /// [`failover`](Self::failover) heals. Returns `false` when no thread
    /// is departed or the table does not read the mirror. Testing and
    /// supervised fault drills only.
    pub fn corrupt_stale_departed_bound(&mut self) -> bool {
        if self.kind != SchedKind::Fast {
            return false;
        }
        let stale = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Some(e) if e.state == ThreadState::Departed => Some(pack(e.published, i as u32)),
                _ => None,
            })
            .min();
        let Some(key) = stale else { return false };
        self.slots.bounds[packed_tid(key) as usize].store(key, SeqCst);
        true
    }

    /// Fails over from the fast kind to the reference kind in place — the
    /// supervised recovery path. States, histories and the round-robin turn
    /// are the table's own and stay where they are; the one thing only the
    /// atomics know, a running thread's lock-free publications the table
    /// has not seen yet, is folded into `published`; from then on every
    /// query is answered from the entries and the mirror — the redundancy
    /// a corruption poisons — is neither written nor read. Every
    /// eligibility and wake-time query answers as before and the schedule
    /// continues bit-for-bit. Returns `false` on a reference-kind table.
    ///
    /// Afterwards the caller must stop routing publications through
    /// [`Slots::publish`] — the bounds are no longer read — and unpark
    /// every thread once: a waiter the corruption kept asleep may be
    /// eligible now. A publication already in flight there still lands in
    /// the thread's history, where `crossing_v` finds it.
    pub fn failover(&mut self) -> bool {
        if self.kind != SchedKind::Fast {
            return false;
        }
        for (i, e) in self.entries.iter_mut().enumerate() {
            if let Some(e) = e.as_mut().filter(|e| e.state == ThreadState::Running) {
                e.published = e.published.max(packed_clock(self.slots.bound_key(i)));
            }
        }
        self.kind = SchedKind::Reference;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::table::SchedKind;

    fn fast(n: usize) -> SchedTable {
        SchedTable::new(
            SchedKind::Fast,
            OrderPolicy::InstructionCount,
            Slots::new(n),
        )
    }

    #[test]
    fn packed_keys_order_lexicographically() {
        assert!(pack(5, 3) < pack(6, 0));
        assert!(pack(5, 0) < pack(5, 1));
        assert!(pack(5, 9) < pack(6, 9));
        assert_eq!(packed_clock(pack(77, 3)), 77);
        assert_eq!(packed_tid(pack(77, 3)), 3);
        // Saturation keeps the unblocked sentinel below NO_WAITER.
        assert!(unblocked_key(0xFFFE) < NO_WAITER);
        assert_eq!(packed_clock(pack(u64::MAX, 1)), MAX_PACKED_CLOCK);
    }

    #[test]
    fn fast_table_basic_eligibility_matches_gmic() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(0), 50, 0);
        t.arrive_sync(Tid(1), 40, 0);
        assert!(!t.eligible(Tid(0)));
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.min_waiting_other(Tid(0)), Some((40, 1)));
    }

    #[test]
    fn lock_free_publication_is_seen_by_locked_eligibility() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 7);
        assert!(!t.eligible(Tid(1)));
        // Publish around the table, straight through the slots — the
        // runtime's hot path.
        let out = t.slots.publish(Tid(0), 60, 123);
        assert!(out.advanced);
        assert_eq!(out.head, Some((50, 1)));
        assert_eq!(out.wake_hint, Some(Tid(1)));
        assert!(
            t.eligible(Tid(1)),
            "eligibility reads the slot, not the entry"
        );
        assert_eq!(t.crossing_v(Tid(1), 50), 123);
        assert_eq!(t.published(Tid(0)), 60);
    }

    #[test]
    fn crossing_is_reported_once_per_head_key_per_publisher() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        let hint = |t: &SchedTable, p: u32, clock| t.slots.publish(Tid(p), clock, 1).wake_hint;
        // Below the head's key: no crossing yet. (50, 0) still orders
        // before (50, 1).
        assert_eq!(hint(&t, 0, 40), None);
        assert_eq!(hint(&t, 0, 50), None);
        // T0 crosses. The hint says that and nothing more: T2 (published
        // 0) still blocks the head, which the locked re-check finds.
        assert_eq!(hint(&t, 0, 60), Some(Tid(1)));
        assert!(!t.eligible(Tid(1)));
        // Once per publisher: T0 is past the key for good.
        assert_eq!(hint(&t, 0, 70), None);
        // T2 crosses last, and the re-check after *its* store succeeds.
        assert_eq!(hint(&t, 2, 51), Some(Tid(1)));
        assert_eq!(hint(&t, 2, 52), None);
        assert_eq!(t.successor(), Some(Tid(1)));
        // Per head key: T1 runs and waits again at a later clock, and both
        // publishers cross the new key once more.
        t.resume(Tid(1), 50, 2);
        t.arrive_sync(Tid(1), 100, 3);
        assert_eq!(hint(&t, 0, 99), None);
        assert_eq!(hint(&t, 0, 101), Some(Tid(1)));
        assert_eq!(hint(&t, 2, 200), Some(Tid(1)));
        assert_eq!(hint(&t, 0, 300), None);
    }

    #[test]
    fn crossing_is_never_reported_for_the_heads_own_publication() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        assert_eq!(t.slots.head_key(), pack(50, 1));
        // A store into the head's own slot passes its own key (its bound
        // is the clock it waits at) — that is not a thread unblocking it.
        let out = t.slots.publish(Tid(1), 60, 1);
        assert!(out.advanced);
        assert_eq!(out.head, Some((50, 1)));
        assert_eq!(out.wake_hint, None);
        // Nor is there anything to cross with nobody waiting.
        t.resume(Tid(1), 60, 2);
        assert_eq!(t.slots.head_key(), NO_WAITER);
        let out = t.slots.publish(Tid(0), 70, 3);
        assert_eq!((out.head, out.wake_hint), (None, None));
    }

    #[test]
    fn successor_is_the_eligible_head_waiter() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 70, 0);
        t.arrive_sync(Tid(2), 30, 0);
        // T0 still running at clock 0: nobody is eligible yet.
        assert_eq!(t.successor(), None);
        t.publish(Tid(0), 100, 1);
        assert_eq!(t.successor(), Some(Tid(2)));
        // T2 resumes at clock 30: still below T1's (70, 1), so it blocks
        // the new head until it runs past it.
        t.resume(Tid(2), 30, 2);
        assert_eq!(t.successor(), None);
        t.publish(Tid(2), 90, 3);
        assert_eq!(t.successor(), Some(Tid(1)));
    }

    #[test]
    fn departed_and_finished_threads_unblock_waiters() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        assert!(!t.eligible(Tid(1)));
        t.depart(Tid(0), 10);
        assert!(!t.eligible(Tid(1)));
        t.finish(Tid(2), 11);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 11);
        // Reactivation at a low clock blocks the waiter again.
        t.reactivate(Tid(0), 10, 12);
        assert!(!t.eligible(Tid(1)));
    }

    #[test]
    fn sched_table_reference_names_the_eligible_head_waiter() {
        let mut t = SchedTable::new(
            SchedKind::Reference,
            OrderPolicy::InstructionCount,
            Slots::new(2),
        );
        t.register(Tid(0), 0, 0);
        t.arrive_sync(Tid(0), 1, 0);
        assert!(t.eligible(Tid(0)));
        assert_eq!(t.successor(), Some(Tid(0)));
        assert_eq!(t.kind(), SchedKind::Reference);
    }

    #[test]
    fn fast_round_robin_takes_turns() {
        let mut t = SchedTable::new(SchedKind::Fast, OrderPolicy::RoundRobin, Slots::new(4));
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 10, 0);
        t.arrive_sync(Tid(0), 99, 0);
        assert!(t.eligible(Tid(0)));
        assert!(!t.eligible(Tid(1)));
        assert_eq!(t.successor(), Some(Tid(0)));
        t.rr_advance(5);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.rr_turn_v(), 5);
    }

    #[test]
    fn dead_waiter_is_removed_from_queue_on_finish() {
        // Regression (waiter-queue leak): a thread that dies while queued
        // AtSync must stop being the head waiter, or the GMIC successor
        // computation would select a dead thread forever.
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        t.arrive_sync(Tid(2), 70, 1);
        // T1 (the head waiter) dies while queued.
        t.finish(Tid(1), 5);
        assert_eq!(t.slots.head_key(), pack(70, 2), "head must move to T2");
        t.publish(Tid(0), 100, 6);
        assert_eq!(t.successor(), Some(Tid(2)), "dead thread must be skipped");
        assert!(t.eligible(Tid(2)));
        assert_eq!(t.min_waiting_other(Tid(0)), Some((70, 2)));
        t.check_invariants()
            .expect("finish must leave state coherent");
    }

    #[test]
    fn dead_waiter_is_removed_from_queue_on_depart() {
        // Same leak class via the depart path (a queued thread pulled off
        // to block on a lock hand-off, then never re-queued).
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        assert_eq!(t.slots.head_key(), pack(50, 1));
        t.depart(Tid(1), 2);
        assert_eq!(t.slots.head_key(), NO_WAITER);
        assert_eq!(t.successor(), None);
        t.check_invariants()
            .expect("depart must leave state coherent");
    }

    /// T0 waits at 50 behind T1 (departed at clock 10, its slot rewound to
    /// that bound by the drill) and T2, which ran past both at `v = 9`.
    fn stale_departed_bound() -> SchedTable {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 10, 1);
        t.depart(Tid(1), 2);
        t.arrive_sync(Tid(0), 50, 3);
        t.publish(Tid(2), 60, 9);
        t.check_invariants().expect("healthy table");
        assert!(t.eligible(Tid(0)));
        assert!(t.corrupt_stale_departed_bound());
        t
    }

    #[test]
    fn invariant_check_names_the_thread_with_a_stale_departed_bound() {
        let mut t = stale_departed_bound();
        assert!(!t.eligible(Tid(0)), "(10, 1) in the mirror blocks (50, 0)");
        assert_eq!(t.successor(), None, "the fast kind would hang here");
        let err = t.check_invariants().expect_err("corruption must be found");
        assert!(
            err.starts_with("thread 1: mirror slot holds (10, 1)"),
            "{err}"
        );
        // The thread's next transition would heal it — but that may need
        // the blocked waiter to run first.
        t.reactivate(Tid(1), 70, 10);
        t.check_invariants()
            .expect("a transition rewrites the slot");
        assert!(t.eligible(Tid(0)));
    }

    #[test]
    fn drill_needs_a_departed_thread_and_a_table_that_reads_the_mirror() {
        let mut t = fast(2);
        t.register(Tid(0), 0, 0);
        assert!(!t.corrupt_stale_departed_bound(), "nobody departed");
        t.depart(Tid(0), 1);
        assert!(t.failover());
        assert!(!t.corrupt_stale_departed_bound(), "reference kind");
    }

    #[test]
    fn failover_preserves_every_scheduling_answer() {
        let mut t = SchedTable::new(
            SchedKind::Fast,
            OrderPolicy::InstructionCount,
            Slots::new(4),
        );
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.publish(Tid(0), 20, 3);
        t.arrive_sync(Tid(1), 50, 4);
        t.depart(Tid(2), 5);
        // Lock-free publication the cached keys lag behind.
        t.slots.publish(Tid(0), 60, 7);
        assert!(t.failover());
        assert_eq!(t.kind(), SchedKind::Reference);
        assert!(!t.failover(), "second failover is a no-op");
        assert_eq!(t.state(Tid(1)), ThreadState::AtSync(50));
        assert_eq!(t.state(Tid(2)), ThreadState::Departed);
        assert_eq!(t.published(Tid(0)), 60, "lock-free bound must carry over");
        assert!(t.eligible(Tid(1)), "T0 at 60 and departed T2 unblock T1");
        assert_eq!(t.crossing_v(Tid(1), 50), 7, "wake time from history");
        assert_eq!(t.min_waiting_other(Tid(0)), Some((50, 1)));
        assert_eq!(t.census(), (1, 1, 1));
    }

    #[test]
    fn failover_heals_a_stale_departed_bound() {
        // End-to-end at the table level: corrupt, detect, fail over; the
        // blocked waiter is schedulable again because the reference kind
        // answers from the entries, at the wake time the clean run reads.
        let mut t = stale_departed_bound();
        assert!(t.check_invariants().is_err());
        assert!(!t.eligible(Tid(0)));
        assert!(t.failover());
        t.check_invariants().expect("reference table is coherent");
        assert!(t.eligible(Tid(0)), "blocked waiter is schedulable again");
        assert_eq!(t.crossing_v(Tid(0), 50), 9, "histories were never touched");
    }

    #[test]
    fn publication_in_flight_during_failover_keeps_its_wake_time() {
        // A running thread already past the runtime's "lock-free?" check
        // when the watchdog fails the table over still publishes through
        // the slots. Its entry must stay in the wake-time history: a
        // degraded run's virtual time has to equal the clean run's.
        let slots = Slots::new(4);
        let mut t = SchedTable::new(
            SchedKind::Fast,
            OrderPolicy::InstructionCount,
            slots.clone(),
        );
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 7);
        assert!(t.failover());
        slots.publish(Tid(0), 60, 123); // the straggler
        assert!(!t.eligible(Tid(1)), "the table no longer reads the slots");
        t.publish(Tid(0), 70, 200); // T0's next, locked, publication
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 50), 123, "T0 crossed 50 at v=123");
    }

    #[test]
    fn failover_preserves_round_robin_turn() {
        let mut t = SchedTable::new(SchedKind::Fast, OrderPolicy::RoundRobin, Slots::new(4));
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(0), 9, 0);
        t.rr_advance(3);
        assert_eq!(t.rr_holder(), 1);
        assert!(t.failover());
        assert_eq!(t.rr_holder(), 1);
        assert_eq!(t.rr_turn_v(), 3);
        assert!(!t.eligible(Tid(0)));
    }

    #[test]
    fn fast_history_stays_bounded_under_publication() {
        let mut t = fast(2);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        let slots = t.slots.clone();
        let mut peak = 0;
        for i in 1..=100_000u64 {
            slots.publish(Tid(0), i, i);
            if i % 64 == 0 {
                t.arrive_sync(Tid(1), i - 1, i);
                assert!(t.eligible(Tid(1)));
                t.resume(Tid(1), i - 1, i);
            }
            peak = peak.max(t.history_len(Tid(0)));
        }
        assert!(peak < 4 * PRUNE_MIN, "history peaked at {peak} entries");
        assert!(t.history_len(Tid(1)) < 4 * PRUNE_MIN);
        t.arrive_sync(Tid(1), 99_999, 100_001);
        assert!(t.eligible(Tid(1)));
        assert_eq!(t.crossing_v(Tid(1), 99_999), 100_000);
    }
}
