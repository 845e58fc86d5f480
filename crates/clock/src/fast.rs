//! Scheduler fast path: lock-free clock publication and O(log T)
//! eligibility.
//!
//! On its own the clock table ([`SchedTable`], kind
//! [`Reference`](crate::SchedKind::Reference)) is a passive state machine
//! mutated under the runtime's one global mutex, and its queries are O(T)
//! scans. That is correct but serializes *every* counter overflow through
//! the global lock and makes every wake-up decision walk the whole table.
//! This module holds what the [`Fast`](crate::SchedKind::Fast) kind adds:
//!
//! * [`Slots`] — the lock-free half. One cache-padded `AtomicU64` per
//!   thread holds the thread's *effective clock bound* packed with its tid
//!   (so a single integer compare is the lexicographic `(clock, tid)`
//!   order), plus a per-thread publication history behind a per-thread
//!   mutex (the one home of the histories for both kinds; the reference
//!   kind uses nothing else here). Counter-overflow [`Slots::publish`]
//!   touches only the publisher's own cache line and never takes the
//!   global mutex; the eligibility *read* ([`Slots::eligible_read`]) is a
//!   lock-free scan.
//! * the table's index — the locked half. State transitions (arrive,
//!   depart, finish, reactivate, resume) and wait-queue mutation still
//!   happen under the global runtime lock, written once in `crate::table`,
//!   but each one is mirrored into the slots and into ordered sets so that
//!   eligibility and `min_waiting_other` become O(log T): `waiters`
//!   (threads blocked `AtSync`, keyed by their waiting `(clock, tid)`) and
//!   `bounds` (every live thread's last *known* effective bound). Running
//!   threads' cached bounds may lag their atomic slots — staleness only
//!   ever under-reports a clock, which is conservative — and
//!   [`SchedTable::eligible`] refreshes a stale minimum lazily from the
//!   slot, so each refresh is paid for by a real publication.
//!
//! The index is derived from the table's entries and only the indexed
//! queries read it, so the watchdog's failover ([`SchedTable::failover`])
//! is to drop it.
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
//! # Memory-order arguments (no lost wake-up)
//!
//! A publisher that crosses the head waiter's key must ensure somebody
//! wakes that waiter. Three races matter, all resolved with `SeqCst`:
//!
//! 1. *Publisher vs. waiter parking.* The publisher's wake hint is only a
//!    hint: the runtime re-checks it under the global mutex and unparks
//!    the waiter's permit after dropping the mutex. The waiter evaluates
//!    its predicate under that mutex: either after the publisher's
//!    `SeqCst` slot store, which it then sees, or before — and then the
//!    unpark follows its unlock, and a permit is kept whether it lands
//!    before the `park` or after.
//! 2. *Publisher vs. token release.* Publisher does `W(slot); R(token_free)`
//!    while the releaser does `W(token_free); R(slot)` (the successor
//!    eligibility check). Under `SeqCst` at least one side observes the
//!    other's store, so at least one of them initiates the wake.
//! 3. *Two concurrent publishers both blocking the head.* Each does
//!    `W(own slot)` then reads the other's slot in [`Slots::eligible_read`].
//!    The publisher whose store is later in the `SeqCst` total order
//!    observes every earlier store, finds the head eligible, and raises
//!    the hint — the "last crosser" always reports.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use dmt_api::sync::{Mutex, MutexGuard};
use dmt_api::{CachePadded, Tid};

use crate::table::{prune_history, Entry, OrderPolicy, SchedTable, ThreadState, PRUNE_MIN};

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

/// Outcome of a lock-free [`Slots::publish`].
#[derive(Clone, Copy, Debug)]
pub struct PublishOutcome {
    /// The published bound advanced (the locked [`SchedTable::publish`]'s
    /// notification hint).
    pub advanced: bool,
    /// Current head waiter `(clock, tid)`, if any — the lock-free
    /// equivalent of `min_waiting_other` for the adaptive-overflow target.
    pub head: Option<(u64, u32)>,
    /// This publication crossed the head waiter's key, the token looked
    /// free, and every other slot is past the head too: the runtime should
    /// take the global lock, re-check, and wake exactly this thread.
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
/// global mutex) and the [`SchedTable`] (whose index mirrors locked state
/// transitions into the slots so lock-free readers see every bound).
#[derive(Debug)]
pub struct Slots {
    /// `pack(effective bound, tid)` per thread slot. Unregistered slots
    /// hold `u64::MAX` (blocks nobody).
    bounds: Box<[CachePadded<AtomicU64>]>,
    hists: Box<[HistSlot]>,
    /// `pack(clock, tid)` of the minimum `AtSync` waiter, or [`NO_WAITER`].
    /// Written only under the global runtime lock (wait-queue mutation);
    /// read lock-free by publishers.
    head_key: AtomicU64,
    /// 1 while no thread holds the global token. Written under the global
    /// lock; read lock-free by publishers.
    token_free: AtomicU64,
    /// Monotone lower bound on every clock any current or future waiter
    /// can query, as the index tracks it. Raised under the global lock via
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
            token_free: AtomicU64::new(1),
            watermark: AtomicU64::new(0),
        })
    }

    /// Number of thread slots.
    pub fn capacity(&self) -> usize {
        self.bounds.len()
    }

    /// Lock-free publication of a running thread's clock: append to own
    /// history (with amortized watermark pruning), raise own slot, and
    /// check whether this store crossed the head waiter.
    pub fn publish(&self, t: Tid, clock: u64, v: u64) -> PublishOutcome {
        debug_assert!(clock < MAX_PACKED_CLOCK, "clock saturates packed keys");
        let i = t.index();
        // History before bound: an acquirer that observed the new bound
        // (that is why it became eligible) must find the crossing entry.
        {
            let mut h = self.hist(i);
            h.push((clock, v));
            self.prune_locked(i, &mut h, || self.watermark());
        }
        let key = pack(clock, t.0);
        let old = self.bounds[i].swap(key, SeqCst);
        let advanced = key > old;
        let head = self.head_key.load(SeqCst);
        let mut wake_hint = None;
        if advanced
            && head != NO_WAITER
            && packed_tid(head) != t.0
            && old <= head
            && head < key
            && self.token_free.load(SeqCst) == 1
            && self.eligible_read(head)
        {
            wake_hint = Some(Tid(packed_tid(head)));
        }
        PublishOutcome {
            advanced,
            head: (head != NO_WAITER).then(|| (packed_clock(head), packed_tid(head))),
            wake_hint,
        }
    }

    /// Lock-free eligibility read: every slot other than the head's own is
    /// past `head_key`. (Unregistered slots hold `u64::MAX` and pass.)
    pub fn eligible_read(&self, head_key: u64) -> bool {
        let head_idx = packed_tid(head_key) as usize;
        self.bounds
            .iter()
            .enumerate()
            .all(|(i, b)| i == head_idx || b.load(SeqCst) > head_key)
    }

    /// Current head waiter key ([`NO_WAITER`] if none).
    pub fn head_key(&self) -> u64 {
        self.head_key.load(SeqCst)
    }

    /// Publishes whether the global token is free (called under the global
    /// lock on every token hand-off).
    pub fn set_token_free(&self, free: bool) {
        self.token_free.store(u64::from(free), SeqCst);
    }

    /// Raw bound key of one slot.
    pub(crate) fn bound_key(&self, i: usize) -> u64 {
        self.bounds[i].load(SeqCst)
    }

    fn store_bound(&self, i: usize, key: u64) {
        self.bounds[i].store(key, SeqCst);
    }

    /// The index's running watermark.
    pub(crate) fn watermark(&self) -> u64 {
        self.watermark.load(SeqCst)
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

/// The keys one thread currently has in the [`Index`] sets.
#[derive(Clone, Copy, Debug, Default)]
struct Keys {
    /// In `bounds`: every registered, non-finished thread.
    bound: Option<u64>,
    /// In `waiters`: `AtSync` only.
    waiter: Option<u64>,
    /// In `departed`: `Departed` only.
    departed: Option<u64>,
}

/// What makes a [`SchedTable`] fast: ordered views of its entries, kept in
/// step with them (and mirrored into the [`Slots`] atomics) by
/// `SchedTable::reindex` after every transition. All of it is redundant —
/// which is what a corruption poisons and why failover can drop it.
#[derive(Debug)]
pub(crate) struct Index {
    /// Last known effective bound `pack(bound, tid)` of every registered,
    /// non-finished thread (departed threads appear as `unblocked_key`).
    bounds: BTreeSet<u64>,
    /// `pack(clock, tid)` of every `AtSync` thread.
    waiters: BTreeSet<u64>,
    /// `pack(published, tid)` of every `Departed` thread — their future
    /// query floor, needed by the watermark but hidden from `bounds`.
    departed: BTreeSet<u64>,
    keys: Vec<Keys>,
}

/// Moves one thread's key in one set (`None`: the thread is not in it).
fn rekey(set: &mut BTreeSet<u64>, cached: &mut Option<u64>, new: Option<u64>) {
    if *cached != new {
        swap_key(set, cached.take(), new);
        *cached = new;
    }
}

/// The set half of [`rekey`]. Out of line on purpose: with the B-tree
/// searches of all three sets inlined into every transition, transitions
/// measured ~10 ns slower (`clock.arrive_ns`).
#[inline(never)]
fn swap_key(set: &mut BTreeSet<u64>, old: Option<u64>, new: Option<u64>) {
    if let Some(k) = old {
        set.remove(&k);
    }
    if let Some(k) = new {
        set.insert(k);
    }
}

impl Index {
    /// An empty index over `n` thread slots.
    pub(crate) fn new(n: usize) -> Index {
        Index {
            bounds: BTreeSet::new(),
            waiters: BTreeSet::new(),
            departed: BTreeSet::new(),
            keys: vec![Keys::default(); n],
        }
    }

    /// Moves thread `i`'s key in `bounds` to `key`.
    pub(crate) fn rekey_bounds(&mut self, i: usize, key: u64) {
        rekey(&mut self.bounds, &mut self.keys[i].bound, Some(key));
    }

    /// Publishes the new head-waiter key and raises the watermark; call
    /// after any wait-queue or state mutation.
    fn sync_head(&self, slots: &Slots) {
        let head = self.waiters.iter().next().copied().unwrap_or(NO_WAITER);
        slots.head_key.store(head, SeqCst);
        let mut w = u64::MAX;
        for set in [&self.waiters, &self.bounds, &self.departed] {
            if let Some(&k) = set.iter().next() {
                w = w.min(packed_clock(k));
            }
        }
        if w != u64::MAX {
            slots.watermark.fetch_max(w, SeqCst);
        }
    }

    /// [`SchedTable::eligible`] under instruction count, for `t` waiting at
    /// `c`.
    ///
    /// O(log T) amortized: takes the minimum cached bound of the other
    /// threads; if it blocks `t` but belongs to a running thread whose
    /// atomic slot has moved on, refreshes that one cache entry and
    /// retries. Every refresh strictly raises a key, and each raise is
    /// paid for by a real lock-free publication.
    pub(crate) fn eligible(
        &mut self,
        entries: &mut [Option<Entry>],
        slots: &Slots,
        t: Tid,
        c: u64,
    ) -> bool {
        let k = pack(c, t.0);
        loop {
            // Only `t`'s own key can be skipped, so this inspects at most
            // two set elements.
            let Some(&m) = self.bounds.iter().find(|&&b| packed_tid(b) != t.0) else {
                return true;
            };
            if m > k {
                return true;
            }
            let j = packed_tid(m) as usize;
            let e = match &mut entries[j] {
                // Only running threads publish outside the lock.
                Some(e) if e.state == ThreadState::Running => e,
                _ => return false,
            };
            let fresh = slots.bound_key(j);
            if fresh == m {
                return false;
            }
            debug_assert!(fresh > m, "published bounds are monotone");
            self.rekey_bounds(j, fresh);
            e.published = packed_clock(fresh);
        }
    }

    /// Smallest waiting `(clock, tid)` other than `t`. O(log T): at most
    /// two elements inspected.
    pub(crate) fn min_waiting_other(&self, t: Tid) -> Option<(u64, u32)> {
        self.waiters
            .iter()
            .find(|&&k| packed_tid(k) != t.0)
            .map(|&k| (packed_clock(k), packed_tid(k)))
    }
}

/// The index-facing half of the table: everything here is a no-op (or the
/// documented constant) on a reference-kind table.
impl SchedTable {
    /// Brings the index up to date with `t`'s entry `e` after a transition
    /// and mirrors the new bound into `t`'s slot.
    pub(crate) fn reindex(&mut self, t: Tid, e: Entry) {
        let Some(ix) = &mut self.index else { return };
        let k = pack(e.published, t.0);
        let (bound, waiter, departed) = match e.state {
            ThreadState::Running => (Some(k), None, None),
            ThreadState::AtSync(c) => {
                debug_assert!(c < MAX_PACKED_CLOCK);
                (Some(k), Some(pack(c, t.0)), None)
            }
            // Its published clock is the floor of its future queries.
            ThreadState::Departed => (Some(unblocked_key(t.0)), None, Some(k)),
            ThreadState::Finished => (None, None, None),
        };
        self.slots
            .store_bound(t.index(), bound.unwrap_or(unblocked_key(t.0)));
        let keys = &mut ix.keys[t.index()];
        rekey(&mut ix.bounds, &mut keys.bound, bound);
        rekey(&mut ix.waiters, &mut keys.waiter, waiter);
        rekey(&mut ix.departed, &mut keys.departed, departed);
        ix.sync_head(&self.slots);
    }

    /// The unique thread a token release should wake, if any: the head
    /// waiter when it is (now) eligible. `None` means nobody can take the
    /// token yet — the next crossing publication will raise the hint — or
    /// that there is no index, in which case releases broadcast.
    pub fn successor(&mut self) -> Option<Tid> {
        let policy = self.policy();
        let ix = self.index.as_mut()?;
        match policy {
            OrderPolicy::InstructionCount => {
                // The head waiter's key is its `(clock, tid)`.
                let head = *ix.waiters.iter().next()?;
                let t = Tid(packed_tid(head));
                ix.eligible(&mut self.entries, &self.slots, t, packed_clock(head))
                    .then_some(t)
            }
            OrderPolicy::RoundRobin => {
                let holder = self.entries.get(self.rr_turn)?.as_ref()?;
                matches!(holder.state, ThreadState::AtSync(_)).then_some(Tid(self.rr_turn as u32))
            }
        }
    }

    /// Cross-checks the redundant scheduler state: the cached keys against
    /// the entries, the `waiters`/`bounds` sets and the published head key.
    /// `Err` describes the first violation found — the supervisor's cue to
    /// fail over before the corrupted queues mis-order (or lose) a token
    /// grant. A table with no index has no redundant derived state to
    /// corrupt: always `Ok`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(ix) = &self.index else { return Ok(()) };
        let mut at_sync = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            let keys = ix.keys[i];
            match (e.state, keys.waiter) {
                (ThreadState::AtSync(c), Some(wk)) => {
                    at_sync += 1;
                    if wk != pack(c, i as u32) {
                        return Err(format!(
                            "thread {i}: waiter key {wk:#x} does not encode its AtSync clock {c}"
                        ));
                    }
                    if !ix.waiters.contains(&wk) {
                        return Err(format!(
                            "thread {i}: AtSync({c}) but missing from the waiter queue \
                             (lost waiter — it would never be woken)"
                        ));
                    }
                }
                (ThreadState::AtSync(c), None) => {
                    return Err(format!("thread {i}: AtSync({c}) with no waiter key"));
                }
                (_, Some(wk)) => {
                    return Err(format!(
                        "thread {i}: stale waiter key {wk:#x} in state {:?}",
                        e.state
                    ));
                }
                (_, None) => {}
            }
            let live = !matches!(e.state, ThreadState::Finished);
            if live && !keys.bound.is_some_and(|k| ix.bounds.contains(&k)) {
                return Err(format!(
                    "thread {i}: cached bound {:x?} missing from the bounds set",
                    keys.bound
                ));
            }
        }
        if ix.waiters.len() != at_sync {
            return Err(format!(
                "waiter queue holds {} keys but {at_sync} threads are AtSync",
                ix.waiters.len()
            ));
        }
        let head = self.slots.head_key();
        let expect = ix.waiters.iter().next().copied().unwrap_or(NO_WAITER);
        if head != expect {
            return Err(format!(
                "published head key {head:#x} disagrees with waiter-queue minimum {expect:#x}"
            ));
        }
        Ok(())
    }

    /// Fault-injection hook: silently drops the first waiter other than
    /// `exclude` from the waiter queue, leaving its cached key believing it
    /// is queued — the lost-waiter corruption class
    /// [`check_invariants`](Self::check_invariants) exists to catch.
    /// `exclude` is the thread being granted the token (losing *its* key
    /// would be harmless: it is about to resume and leave the queue
    /// anyway). Returns `false` when nobody else is waiting or there is no
    /// index to corrupt. Testing and supervised fault drills only.
    pub fn corrupt_lose_head_waiter(&mut self, exclude: Tid) -> bool {
        let Some(ix) = &mut self.index else {
            return false;
        };
        let Some(&k) = ix.waiters.iter().find(|&&k| packed_tid(k) != exclude.0) else {
            return false;
        };
        ix.waiters.remove(&k);
        // Republish the (now wrong) head so lock-free publishers are
        // equally blind to the lost waiter.
        ix.sync_head(&self.slots);
        true
    }

    /// Fails over from the fast kind to the reference kind in place — the
    /// supervised recovery path. States, histories and the round-robin turn
    /// are the table's own and stay where they are; the one thing only the
    /// atomics know, a running thread's lock-free publications the table
    /// has not seen yet, is folded into `published`; then the index — the
    /// redundancy a corruption poisons — is dropped. Every eligibility and
    /// wake-time query answers as before and the schedule continues
    /// bit-for-bit. Returns `false` when there is no index to drop.
    ///
    /// Afterwards the caller must stop routing publications through
    /// [`Slots::publish`] and fall back to broadcast wake-ups: the bounds
    /// are no longer read. A publication already in flight there still
    /// lands in the thread's history, where `crossing_v` finds it.
    pub fn failover(&mut self) -> bool {
        if self.index.take().is_none() {
            return false;
        }
        for (i, e) in self.entries.iter_mut().enumerate() {
            if let Some(e) = e.as_mut().filter(|e| e.state == ThreadState::Running) {
                e.published = e.published.max(packed_clock(self.slots.bound_key(i)));
            }
        }
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
        assert!(t.eligible(Tid(1)), "stale cached bound must refresh");
        assert_eq!(t.crossing_v(Tid(1), 50), 123);
        assert_eq!(t.published(Tid(0)), 60);
    }

    #[test]
    fn publish_does_not_hint_when_token_is_held() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        t.slots.set_token_free(false);
        let out = t.slots.publish(Tid(0), 60, 1);
        assert!(out.advanced);
        assert_eq!(out.wake_hint, None, "no hint while the token is held");
        // The wake is the releaser's job: its successor check (made after
        // setting the token free) observes the crossing.
        t.slots.set_token_free(true);
        assert_eq!(t.successor(), Some(Tid(1)));
    }

    #[test]
    fn publish_does_not_hint_while_third_thread_blocks_head() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.register(Tid(2), 0, 0);
        t.arrive_sync(Tid(1), 50, 0);
        // T0 crosses, but T2 (published 0) still blocks the head.
        let out = t.slots.publish(Tid(0), 60, 1);
        assert_eq!(out.wake_hint, None);
        // T2 crosses last: it raises the hint.
        let out = t.slots.publish(Tid(2), 60, 2);
        assert_eq!(out.wake_hint, Some(Tid(1)));
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
    fn sched_table_reference_has_no_successor() {
        let mut t = SchedTable::new(
            SchedKind::Reference,
            OrderPolicy::InstructionCount,
            Slots::new(2),
        );
        t.register(Tid(0), 0, 0);
        t.arrive_sync(Tid(0), 1, 0);
        assert!(t.eligible(Tid(0)));
        assert_eq!(t.successor(), None);
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
        // AtSync must leave the BTreeSet waiter queue, or the GMIC
        // successor computation would select a dead thread forever.
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

    #[test]
    fn invariant_check_catches_lost_waiter() {
        let mut t = fast(4);
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        t.check_invariants().expect("healthy table");
        assert!(t.corrupt_lose_head_waiter(Tid(0)));
        let err = t.check_invariants().expect_err("corruption must be found");
        assert!(err.contains("lost waiter"), "{err}");
        // The corrupted table would never wake T1 again.
        t.publish(Tid(0), 100, 2);
        assert_eq!(t.successor(), None);
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
    fn failover_recovers_a_corrupted_queue() {
        // End-to-end at the table level: corrupt, detect, fail over; the
        // lost waiter is schedulable again on the rebuilt table.
        let mut t = SchedTable::new(
            SchedKind::Fast,
            OrderPolicy::InstructionCount,
            Slots::new(4),
        );
        t.register(Tid(0), 0, 0);
        t.register(Tid(1), 0, 0);
        t.arrive_sync(Tid(1), 50, 1);
        assert!(t.corrupt_lose_head_waiter(Tid(0)));
        assert!(t.check_invariants().is_err());
        t.publish(Tid(0), 100, 2);
        assert_eq!(t.successor(), None, "fast path would hang here");
        assert!(t.failover());
        t.check_invariants().expect("reference table is coherent");
        assert!(t.eligible(Tid(1)), "lost waiter is schedulable again");
        assert_eq!(t.crossing_v(Tid(1), 50), 2);
    }

    #[test]
    fn publication_in_flight_during_failover_keeps_its_wake_time() {
        // A running thread already past the runtime's "targeted?" check
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
