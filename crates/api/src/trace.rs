//! Deterministic event tracing: schedule hashes and divergence diagnosis.
//!
//! The determinism claim of the Consequence paper (§2.4–§3.5) is a claim
//! about an *order*: every synchronization event — token grants,
//! asynchronous Conversion commits and updates, two-phase barrier
//! installs — happens in the same total order on every run. Final-heap
//! digests ([`crate::RunReport::commit_log_hash`]) witness the
//! *consequences* of that order but say nothing about *where* two runs
//! diverged when they disagree. This module makes the schedule itself the
//! artifact:
//!
//! * [`Event`] — one synchronization event, compact and `Copy`;
//! * [`TraceSink`] — where runtimes send events: [`HashSink`]
//!   (incremental FNV-1a **schedule hash**), [`MemorySink`] (bounded ring
//!   buffer retaining the most recent events for diagnosis). The default
//!   is no sink at all ([`TraceHandle::off`]), a single branch per event.
//!   A token holder hands a sink the events of its tenure in one
//!   [`TraceSink::emit_all`] call;
//! * [`diagnose`] / [`Divergence`] — given two recorded traces, the first
//!   differing event with surrounding context, instead of a bare hash
//!   mismatch.
//!
//! # Schedule events vs. auxiliary events
//!
//! Runtimes emit every event with an `in_schedule` flag. Events emitted
//! while the emitting thread holds the global token (or its serial turn)
//! form the deterministic total order and are folded into the schedule
//! hash. Events whose real-time interleaving is *not* part of the
//! determinism contract — counter-overflow publications under adaptive
//! notification (§3.2), parallel-phase update work in DThreads — are
//! emitted as auxiliary: counted by the ledger, never hashed. So are the
//! commits of the parallel barrier's participants, which merge outside the
//! token, and every barrier leaver's update to the installed version. The
//! nondeterministic pthreads baseline emits everything as schedule events;
//! its hash varying across runs is the negative control.
//!
//! # The stream is the run's account
//!
//! Each runtime's per-thread context emits through one helper that first
//! counts the event's kind ([`crate::RunReport::events`]) and folds its
//! values into that thread's [`Counters`](crate::Counters), tracing on or
//! off ([`Counters::count`](crate::Counters::count) defines the rows;
//! those that count a kind are read off the kind counts). The event-backed
//! deterministic counters and the per-kind counts of a run are therefore
//! the fold of its stream, schedule and auxiliary events alike: a sink
//! that folds what it is sent reads them exactly, and no sink counts.
//!
//! # Token domains
//!
//! The `dmt-shard` subsystem partitions a run into independently tokened
//! **domains** (see [`crate::DomainId`]), each with its own deterministic
//! total order. Every emission carries the emitting domain: a
//! [`TraceHandle`] is bound to one domain at construction
//! ([`TraceHandle::to_domain`]) and stamps it on every event, so one sink
//! can absorb several domains' schedules and still tell them apart.
//! Events in [`crate::DomainId::ROOT`] fold into the schedule hash exactly
//! as they did before domains existed — unsharded hashes and recorded
//! traces are stable across versions — while non-root domains fold a
//! domain prefix, so two shards' interleavings can never collide into one
//! hash. A [`Divergence`] names the divergent domain.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::hash::Fnv1a;
use crate::ids::{BarrierId, CondId, DomainId, MutexId, RwLockId, Tid};
use crate::sync::Mutex;

/// The class of one event field: how the schedule hash and the `.dmtrace`
/// codec write it (see [`EventKind::fields`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// A thread id.
    Tid,
    /// An optional thread id; `None` is `u64::MAX` in [`Event::values`].
    OptTid,
    /// A 32-bit object id or count.
    U32,
    /// A 64-bit ordinal, count or digest.
    U64,
    /// A boolean, `0` or `1`.
    Flag,
    /// A logical clock.
    Clock,
    /// A version id.
    Version,
}

/// The most fields an event has: the length of [`Event::values`].
pub const MAX_FIELDS: usize = 5;

/// A field's value as the `u64` the schedule hash folds, and back;
/// `from_value` truncates what does not fit (the codec checks ranges).
trait FieldValue {
    fn value(self) -> u64;
    fn from_value(v: u64) -> Self;
}

macro_rules! field_values {
    ($($t:ty: |$s:ident| $value:expr, |$v:ident| $from_value:expr;)+) => {$(
        impl FieldValue for $t {
            fn value(self) -> u64 {
                let $s = self;
                $value
            }
            fn from_value($v: u64) -> $t {
                $from_value
            }
        }
    )+};
}

field_values! {
    Tid: |t| t.0.into(), |v| Tid(v as u32);
    MutexId: |m| m.0.into(), |v| MutexId(v as u32);
    CondId: |c| c.0.into(), |v| CondId(v as u32);
    BarrierId: |b| b.0.into(), |v| BarrierId(v as u32);
    RwLockId: |l| l.0.into(), |v| RwLockId(v as u32);
    u32: |n| n.into(), |v| v as u32;
    u64: |n| n, |v| v;
    bool: |b| b.into(), |v| v != 0;
    Option<Tid>: |t| t.map_or(u64::MAX, Tid::value), |v| (v != u64::MAX).then_some(Tid(v as u32));
}

/// Declares every event kind once, in tag order: its doc, its stable
/// name and its fields, each with its type and [`FieldKind`]. [`Event`],
/// [`EventKind`], [`Event::kind`], [`EventKind::fields`],
/// [`Event::for_each_value`] and [`Event::from_values`] derive from it.
/// The fold and the encoder visit the fields rather than read
/// [`Event::values`]: inlined, the visit is straight-line code per kind,
/// with no array to spill.
macro_rules! events {
    ($($(#[$doc:meta])* $kind:ident $name:literal { $($field:ident: $ty:ty = $class:ident),+ })+) => {
        /// One synchronization event in a runtime's deterministic total order.
        ///
        /// Fields are the *deterministic* coordinates of the event: thread ids,
        /// logical clocks, object ids, ticket numbers, version ids and dirty-page
        /// digests. Virtual times and wall times are deliberately absent — they
        /// carry no additional schedule information and (for wall time) would
        /// destroy hash stability.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Event {
            $($(#[$doc])* $kind { $($field: $ty),+ },)+
        }

        crate::named_enum! {
            /// Event categories, for counting and display. A kind's
            /// discriminant is its `.dmtrace` tag and the first byte of its
            /// schedule-hash fold.
            pub enum EventKind, fn name {
                $($kind => $name,)+
            }
        }

        impl EventKind {
            /// This kind's fields, name and class, in declaration order:
            /// the one layout the schedule hash ([`Event::fold`]), the
            /// `.dmtrace` codec and [`Event::tid`] read.
            pub fn fields(self) -> &'static [(&'static str, FieldKind)] {
                match self {
                    $(EventKind::$kind => &[$((stringify!($field), FieldKind::$class)),+],)+
                }
            }
        }

        impl Event {
            /// The category of this event.
            pub fn kind(&self) -> EventKind {
                match self {
                    $(Event::$kind { .. } => EventKind::$kind,)+
                }
            }

            /// Calls `f` with each field's class and value, in
            /// [`EventKind::fields`] order: the value as the `u64` the
            /// schedule hash folds.
            #[inline]
            pub fn for_each_value(&self, mut f: impl FnMut(FieldKind, u64)) {
                match *self {
                    $(Event::$kind { $($field),+ } => {
                        $(f(FieldKind::$class, $field.value());)+
                    })+
                }
            }

            /// The event of `kind` whose [`values`](Event::values) are `v`.
            /// A value too wide for its field is truncated: the codec checks
            /// ranges before it builds an event.
            pub fn from_values(kind: EventKind, v: [u64; MAX_FIELDS]) -> Event {
                let mut v = v.into_iter();
                match kind {
                    $(EventKind::$kind => Event::$kind {
                        $($field: FieldValue::from_value(v.next().unwrap_or(0))),+
                    },)+
                }
            }
        }
    };
}

events! {
    /// A thread acquired the global token (GMIC grant or round-robin
    /// turn) at the given logical clock.
    TokenAcquire "token_acquire" { tid: Tid = Tid, clock: u64 = Clock }
    /// The token holder released the token.
    TokenRelease "token_release" { tid: Tid = Tid, clock: u64 = Clock }
    /// A thread left the deterministic order to block (`clockDepart`).
    Depart "depart" { tid: Tid = Tid, clock: u64 = Clock }
    /// A deterministic mutex acquisition; `ticket` is the per-lock
    /// acquisition ordinal.
    MutexLock "mutex_lock" { tid: Tid = Tid, mutex: MutexId = U32, ticket: u64 = U64 }
    /// A thread queued on a held mutex.
    MutexBlock "mutex_block" { tid: Tid = Tid, mutex: MutexId = U32 }
    /// A mutex release; `woke` is the waiter handed the lock, if any.
    MutexUnlock "mutex_unlock" { tid: Tid = Tid, mutex: MutexId = U32, woke: Option<Tid> = OptTid }
    /// A condition wait (mutex released, thread departed).
    CondWait "cond_wait" { tid: Tid = Tid, cond: CondId = U32, mutex: MutexId = U32 }
    /// A signal; `woken` is the deterministically-earliest waiter, if any.
    CondSignal "cond_signal" { tid: Tid = Tid, cond: CondId = U32, woken: Option<Tid> = OptTid }
    /// A broadcast waking `woken` waiters.
    CondBroadcast "cond_broadcast" { tid: Tid = Tid, cond: CondId = U32, woken: u32 = U32 }
    /// Arrival at a barrier generation.
    BarrierArrive "barrier_arrive" { tid: Tid = Tid, barrier: BarrierId = U32, gen: u64 = U64 }
    /// A barrier generation opened (commits installed); emitted by the
    /// last arriver while it still holds the token (§4.2 two-phase
    /// commit), `install_version` being the version every leaver updates
    /// to.
    BarrierOpen "barrier_open" {
        tid: Tid = Tid, barrier: BarrierId = U32, gen: u64 = U64, install_version: u64 = Version
    }
    /// A read-write lock acquisition (`writer` distinguishes the mode).
    RwAcquire "rw_acquire" { tid: Tid = Tid, lock: RwLockId = U32, writer: bool = Flag }
    /// A read-write lock release.
    RwRelease "rw_release" { tid: Tid = Tid, lock: RwLockId = U32, writer: bool = Flag }
    /// A Conversion commit: `version` is the created (or, with no dirty
    /// pages, the pre-existing) version id; `page_set` digests the dirty
    /// page ids. Each parallel-barrier participant emits its own as an
    /// auxiliary event after its phase-2 merge: `pages` and `merged` are
    /// the pages it merged, which the install credits to it, and `version`
    /// and `page_set` are zero (the install numbers the versions later).
    Commit "commit" {
        tid: Tid = Tid, version: u64 = Version, pages: u32 = U32, merged: u32 = U32, page_set: u64 = U64
    }
    /// An update pulling remote versions into the local workspace. A
    /// barrier leaver's update to the installed version, and a DThreads
    /// update in the parallel phase, are auxiliary.
    Update "update" { tid: Tid = Tid, version: u64 = Version, pages: u64 = U64 }
    /// Thread creation; `pooled` marks §3.3 thread-pool reuse.
    Spawn "spawn" { parent: Tid = Tid, child: Tid = Tid, pooled: bool = Flag }
    /// A join that observed the target's exit.
    Join "join" { tid: Tid = Tid, target: Tid = Tid }
    /// Thread exit at the given logical clock.
    Exit "exit" { tid: Tid = Tid, clock: u64 = Clock }
    /// A contained workload panic: the thread died at the given logical
    /// clock, after deterministically poisoning its held locks and
    /// departing the order. A schedule event — the death is part of the
    /// deterministic total order and must reproduce across reruns.
    ThreadPanic "thread_panic" { tid: Tid = Tid, clock: u64 = Clock }
    /// A logical-clock publication (counter overflow, §3.2). Auxiliary:
    /// its real-time interleaving is not part of the determinism contract
    /// under adaptive notification.
    Publish "publish" { tid: Tid = Tid, clock: u64 = Clock }
    /// A §3.5 fast-forward: the token taker jumped its lagging clock.
    FastForward "fast_forward" { tid: Tid = Tid, from: u64 = Clock, to: u64 = Clock }
    /// A §3.1 coarsening decision: the token was retained across the end
    /// of a synchronization operation, deferring the commit.
    Coarsen "coarsen" { tid: Tid = Tid, clock: u64 = Clock }
}

/// Byte a non-root domain's fold starts with ([`Event::fold_domain`]).
const DOMAIN_PREFIX: u8 = 0xD0;
// Outside the tag range, so a domain prefix never aliases an event.
const _: () = assert!(DOMAIN_PREFIX as usize >= EventKind::ALL.len());

impl Event {
    /// The field values in [`EventKind::fields`] order, each as the `u64`
    /// the schedule hash folds; the slots past the last field are zero.
    #[inline]
    pub fn values(&self) -> [u64; MAX_FIELDS] {
        let (mut out, mut i) = ([0; MAX_FIELDS], 0);
        self.for_each_value(|_, v| {
            out[i] = v;
            i += 1;
        });
        out
    }

    /// The emitting thread: every kind's first field.
    pub fn tid(&self) -> Tid {
        Tid::from_value(self.values()[0])
    }

    /// Folds this event into an FNV-1a state with a stable encoding:
    /// the kind tag, then each of [`values`](Event::values) as a
    /// little-endian `u64`.
    pub fn fold(&self, h: &mut Fnv1a) {
        h.update(&[self.kind() as u8]);
        self.for_each_value(|_, v| h.update_u64(v));
    }

    /// Folds this event as a member of `domain`.
    ///
    /// [`DomainId::ROOT`] folds nothing extra — byte-for-byte the legacy
    /// encoding, keeping unsharded schedule hashes (and every trace
    /// recorded before domains existed) stable. Any other domain prefixes
    /// a tag byte plus the domain id, so the same event sequence hashed
    /// under two different domains can never collide.
    pub fn fold_domain(&self, domain: DomainId, h: &mut Fnv1a) {
        if domain != DomainId::ROOT {
            h.update(&[DOMAIN_PREFIX]);
            h.update_u64(domain.0 as u64);
        }
        self.fold(h);
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::TokenAcquire { tid, clock } => write!(f, "{tid} acquires token @clock {clock}"),
            Event::TokenRelease { tid, clock } => write!(f, "{tid} releases token @clock {clock}"),
            Event::Depart { tid, clock } => write!(f, "{tid} departs the order @clock {clock}"),
            Event::MutexLock { tid, mutex, ticket } => {
                write!(f, "{tid} locks {mutex} (ticket {ticket})")
            }
            Event::MutexBlock { tid, mutex } => write!(f, "{tid} blocks on {mutex}"),
            Event::MutexUnlock {
                tid,
                mutex,
                woke: Some(w),
            } => write!(f, "{tid} unlocks {mutex}, waking {w}"),
            Event::MutexUnlock { tid, mutex, .. } => write!(f, "{tid} unlocks {mutex}"),
            Event::CondWait { tid, cond, mutex } => {
                write!(f, "{tid} waits on {cond} (releasing {mutex})")
            }
            Event::CondSignal {
                tid,
                cond,
                woken: Some(w),
            } => write!(f, "{tid} signals {cond}, waking {w}"),
            Event::CondSignal { tid, cond, .. } => write!(f, "{tid} signals {cond} (no waiter)"),
            Event::CondBroadcast { tid, cond, woken } => {
                write!(f, "{tid} broadcasts {cond}, waking {woken}")
            }
            Event::BarrierArrive { tid, barrier, gen } => {
                write!(f, "{tid} arrives at {barrier} gen {gen}")
            }
            Event::BarrierOpen {
                tid,
                barrier,
                gen,
                install_version,
            } => write!(
                f,
                "{tid} opens {barrier} gen {gen} (installed version {install_version})"
            ),
            Event::RwAcquire { tid, lock, writer } => {
                write!(f, "{tid} {}-locks {lock}", if writer { "write" } else { "read" })
            }
            Event::RwRelease { tid, lock, writer } => {
                write!(f, "{tid} {}-unlocks {lock}", if writer { "write" } else { "read" })
            }
            Event::Commit {
                tid,
                version,
                pages,
                merged,
                page_set,
            } => write!(
                f,
                "{tid} commits version {version} ({pages} pages, {merged} merged, set {page_set:#018x})"
            ),
            Event::Update {
                tid,
                version,
                pages,
            } => write!(f, "{tid} updates to version {version} ({pages} pages)"),
            Event::Spawn {
                parent,
                child,
                pooled,
            } => write!(
                f,
                "{parent} spawns {child}{}",
                if pooled { " (pooled)" } else { "" }
            ),
            Event::Join { tid, target } => write!(f, "{tid} joins {target}"),
            Event::Exit { tid, clock } => write!(f, "{tid} exits @clock {clock}"),
            Event::ThreadPanic { tid, clock } => {
                write!(f, "{tid} panics (contained) @clock {clock}")
            }
            Event::Publish { tid, clock } => write!(f, "{tid} publishes clock {clock}"),
            Event::FastForward { tid, from, to } => {
                write!(f, "{tid} fast-forwards clock {from} -> {to}")
            }
            Event::Coarsen { tid, clock } => {
                write!(f, "{tid} retains token (coarsened) @clock {clock}")
            }
        }
    }
}

/// Per-category event counts, reported next to the Figure-15 breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts([u64; EventKind::ALL.len()]);

impl EventCounts {
    /// Count of one category.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.0[kind as usize]
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, kind: EventKind) {
        self.0[kind as usize] += 1;
    }

    /// Total events across all categories.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates `(kind, count)` over categories with non-zero counts.
    pub fn nonzero(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL
            .iter()
            .map(|k| (*k, self.get(*k)))
            .filter(|(_, c)| *c > 0)
    }
}

impl std::ops::AddAssign for EventCounts {
    fn add_assign(&mut self, o: EventCounts) {
        self.0.iter_mut().zip(o.0).for_each(|(a, b)| *a += b);
    }
}

/// Destination for runtime trace events.
///
/// `emit` is called from every thread of a run, frequently under the
/// runtime's global lock; implementations must be cheap and `Sync`.
/// `in_schedule` is true when the event occupies a slot in the
/// deterministic total order (see the module docs) — only those events
/// may enter the schedule hash; the others are counted by the ledger,
/// never hashed. `domain` is the emitting token domain; unsharded
/// runtimes always pass [`DomainId::ROOT`], sharded runs may interleave
/// several domains into one sink (hashing sinks must fold via
/// [`Event::fold_domain`] so per-domain orders stay distinguishable).
///
/// A token holder hands its events over in batches ([`emit_all`]): the
/// events of one tenure, from its grant to its release, or
/// [`HOLD_LIMIT`] of them. A sink sees every event of a thread in the
/// order the thread emitted it, and the schedule events of a domain in
/// token order; only the interleaving of auxiliary events with other
/// threads' events is coarser.
///
/// [`emit_all`]: TraceSink::emit_all
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId);

    /// Records `evs` in order, each with its `in_schedule` flag, as
    /// [`emit`](TraceSink::emit) would one by one. A sink that locks
    /// overrides it to take its lock once.
    fn emit_all(&self, evs: &[(Event, bool)], domain: DomainId) {
        for (ev, in_schedule) in evs {
            self.emit(ev, *in_schedule, domain);
        }
    }

    /// The schedule hash accumulated so far (0 for sinks that don't hash).
    fn schedule_hash(&self) -> u64 {
        0
    }

    /// A fault that degraded (but did not abort) the sink mid-run — e.g.
    /// a disk-recording sink whose medium failed, leaving the run itself
    /// healthy but its recording truncated. The runtime folds this into
    /// `RunReport::fault` so a degraded recording is visible at the point
    /// of failure, not first at `finish()`. `None` for healthy sinks.
    fn fault(&self) -> Option<String> {
        None
    }
}

/// Folds every schedule event into an incremental FNV-1a **schedule
/// hash** as it is emitted ([`Event::fold_domain`]). Two runs of a
/// deterministic runtime on the same program must produce identical
/// hashes; the hash is O(1) memory regardless of run length.
#[derive(Default)]
pub struct HashSink {
    hash: Mutex<Fnv1a>,
}

impl HashSink {
    /// Creates an empty hashing sink.
    pub fn new() -> HashSink {
        HashSink::default()
    }
}

impl TraceSink for HashSink {
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
        if in_schedule {
            self.emit_all(&[(*ev, true)], domain);
        }
    }

    fn emit_all(&self, evs: &[(Event, bool)], domain: DomainId) {
        let mut h = self.hash.lock();
        for (ev, _) in evs.iter().filter(|(_, s)| *s) {
            ev.fold_domain(domain, &mut h);
        }
    }

    fn schedule_hash(&self) -> u64 {
        self.hash.lock().digest()
    }
}

struct MemoryState {
    events: VecDeque<(DomainId, Event)>,
    dropped: u64,
    hash: Fnv1a,
}

/// Retains the most recent schedule events in a bounded ring buffer (for
/// [`diagnose`]) while also maintaining the schedule hash. Auxiliary
/// events are counted by the ledger, never hashed, and not retained:
/// retaining them would make recorded traces incomparable across runs.
pub struct MemorySink {
    st: Mutex<MemoryState>,
    cap: usize,
}

impl MemorySink {
    /// Creates a sink retaining at most `cap` events (oldest dropped).
    pub fn new(cap: usize) -> MemorySink {
        MemorySink {
            st: Mutex::new(MemoryState {
                events: VecDeque::new(),
                dropped: 0,
                hash: Fnv1a::new(),
            }),
            cap: cap.max(1),
        }
    }

    /// Takes the recorded schedule events, oldest first, clearing the
    /// buffer. The second value is how many older events were dropped by
    /// the ring bound (0 means the trace is complete).
    pub fn take(&self) -> (Vec<Event>, u64) {
        let (evs, dropped) = self.take_domains();
        (evs.into_iter().map(|(_, ev)| ev).collect(), dropped)
    }

    /// Like [`take`](MemorySink::take), but keeps each event paired with
    /// its emitting token domain, for a sink that absorbed a multi-domain
    /// (sharded) schedule.
    pub fn take_domains(&self) -> (Vec<(DomainId, Event)>, u64) {
        let mut st = self.st.lock();
        let dropped = st.dropped;
        st.dropped = 0;
        (st.events.drain(..).collect(), dropped)
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
        if in_schedule {
            self.emit_all(&[(*ev, true)], domain);
        }
    }

    fn emit_all(&self, evs: &[(Event, bool)], domain: DomainId) {
        let mut st = self.st.lock();
        for (ev, _) in evs.iter().filter(|(_, s)| *s) {
            ev.fold_domain(domain, &mut st.hash);
            if st.events.len() == self.cap {
                st.events.pop_front();
                st.dropped += 1;
            }
            st.events.push_back((domain, *ev));
        }
    }

    fn schedule_hash(&self) -> u64 {
        self.st.lock().hash.digest()
    }
}

/// A cloneable, optionally-absent sink reference carried in
/// [`crate::CommonConfig`]. The default is off; every emission site then
/// costs one branch.
///
/// A handle is bound to one token domain ([`DomainId::ROOT`] unless built
/// with [`TraceHandle::to_domain`]) and stamps it on every emission, so
/// runtimes never thread domain ids through their emission sites — the
/// `dmt-shard` subsystem simply hands each domain's runtime a handle bound
/// to that domain.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
    domain: DomainId,
}

impl TraceHandle {
    /// Tracing disabled (the default).
    pub fn off() -> TraceHandle {
        TraceHandle {
            sink: None,
            domain: DomainId::ROOT,
        }
    }

    /// Tracing into `sink`, in the root (unsharded) domain.
    pub fn to(sink: Arc<dyn TraceSink>) -> TraceHandle {
        TraceHandle::to_domain(sink, DomainId::ROOT)
    }

    /// Tracing into `sink`, stamping every emission with `domain`.
    pub fn to_domain(sink: Arc<dyn TraceSink>, domain: DomainId) -> TraceHandle {
        TraceHandle {
            sink: Some(sink),
            domain,
        }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The token domain this handle stamps on emissions.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// The way one thread's ledger sends to the sink, if one is attached.
    pub(crate) fn outbox(&self) -> Option<Box<Outbox>> {
        self.sink.as_ref().map(|sink| {
            Box::new(Outbox {
                sink: Arc::clone(sink),
                domain: self.domain,
                held: Vec::new(),
                holding: false,
            })
        })
    }

    /// The sink's schedule hash (0 when off or non-hashing).
    pub fn schedule_hash(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.schedule_hash())
    }

    /// The sink's degraded-recording fault, if it hit one (`None` when
    /// off or healthy).
    pub fn fault(&self) -> Option<String> {
        self.sink.as_ref().and_then(|s| s.fault())
    }
}

/// The most events a token holder holds before it hands them to the sink:
/// one `.dmtrace` page. A coarsened tenure can be long.
pub const HOLD_LIMIT: usize = 512;

/// One thread's way to the sink: the handle's sink and domain, and the
/// events the thread holds while it [holds](Outbox::hold) the token.
pub(crate) struct Outbox {
    sink: Arc<dyn TraceSink>,
    domain: DomainId,
    held: Vec<(Event, bool)>,
    holding: bool,
}

impl Outbox {
    /// Sends `ev` to the sink, or holds it while the thread holds the
    /// token, handing over every [`HOLD_LIMIT`] held events.
    #[inline]
    pub(crate) fn emit(&mut self, ev: Event, in_schedule: bool) {
        if !self.holding {
            return self.sink.emit(&ev, in_schedule, self.domain);
        }
        self.held.push((ev, in_schedule));
        if self.held.len() == HOLD_LIMIT {
            self.hand_over();
        }
    }

    /// Holds the events emitted from here until [`Outbox::deliver`].
    pub(crate) fn hold(&mut self) {
        self.holding = true;
    }

    /// Hands the held events to the sink in one call and stops holding.
    pub(crate) fn deliver(&mut self) {
        self.holding = false;
        self.hand_over();
    }

    /// Hands the held events to the sink in one call. They count as
    /// handed over even when the sink unwinds, so a containment path that
    /// delivers again sends nothing twice.
    fn hand_over(&mut self) {
        if self.held.is_empty() {
            return;
        }
        let held = std::mem::take(&mut self.held);
        self.sink.emit_all(&held, self.domain);
        self.held = held;
        self.held.clear();
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.sink.is_some() {
            "TraceHandle(on)"
        } else {
            "TraceHandle(off)"
        })
    }
}

/// Where two recorded schedules split, with surrounding context.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the first differing event (== common prefix length).
    pub index: usize,
    /// The event at `index` in the left trace, if it has one.
    pub left: Option<Event>,
    /// The event at `index` in the right trace, if it has one.
    pub right: Option<Event>,
    /// Up to the last 5 common-prefix events, as `(index, event)`.
    pub context: Vec<(usize, Event)>,
    /// The token domain the divergence happened in. [`DomainId::ROOT`]
    /// for unsharded schedules; for sharded schedules the domain of the
    /// first differing event — i.e. *which shard* split first.
    pub domain: DomainId,
}

/// Compares two recorded schedules and reports the first divergence, or
/// `None` when they are identical. This is the answer to "the hashes
/// differ — *where* did the runs split?": the report names the event, its
/// thread, logical clock and object id, plus the agreed-upon events just
/// before the split.
pub fn diagnose(left: &[Event], right: &[Event]) -> Option<Divergence> {
    let common = left
        .iter()
        .zip(right.iter())
        .take_while(|(a, b)| a == b)
        .count();
    if common == left.len() && common == right.len() {
        return None;
    }
    let ctx_from = common.saturating_sub(5);
    Some(Divergence {
        index: common,
        left: left.get(common).copied(),
        right: right.get(common).copied(),
        context: (ctx_from..common).map(|i| (i, left[i])).collect(),
        domain: DomainId::ROOT,
    })
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.domain == DomainId::ROOT {
            writeln!(f, "schedules diverge at event #{}", self.index)?;
        } else {
            writeln!(
                f,
                "schedules diverge at event #{} in domain {}",
                self.index, self.domain
            )?;
        }
        for (i, ev) in &self.context {
            writeln!(f, "  #{i} (both): {ev}")?;
        }
        match self.left {
            Some(ev) => writeln!(f, "  #{} left:  {ev}", self.index)?,
            None => writeln!(f, "  #{} left:  <trace ends>", self.index)?,
        }
        match self.right {
            Some(ev) => write!(f, "  #{} right: {ev}", self.index),
            None => write!(f, "  #{} right: <trace ends>", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u32, clock: u64) -> Event {
        Event::TokenAcquire {
            tid: Tid(tid),
            clock,
        }
    }

    #[test]
    fn hash_sink_is_order_sensitive() {
        let a = HashSink::new();
        a.emit(&ev(0, 1), true, DomainId::ROOT);
        a.emit(&ev(1, 2), true, DomainId::ROOT);
        let b = HashSink::new();
        b.emit(&ev(1, 2), true, DomainId::ROOT);
        b.emit(&ev(0, 1), true, DomainId::ROOT);
        assert_ne!(a.schedule_hash(), b.schedule_hash());
    }

    #[test]
    fn aux_events_are_counted_but_not_hashed() {
        let a = HashSink::new();
        a.emit(&ev(0, 1), true, DomainId::ROOT);
        let b = Arc::new(HashSink::new());
        let cfg = crate::CommonConfig {
            trace: TraceHandle::to(b.clone()),
            ..crate::CommonConfig::default()
        };
        let mut led = crate::Ledger::new(&cfg, Tid(3), 0);
        led.emit(ev(0, 1));
        led.emit_as(
            Event::Publish {
                tid: Tid(3),
                clock: 99,
            },
            false,
        );
        let mut closed = crate::Closed::default();
        closed.file(&led);
        let r = crate::RunReport::new(&cfg, std::time::Instant::now(), closed, 1);
        assert_eq!(a.schedule_hash(), b.schedule_hash());
        assert_eq!(r.schedule_hash, b.schedule_hash());
        assert_eq!(r.events.get(EventKind::Publish), 1);
        assert_eq!(r.events.total(), 2);
    }

    #[test]
    fn memory_sink_ring_drops_oldest() {
        let s = MemorySink::new(2);
        for i in 0..5 {
            s.emit(&ev(0, i), true, DomainId::ROOT);
        }
        let (evs, dropped) = s.take();
        assert_eq!(dropped, 3);
        assert_eq!(evs, vec![ev(0, 3), ev(0, 4)]);
    }

    #[test]
    fn root_domain_folds_exactly_like_fold() {
        let mut plain = Fnv1a::new();
        ev(2, 7).fold(&mut plain);
        let mut rooted = Fnv1a::new();
        ev(2, 7).fold_domain(DomainId::ROOT, &mut rooted);
        assert_eq!(plain.digest(), rooted.digest());
    }

    #[test]
    fn domains_distinguish_identical_event_streams() {
        let a = HashSink::new();
        a.emit(&ev(0, 1), true, DomainId(1));
        let b = HashSink::new();
        b.emit(&ev(0, 1), true, DomainId(2));
        let root = HashSink::new();
        root.emit(&ev(0, 1), true, DomainId::ROOT);
        assert_ne!(a.schedule_hash(), b.schedule_hash());
        assert_ne!(a.schedule_hash(), root.schedule_hash());
    }

    #[test]
    fn trace_handle_stamps_its_domain() {
        let sink = Arc::new(MemorySink::new(8));
        let h = TraceHandle::to_domain(sink.clone(), DomainId(3));
        assert_eq!(h.domain(), DomainId(3));
        let cfg = crate::CommonConfig {
            trace: h,
            ..crate::CommonConfig::default()
        };
        crate::Ledger::new(&cfg, Tid(0), 0).emit(ev(0, 1));
        let (evs, dropped) = sink.take_domains();
        assert_eq!(dropped, 0);
        assert_eq!(evs, vec![(DomainId(3), ev(0, 1))]);
    }

    #[test]
    fn diagnose_reports_first_difference_with_context() {
        let left: Vec<Event> = (0..10).map(|i| ev(0, i)).collect();
        let mut right = left.clone();
        right[7] = ev(1, 7);
        let d = diagnose(&left, &right).expect("must diverge");
        assert_eq!(d.index, 7);
        assert_eq!(d.left, Some(ev(0, 7)));
        assert_eq!(d.right, Some(ev(1, 7)));
        assert_eq!(d.context.len(), 5);
        assert_eq!(d.context[0], (2, ev(0, 2)));
        let report = d.to_string();
        assert!(report.contains("diverge at event #7"), "{report}");
    }

    #[test]
    fn diagnose_handles_prefix_traces() {
        let left: Vec<Event> = (0..3).map(|i| ev(0, i)).collect();
        let right: Vec<Event> = (0..5).map(|i| ev(0, i)).collect();
        let d = diagnose(&left, &right).expect("length mismatch diverges");
        assert_eq!(d.index, 3);
        assert!(d.left.is_none());
        assert_eq!(d.right, Some(ev(0, 3)));
        assert!(diagnose(&left, &left).is_none());
    }

    #[test]
    fn values_round_trip_and_are_what_fold_writes() {
        for kind in EventKind::ALL {
            let n = kind.fields().len();
            let mut v = [0; MAX_FIELDS];
            v[..n].copy_from_slice(&[7, 1, 0, 1, 1][..n]);
            let ev = Event::from_values(kind, v);
            assert_eq!((ev.kind(), ev.values(), ev.tid()), (kind, v, Tid(7)));
            let mut want = Fnv1a::new();
            want.update(&[kind as u8]);
            v[..n].iter().for_each(|&x| want.update_u64(x));
            let mut got = Fnv1a::new();
            ev.fold(&mut got);
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn fold_distinguishes_kinds_with_equal_fields() {
        let digests: std::collections::HashSet<u64> = EventKind::ALL
            .iter()
            .map(|&kind| {
                let mut h = Fnv1a::new();
                Event::from_values(kind, [1, 5, 0, 0, 0]).fold(&mut h);
                h.digest()
            })
            .collect();
        assert_eq!(digests.len(), EventKind::ALL.len());
    }
}
