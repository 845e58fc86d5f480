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
//!   (incremental FNV-1a **schedule hash** plus per-category counts),
//!   [`MemorySink`] (bounded ring buffer retaining the most recent events
//!   for diagnosis). The default is no sink at all ([`TraceHandle::off`]),
//!   a single branch per event;
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
//! emitted as auxiliary: counted, but never hashed. The nondeterministic
//! pthreads baseline emits everything as schedule events; its hash varying
//! across runs is the negative control.
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

/// One synchronization event in a runtime's deterministic total order.
///
/// Fields are the *deterministic* coordinates of the event: thread ids,
/// logical clocks, object ids, ticket numbers, version ids and dirty-page
/// digests. Virtual times and wall times are deliberately absent — they
/// carry no additional schedule information and (for wall time) would
/// destroy hash stability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A thread acquired the global token (GMIC grant or round-robin
    /// turn) at the given logical clock.
    TokenAcquire { tid: Tid, clock: u64 },
    /// The token holder released the token.
    TokenRelease { tid: Tid, clock: u64 },
    /// A thread left the deterministic order to block (`clockDepart`).
    Depart { tid: Tid, clock: u64 },
    /// A deterministic mutex acquisition; `ticket` is the per-lock
    /// acquisition ordinal.
    MutexLock {
        tid: Tid,
        mutex: MutexId,
        ticket: u64,
    },
    /// A thread queued on a held mutex.
    MutexBlock { tid: Tid, mutex: MutexId },
    /// A mutex release; `woke` is the waiter handed the lock, if any.
    MutexUnlock {
        tid: Tid,
        mutex: MutexId,
        woke: Option<Tid>,
    },
    /// A condition wait (mutex released, thread departed).
    CondWait {
        tid: Tid,
        cond: CondId,
        mutex: MutexId,
    },
    /// A signal; `woken` is the deterministically-earliest waiter, if any.
    CondSignal {
        tid: Tid,
        cond: CondId,
        woken: Option<Tid>,
    },
    /// A broadcast waking `woken` waiters.
    CondBroadcast { tid: Tid, cond: CondId, woken: u32 },
    /// Arrival at a barrier generation.
    BarrierArrive {
        tid: Tid,
        barrier: BarrierId,
        gen: u64,
    },
    /// A barrier generation opened (commits installed); emitted by the
    /// last arriver while it still holds the token (§4.2 two-phase
    /// commit), `install_version` being the version every leaver updates
    /// to.
    BarrierOpen {
        tid: Tid,
        barrier: BarrierId,
        gen: u64,
        install_version: u64,
    },
    /// A read-write lock acquisition (`writer` distinguishes the mode).
    RwAcquire {
        tid: Tid,
        lock: RwLockId,
        writer: bool,
    },
    /// A read-write lock release.
    RwRelease {
        tid: Tid,
        lock: RwLockId,
        writer: bool,
    },
    /// A Conversion commit: `version` is the created (or, with no dirty
    /// pages, the pre-existing) version id; `page_set` digests the dirty
    /// page ids. The parallel barrier's installer emits one per installed
    /// version as an auxiliary event, `merged` and `page_set` zero.
    Commit {
        tid: Tid,
        version: u64,
        pages: u32,
        merged: u32,
        page_set: u64,
    },
    /// An update pulling remote versions into the local workspace.
    Update { tid: Tid, version: u64, pages: u64 },
    /// Thread creation; `pooled` marks §3.3 thread-pool reuse.
    Spawn {
        parent: Tid,
        child: Tid,
        pooled: bool,
    },
    /// A join that observed the target's exit.
    Join { tid: Tid, target: Tid },
    /// Thread exit at the given logical clock.
    Exit { tid: Tid, clock: u64 },
    /// A contained workload panic: the thread died at the given logical
    /// clock, after deterministically poisoning its held locks and
    /// departing the order. A schedule event — the death is part of the
    /// deterministic total order and must reproduce across reruns.
    ThreadPanic { tid: Tid, clock: u64 },
    /// A logical-clock publication (counter overflow, §3.2). Auxiliary:
    /// its real-time interleaving is not part of the determinism contract
    /// under adaptive notification.
    Publish { tid: Tid, clock: u64 },
    /// A §3.5 fast-forward: the token taker jumped its lagging clock.
    FastForward { tid: Tid, from: u64, to: u64 },
    /// A §3.1 coarsening decision: the token was retained across the end
    /// of a synchronization operation, deferring the commit.
    Coarsen { tid: Tid, clock: u64 },
}

/// Event categories, for counting and display.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    TokenAcquire,
    TokenRelease,
    Depart,
    MutexLock,
    MutexBlock,
    MutexUnlock,
    CondWait,
    CondSignal,
    CondBroadcast,
    BarrierArrive,
    BarrierOpen,
    RwAcquire,
    RwRelease,
    Commit,
    Update,
    Spawn,
    Join,
    Exit,
    ThreadPanic,
    Publish,
    FastForward,
    Coarsen,
}

impl EventKind {
    /// Every kind, in tag order.
    pub const ALL: [EventKind; 22] = [
        EventKind::TokenAcquire,
        EventKind::TokenRelease,
        EventKind::Depart,
        EventKind::MutexLock,
        EventKind::MutexBlock,
        EventKind::MutexUnlock,
        EventKind::CondWait,
        EventKind::CondSignal,
        EventKind::CondBroadcast,
        EventKind::BarrierArrive,
        EventKind::BarrierOpen,
        EventKind::RwAcquire,
        EventKind::RwRelease,
        EventKind::Commit,
        EventKind::Update,
        EventKind::Spawn,
        EventKind::Join,
        EventKind::Exit,
        EventKind::ThreadPanic,
        EventKind::Publish,
        EventKind::FastForward,
        EventKind::Coarsen,
    ];

    /// Short stable name (used in reports and experiment logs).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TokenAcquire => "token_acquire",
            EventKind::TokenRelease => "token_release",
            EventKind::Depart => "depart",
            EventKind::MutexLock => "mutex_lock",
            EventKind::MutexBlock => "mutex_block",
            EventKind::MutexUnlock => "mutex_unlock",
            EventKind::CondWait => "cond_wait",
            EventKind::CondSignal => "cond_signal",
            EventKind::CondBroadcast => "cond_broadcast",
            EventKind::BarrierArrive => "barrier_arrive",
            EventKind::BarrierOpen => "barrier_open",
            EventKind::RwAcquire => "rw_acquire",
            EventKind::RwRelease => "rw_release",
            EventKind::Commit => "commit",
            EventKind::Update => "update",
            EventKind::Spawn => "spawn",
            EventKind::Join => "join",
            EventKind::Exit => "exit",
            EventKind::ThreadPanic => "thread_panic",
            EventKind::Publish => "publish",
            EventKind::FastForward => "fast_forward",
            EventKind::Coarsen => "coarsen",
        }
    }
}

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

/// Derives [`EventKind::fields`], [`Event::for_each_value`] and
/// [`Event::from_values`] from one field list per kind. The fold and the
/// encoder visit the fields rather than read [`Event::values`]: inlined,
/// the visit is straight-line code per kind, with no array to spill.
macro_rules! layouts {
    ($($kind:ident { $($field:ident: $class:ident),+ })+) => {
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

layouts! {
    TokenAcquire { tid: Tid, clock: Clock }
    TokenRelease { tid: Tid, clock: Clock }
    Depart { tid: Tid, clock: Clock }
    MutexLock { tid: Tid, mutex: U32, ticket: U64 }
    MutexBlock { tid: Tid, mutex: U32 }
    MutexUnlock { tid: Tid, mutex: U32, woke: OptTid }
    CondWait { tid: Tid, cond: U32, mutex: U32 }
    CondSignal { tid: Tid, cond: U32, woken: OptTid }
    CondBroadcast { tid: Tid, cond: U32, woken: U32 }
    BarrierArrive { tid: Tid, barrier: U32, gen: U64 }
    BarrierOpen { tid: Tid, barrier: U32, gen: U64, install_version: Version }
    RwAcquire { tid: Tid, lock: U32, writer: Flag }
    RwRelease { tid: Tid, lock: U32, writer: Flag }
    Commit { tid: Tid, version: Version, pages: U32, merged: U32, page_set: U64 }
    Update { tid: Tid, version: Version, pages: U64 }
    Spawn { parent: Tid, child: Tid, pooled: Flag }
    Join { tid: Tid, target: Tid }
    Exit { tid: Tid, clock: Clock }
    ThreadPanic { tid: Tid, clock: Clock }
    Publish { tid: Tid, clock: Clock }
    FastForward { tid: Tid, from: Clock, to: Clock }
    Coarsen { tid: Tid, clock: Clock }
}

/// Byte a non-root domain's fold starts with ([`Event::fold_domain`]).
const DOMAIN_PREFIX: u8 = 0xD0;
// Outside the tag range, so a domain prefix never aliases an event.
const _: () = assert!(DOMAIN_PREFIX as usize >= EventKind::ALL.len());

impl Event {
    /// The category of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::TokenAcquire { .. } => EventKind::TokenAcquire,
            Event::TokenRelease { .. } => EventKind::TokenRelease,
            Event::Depart { .. } => EventKind::Depart,
            Event::MutexLock { .. } => EventKind::MutexLock,
            Event::MutexBlock { .. } => EventKind::MutexBlock,
            Event::MutexUnlock { .. } => EventKind::MutexUnlock,
            Event::CondWait { .. } => EventKind::CondWait,
            Event::CondSignal { .. } => EventKind::CondSignal,
            Event::CondBroadcast { .. } => EventKind::CondBroadcast,
            Event::BarrierArrive { .. } => EventKind::BarrierArrive,
            Event::BarrierOpen { .. } => EventKind::BarrierOpen,
            Event::RwAcquire { .. } => EventKind::RwAcquire,
            Event::RwRelease { .. } => EventKind::RwRelease,
            Event::Commit { .. } => EventKind::Commit,
            Event::Update { .. } => EventKind::Update,
            Event::Spawn { .. } => EventKind::Spawn,
            Event::Join { .. } => EventKind::Join,
            Event::Exit { .. } => EventKind::Exit,
            Event::ThreadPanic { .. } => EventKind::ThreadPanic,
            Event::Publish { .. } => EventKind::Publish,
            Event::FastForward { .. } => EventKind::FastForward,
            Event::Coarsen { .. } => EventKind::Coarsen,
        }
    }

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

/// Destination for runtime trace events.
///
/// `emit` is called from every thread of a run, frequently under the
/// runtime's global lock; implementations must be cheap and `Sync`.
/// `in_schedule` is true when the event occupies a slot in the
/// deterministic total order (see the module docs) — only those events
/// may enter the schedule hash. `domain` is the emitting token domain;
/// unsharded runtimes always pass [`DomainId::ROOT`], sharded runs may
/// interleave several domains into one sink (hashing sinks must fold via
/// [`Event::fold_domain`] so per-domain orders stay distinguishable).
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId);

    /// The schedule hash accumulated so far (0 for sinks that don't hash).
    fn schedule_hash(&self) -> u64 {
        0
    }

    /// Per-category counts accumulated so far.
    fn counts(&self) -> EventCounts {
        EventCounts::default()
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

/// What a hashing sink keeps: the schedule hash of the in-schedule events
/// ([`Event::fold_domain`]) and the per-category counts of all of them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    hash: Fnv1a,
    counts: EventCounts,
}

impl Tally {
    /// Counts `ev`, and folds it into the hash if it is in the schedule.
    #[inline]
    pub fn record(&mut self, ev: &Event, in_schedule: bool, domain: DomainId) {
        if in_schedule {
            ev.fold_domain(domain, &mut self.hash);
        }
        self.counts.record(ev.kind());
    }

    /// The schedule hash so far.
    pub fn hash(&self) -> u64 {
        self.hash.digest()
    }

    /// The counts so far.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }
}

/// Folds every schedule event into an incremental FNV-1a **schedule
/// hash** as it is emitted, and counts all events per category. Two runs
/// of a deterministic runtime on the same program must produce identical
/// hashes; the hash is O(1) memory regardless of run length.
#[derive(Default)]
pub struct HashSink {
    st: Mutex<Tally>,
}

impl HashSink {
    /// Creates an empty hashing sink.
    pub fn new() -> HashSink {
        HashSink::default()
    }
}

impl TraceSink for HashSink {
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
        self.st.lock().record(ev, in_schedule, domain);
    }

    fn schedule_hash(&self) -> u64 {
        self.st.lock().hash()
    }

    fn counts(&self) -> EventCounts {
        self.st.lock().counts()
    }
}

struct MemoryState {
    events: VecDeque<(DomainId, Event)>,
    dropped: u64,
    tally: Tally,
}

/// Retains the most recent schedule events in a bounded ring buffer (for
/// [`diagnose`]) while also maintaining the schedule hash and counts.
/// Auxiliary events are counted but not retained: retaining them would
/// make recorded traces incomparable across runs.
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
                tally: Tally::default(),
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
        let mut st = self.st.lock();
        st.tally.record(ev, in_schedule, domain);
        if in_schedule {
            if st.events.len() == self.cap {
                st.events.pop_front();
                st.dropped += 1;
            }
            st.events.push_back((domain, *ev));
        }
    }

    fn schedule_hash(&self) -> u64 {
        self.st.lock().tally.hash()
    }

    fn counts(&self) -> EventCounts {
        self.st.lock().tally.counts()
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

    /// Emits a schedule event (a slot in the deterministic total order).
    #[inline]
    pub fn emit(&self, ev: Event) {
        if let Some(s) = &self.sink {
            s.emit(&ev, true, self.domain);
        }
    }

    /// Emits an auxiliary event (counted, never hashed).
    #[inline]
    pub fn emit_aux(&self, ev: Event) {
        if let Some(s) = &self.sink {
            s.emit(&ev, false, self.domain);
        }
    }

    /// The sink's schedule hash (0 when off or non-hashing).
    pub fn schedule_hash(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.schedule_hash())
    }

    /// The sink's event counts (zeroes when off).
    pub fn counts(&self) -> EventCounts {
        self.sink
            .as_ref()
            .map_or_else(EventCounts::default, |s| s.counts())
    }

    /// The sink's degraded-recording fault, if it hit one (`None` when
    /// off or healthy).
    pub fn fault(&self) -> Option<String> {
        self.sink.as_ref().and_then(|s| s.fault())
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
        let b = HashSink::new();
        b.emit(&ev(0, 1), true, DomainId::ROOT);
        b.emit(
            &Event::Publish {
                tid: Tid(3),
                clock: 99,
            },
            false,
            DomainId::ROOT,
        );
        assert_eq!(a.schedule_hash(), b.schedule_hash());
        assert_eq!(b.counts().get(EventKind::Publish), 1);
        assert_eq!(b.counts().total(), 2);
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
        h.emit(ev(0, 1));
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
