//! Run reports: virtual-time breakdowns and event counters.
//!
//! [`Breakdown`] and [`Counters`] are declared by one `metrics!` table:
//! each row states a field's doc, its [`Class`] and its name once, and
//! the struct, its `AddAssign`, its [`FIELDS`](Counters::FIELDS) listing
//! and its `values()` derive from that row ([`Row`] too, for
//! [`Breakdown`]). [`Counters::count`] beside the table defines each
//! event-backed [`Counters`] row as a fold of the run's [`Event`] stream,
//! and a thread's [`Ledger`] keeps both for it: it sums the event values
//! a row reads as each event passes, counts each kind once, and sets the
//! rows that count a kind from those counts when it closes.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

use crate::ids::Tid;
use crate::pad::CachePadded;
use crate::perturb::{PerturbHandle, PerturbSite};
use crate::runtime::CommonConfig;
use crate::trace::{Event, EventCounts, EventKind, Outbox};

/// Whether a metric reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A function of the program and its options under a deterministic
    /// runtime: equal across runs, so a test may pin it.
    Det,
    /// Moves with physical timing from run to run; for diagnosis only.
    Racy,
}

/// Declares a struct of summed `u64` metrics, one row per field, with
/// `AddAssign`, `FIELDS` (each name and class, in order) and `values()`;
/// and, when a `pub enum` follows it, that enum of its rows with
/// `row_mut`.
macro_rules! metrics {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $class:ident $field:ident,)+
    }
    $(#[$rmeta:meta])* pub enum $row:ident;) => {
        metrics! {
            $(#[$meta])* pub struct $name {
                $($(#[$fmeta])* $class $field,)+
            }
        }

        $(#[$rmeta])*
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $row {
            $($(#[$fmeta])* $field,)+
        }

        impl $name {
            /// The field `row` names.
            #[inline(always)]
            fn row_mut(&mut self, row: $row) -> &mut u64 {
                match row {
                    $($row::$field => &mut self.$field,)+
                }
            }
        }
    };
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $class:ident $field:ident,)+
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)+
        }

        impl $name {
            /// Each field's name and class, in declaration order.
            pub const FIELDS: &'static [(&'static str, Class)] =
                &[$((stringify!($field), Class::$class)),+];

            /// Each field's value, in the order of `FIELDS`.
            pub fn values(&self) -> [u64; $name::FIELDS.len()] {
                [$(self.$field),+]
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, o: $name) {
                $(self.$field += o.$field;)+
            }
        }
    };
}

metrics! {
    /// Where a thread's virtual cycles went.
    ///
    /// The categories mirror Figure 15 of the paper: chunk execution, waiting
    /// for the deterministic order (`determ_wait`), waiting at barriers
    /// (`barrier_wait`, which the paper separates because it is not caused by
    /// deterministic ordering), Conversion commit and update work, copy-on-write
    /// fault handling, and general library overhead (token bookkeeping, counter
    /// reads, wake-ups).
    ///
    /// The two waits are [`Class::Racy`]: barrier leavers unpin the installed
    /// version outside the token, so which thread pays a `gc_version` charge
    /// varies, and the waits absorb the difference.
    ///
    /// A thread's rows sum to the virtual time it ran: its [`Ledger`] keeps
    /// no other record of that time.
    pub struct Breakdown {
        /// Useful work: `tick` cycles plus shared-memory access cycles.
        Det chunk,
        /// Waiting imposed by the deterministic total order (token / turn).
        Racy determ_wait,
        /// Waiting for other threads to arrive at a barrier.
        Racy barrier_wait,
        /// Committing dirty pages (including merges).
        Det commit,
        /// Applying remote versions to the local workspace.
        Det update,
        /// Copy-on-write page faults.
        Det fault,
        /// Library overhead: token ops, counter reads, publications, wake-ups.
        Det lib,
    }

    /// A row of [`Breakdown`]: what a [`Ledger`] charges.
    pub enum Row;
}

impl Breakdown {
    /// Total virtual cycles across all categories.
    pub fn total(&self) -> u64 {
        self.values().iter().sum()
    }

    /// Non-`chunk` cycles: everything determinism added on top of the work.
    pub fn overhead(&self) -> u64 {
        self.total() - self.chunk
    }
}

metrics! {
    /// Event counters accumulated across all threads of a run.
    ///
    /// A [`Class::Det`] counter is equal across runs of one program under
    /// one deterministic runtime configuration (Consequence-IC with a fixed
    /// publication interval, -RR, DWC, DThreads), and
    /// `determinism_matrix::deterministic_metrics_reproduce` holds it to
    /// that. A [`Class::Racy`] one counts physical events (sleeps, wakes,
    /// timer-driven publications, recycled pages) and moves from run to
    /// run.
    ///
    /// Every `Det` row but `faults` and the three inert ones is a fold of
    /// the run's [`Event`] stream, defined once by [`Counters::count`]:
    /// each row's doc names the event it folds. A runtime's per-thread
    /// [`Ledger`] folds every event it emits, tracing on or off: the
    /// values as the event passes, the rows that count a kind from the
    /// ledger's kind counts when it closes. So a sink that folds the stream
    /// it was sent reads those rows exactly (`tests/counter_fold.rs`).
    /// `faults` and the inert rows have no event, and the `Racy` rows are
    /// counted where they happen.
    pub struct Counters {
        /// Commit operations performed: one per [`Event::Commit`].
        Det commits,
        /// Dirty pages published by commits: the `pages` of
        /// [`Event::Commit`].
        Det pages_committed,
        /// Pages that needed a byte-granularity merge at commit: the
        /// `merged` of [`Event::Commit`].
        Det pages_merged,
        /// Pages applied by updates — the paper's "pages propagated under
        /// TSO": the `pages` of [`Event::Update`].
        Det pages_propagated,
        /// Copy-on-write faults taken. No event: counted by the store that
        /// faults.
        Det faults,
        /// Global-token acquisitions (a DThreads serial turn is one): one
        /// per [`Event::TokenAcquire`].
        Det token_acquisitions,
        /// Logical-clock publications (counter overflows / chunk-end reads).
        /// Racy under adaptive overflow notification (§3.2).
        Racy publications,
        /// Deterministic mutex acquisitions, a condition wait's
        /// re-acquisition included: one per [`Event::MutexLock`].
        Det lock_acquires,
        /// Barrier-wait operations: one per [`Event::BarrierArrive`].
        Det barrier_waits,
        /// Condition-variable waits: one per [`Event::CondWait`].
        Det cond_waits,
        /// Threads spawned: one per [`Event::Spawn`].
        Det spawns,
        /// Spawns satisfied from the §3.3 thread pool: one per
        /// [`Event::Spawn`] with `pooled` set.
        Det pool_hits,
        /// Chunks executed (regions between commits): one per
        /// [`Event::Commit`], so always equal to `commits`.
        Det chunks,
        /// Chunks that were coarsened into a preceding chunk (§3.1): one
        /// per [`Event::Coarsen`].
        Det coarsened_chunks,
        /// Versions dropped outright by the version-chain collector.
        Racy gc_versions_dropped,
        /// Version pairs squashed (compacted) by the collector while pinned by
        /// a lagging workspace.
        Racy gc_versions_squashed,
        /// Page allocations served from the freed-page recycle pool instead of
        /// the system allocator.
        Racy page_pool_hits,
        /// Iterations of the token wait loop: one per return from a sleep, for
        /// a yield, a real wake or a stale permit, and none for a grant that
        /// found the token free on arrival. `token_wake_loops /
        /// token_acquisitions` is the wakeups-per-grant fan-out: about 1 at
        /// most, since a hand-off wakes one thread, and a yield that finds
        /// the token still held loops once more (`kv_server` reads 0.79).
        Racy token_wake_loops,
        /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a). No
        /// event.
        #[doc(hidden)]
        Det settle_pages_deferred,
        /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a). No
        /// event.
        #[doc(hidden)]
        Det pretwin_hits,
        /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a). No
        /// event.
        #[doc(hidden)]
        Det pretwin_misses,
        /// Real sleeps: returns from a park of a thread waiting under the
        /// runtime lock, for any reason (token, wake flag, barrier phase, the
        /// end of the run). A wait yields before it parks, so a wait that
        /// ended within its yields counts none. Zero for runtimes without
        /// parking (the baselines).
        Racy parks,
        /// Yields instead of parks: the first untimed sleeps of one wait
        /// give the processor up and return, to the same re-check as a
        /// wake. Zero for runtimes without parking (the baselines).
        Racy yields,
        /// Wakes delivered: one per thread unparked after the runtime lock
        /// is released, a broadcast counting every registered thread. An
        /// unpark of a thread that is not parked (yielding or running) is
        /// one atomic swap, not a system call.
        Racy unparks,
    }
}

impl Counters {
    /// Folds one event into the rows it backs: the one definition of every
    /// event-backed [`Class::Det`] row. Schedule and auxiliary events count
    /// alike; an event kind no row reads changes nothing.
    pub fn count(&mut self, ev: &Event) {
        self.sum_values(ev);
        self.add_kinds(|k| u64::from(k == ev.kind()));
    }

    /// Folds the rows that sum an event's values.
    #[inline]
    fn sum_values(&mut self, ev: &Event) {
        match *ev {
            Event::Commit { pages, merged, .. } => {
                self.pages_committed += u64::from(pages);
                self.pages_merged += u64::from(merged);
            }
            Event::Update { pages, .. } => self.pages_propagated += pages,
            Event::Spawn { pooled, .. } => self.pool_hits += u64::from(pooled),
            _ => {}
        }
    }

    /// Adds to each row that counts one event kind that kind's `n`.
    fn add_kinds(&mut self, n: impl Fn(EventKind) -> u64) {
        self.commits += n(EventKind::Commit);
        self.chunks += n(EventKind::Commit);
        self.token_acquisitions += n(EventKind::TokenAcquire);
        self.lock_acquires += n(EventKind::MutexLock);
        self.barrier_waits += n(EventKind::BarrierArrive);
        self.cond_waits += n(EventKind::CondWait);
        self.spawns += n(EventKind::Spawn);
        self.coarsened_chunks += n(EventKind::Coarsen);
    }
}

/// One thread's virtual time, the [`Breakdown`] it was spent on and the
/// thread's [`Counters`]: each runtime's per-thread context holds one.
///
/// The thread's virtual time is where it started plus the sum of its rows,
/// so it moves only by charging a [`Row`], and every event the thread
/// emits is folded into its counters and counted by kind before the sink
/// sees it ([`Ledger::emit_as`]). While the thread holds the token the
/// ledger holds its events and hands them over at the release
/// ([`Ledger::hold`], [`Ledger::deliver`]).
pub struct Ledger {
    start: u64,
    bd: Breakdown,
    tid: Tid,
    /// The way to the sink and the held events: `None` with tracing off,
    /// so an event costs one branch.
    trace: Option<Box<Outbox>>,
    perturber: PerturbHandle,
    /// Cache-padded so that neighbouring threads' counters never share a
    /// line. An event-backed `Det` row is folded by [`Ledger::emit_as`]
    /// alone (a row that counts a kind is zero until the ledger closes),
    /// `faults` by [`Ledger::faults`], a `Racy` row where it happens.
    pub cnt: CachePadded<Counters>,
    /// The events the thread emitted, by kind.
    events: EventCounts,
}

impl Ledger {
    /// Thread `tid`'s ledger from virtual time `v`, on `cfg`'s trace and
    /// perturber.
    pub fn new(cfg: &CommonConfig, tid: Tid, v: u64) -> Ledger {
        Ledger {
            start: v,
            bd: Breakdown::default(),
            tid,
            trace: cfg.trace.outbox(),
            perturber: cfg.perturb.clone(),
            cnt: CachePadded::new(Counters::default()),
            events: EventCounts::default(),
        }
    }

    /// The thread's virtual time in cycles: its start plus its rows.
    #[inline(always)]
    pub fn v(&self) -> u64 {
        self.start + self.bd.total()
    }

    /// Spends `c` cycles on `row`: one add, on the per-access path too.
    #[inline(always)]
    pub fn charge(&mut self, row: Row, c: u64) {
        *self.bd.row_mut(row) += c;
    }

    /// Waits until virtual time `t`, charging `row` for any time it is
    /// still ahead.
    #[inline(always)]
    pub fn wait_until(&mut self, row: Row, t: u64) {
        self.charge(row, t.saturating_sub(self.v()));
    }

    /// Fires the fault-injection `site` ([`crate::perturb`]) and charges
    /// what it returns as `lib`: virtual time only, never the logical
    /// clock, so no schedule depends on it.
    #[inline]
    pub fn perturb(&mut self, site: PerturbSite) {
        let c = self.perturber.hit(site, self.tid);
        self.charge(Row::lib, c);
    }

    /// Charges and counts `n` copy-on-write faults of `each` cycles;
    /// returns whether there were any.
    #[inline]
    pub fn faults(&mut self, n: u64, each: u64) -> bool {
        self.charge(Row::fault, n * each);
        self.cnt.faults += n;
        n > 0
    }

    /// Folds `ev`'s values into the counters, counts its kind and emits
    /// it, into the schedule or as an auxiliary event: the one door of
    /// every event the thread emits, sink or no sink.
    #[inline]
    pub fn emit_as(&mut self, ev: Event, in_schedule: bool) {
        self.cnt.sum_values(&ev);
        self.events.record(ev.kind());
        if let Some(trace) = &mut self.trace {
            trace.emit(ev, in_schedule);
        }
    }

    /// Holds the events the thread emits from its token grant on, in its
    /// order, until [`Ledger::deliver`]: the sink sees a tenure in one
    /// [`TraceSink::emit_all`](crate::TraceSink::emit_all) call, or one
    /// per [`HOLD_LIMIT`](crate::trace::HOLD_LIMIT) events. Call it under
    /// the token; a runtime that never calls it emits event by event.
    #[inline]
    pub fn hold(&mut self) {
        if let Some(trace) = &mut self.trace {
            trace.hold();
        }
    }

    /// Hands the held events to the sink and stops holding: call it under
    /// the token, before the token is given up, so the next holder's
    /// events follow them.
    #[inline]
    pub fn deliver(&mut self) {
        if let Some(trace) = &mut self.trace {
            trace.deliver();
        }
    }

    /// [`Ledger::emit_as`] for a schedule event.
    #[inline]
    pub fn emit(&mut self, ev: Event) {
        self.emit_as(ev, true);
    }

    /// The thread's rows, counters (the rows that count a kind read off
    /// its kind counts) and virtual time, at its exit.
    fn close(&self) -> (Breakdown, Counters, u64) {
        let mut cnt = *self.cnt;
        cnt.add_kinds(|k| self.events.get(k));
        (self.bd, cnt, self.v())
    }
}

/// The ledgers a run's threads closed, as [`RunReport::new`] takes them.
#[derive(Debug, Default)]
pub struct Closed {
    per_thread: Vec<(Tid, Breakdown)>,
    /// The closed ledgers' counters, summed, and the runtime's own `Racy`
    /// rows.
    pub counters: Counters,
    events: EventCounts,
    max_v: u64,
}

impl Closed {
    /// Closes `led` and files what it hands back.
    pub fn file(&mut self, led: &Ledger) {
        let (bd, cnt, v) = led.close();
        self.per_thread.push((led.tid, bd));
        self.counters += cnt;
        self.events += led.events;
        self.max_v = self.max_v.max(v);
    }
}

/// Result of one [`crate::Runtime::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Critical-path execution time in virtual cycles: the maximum over all
    /// threads of their final virtual clock. Deterministic for DMT runtimes
    /// (with adaptive overflow notification disabled); noisy for pthreads,
    /// exactly as wall-clock would be.
    pub virtual_cycles: u64,
    /// Real elapsed time of the run on the (single-core) host. Reported for
    /// transparency only; see `DESIGN.md`.
    pub wall: Duration,
    /// Aggregate virtual-time breakdown over all threads.
    pub breakdown: Breakdown,
    /// Per-thread breakdowns, indexed by spawn order.
    pub per_thread: Vec<(Tid, Breakdown)>,
    /// Aggregate event counters.
    pub counters: Counters,
    /// Peak number of distinct live pages across all versions and
    /// workspaces (× 4 KiB = the paper's Figure 12 peak memory). Zero for
    /// runtimes without versioned memory (pthreads).
    pub peak_pages: usize,
    /// Peak number of versions retained on the version chains, read
    /// before the collector trims (the chain length Figure 12's collector
    /// must keep up with). Zero for pthreads.
    pub peak_versions: usize,
    /// Peak length of any thread's clock history on the scheduling table
    /// (watermark pruning must bound it). Zero for runtimes without one.
    pub peak_clock_history: usize,
    /// FNV-1a digest of the committed-version log
    /// `(committer, version id, page ids)`*: two deterministic runs must
    /// agree on this. Zero for pthreads.
    pub commit_log_hash: u64,
    /// Incremental FNV-1a digest of the run's deterministic event order
    /// (see [`crate::trace`]). Bit-identical across runs for deterministic
    /// runtimes when a hashing sink is attached; 0 when tracing is off.
    /// For pthreads it varies run to run — that variance is the point.
    pub schedule_hash: u64,
    /// Per-category event counts: the filed ledgers' counts summed, as
    /// `counters` are, with or without a sink.
    pub events: EventCounts,
    /// Number of threads that ran (including the main job).
    pub threads: u32,
    /// Master seed of the fault-injection plan active during the run
    /// (see [`crate::perturb`]); 0 when no perturber was attached. Makes
    /// stress artifacts self-describing: the report alone reproduces the
    /// run.
    pub perturb_seed: u64,
    /// FNV-1a digest of the active fault-injection plan (identifies shrunk
    /// plans, whose master seed alone is ambiguous); 0 when off.
    pub perturb_plan: u64,
    /// Workload panics contained during the run, `(tid, message)` in
    /// deterministic containment (token-grant) order. Empty for a clean
    /// run; runtimes without containment leave it empty too (the panic
    /// propagates instead).
    pub panics: Vec<(Tid, String)>,
    /// The watchdog's diagnosis when the run was torn down for lack of
    /// logical progress (deadlock / wedged holder); `None` for a run that
    /// finished on its own.
    pub fault: Option<String>,
    /// Whether the run's recording degraded: the trace sink hit a fault
    /// mid-run (named in `fault`), so the reproducer is truncated there.
    /// The computation itself finished, on its deterministic schedule.
    pub degraded: bool,
}

impl RunReport {
    /// The report every runtime shares: the `closed` ledgers' rows sorted
    /// by tid and summed into `breakdown`, their counters and event counts,
    /// and their latest virtual time as `virtual_cycles`; `wall` read now;
    /// the schedule hash and plan identity read from `cfg`'s trace and
    /// perturber, and a trace-sink fault reported as `fault` with
    /// `degraded` set. The runtime then sets the fields it owns (peaks,
    /// commit-log hash, contained panics, a watchdog fault).
    pub fn new(cfg: &CommonConfig, start: Instant, closed: Closed, threads: u32) -> RunReport {
        let Closed {
            mut per_thread,
            counters,
            events,
            max_v,
        } = closed;
        per_thread.sort_by_key(|(t, _)| *t);
        let mut breakdown = Breakdown::default();
        for (_, b) in &per_thread {
            breakdown += *b;
        }
        // A degraded recording (the sink hit a write fault mid-run) is a
        // run fault even though the computation itself finished: the
        // promised reproducer is truncated at the point of failure.
        let fault = cfg.trace.fault();
        RunReport {
            virtual_cycles: max_v,
            wall: start.elapsed(),
            breakdown,
            per_thread,
            counters,
            peak_pages: 0,
            peak_versions: 0,
            peak_clock_history: 0,
            commit_log_hash: 0,
            schedule_hash: cfg.trace.schedule_hash(),
            events,
            threads,
            perturb_seed: cfg.perturb.seed(),
            perturb_plan: cfg.perturb.plan_digest(),
            panics: Vec::new(),
            degraded: fault.is_some(),
            fault,
        }
    }

    /// Breakdown of a single thread, if it exists.
    pub fn thread_breakdown(&self, tid: Tid) -> Option<&Breakdown> {
        self.per_thread
            .iter()
            .find(|(t, _)| *t == tid)
            .map(|(_, b)| b)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    use super::*;
    use crate::ids::DomainId;
    use crate::trace::{TraceHandle, TraceSink};

    #[test]
    fn breakdown_total_and_overhead() {
        let b = Breakdown {
            chunk: 100,
            determ_wait: 20,
            barrier_wait: 5,
            commit: 10,
            update: 3,
            fault: 2,
            lib: 1,
        };
        assert_eq!(b.total(), 141);
        assert_eq!(b.overhead(), 41);
    }

    #[test]
    fn breakdown_add_assign_sums_fields() {
        let mut a = Breakdown {
            chunk: 1,
            ..Breakdown::default()
        };
        a += Breakdown {
            chunk: 2,
            lib: 7,
            ..Breakdown::default()
        };
        assert_eq!(a.chunk, 3);
        assert_eq!(a.lib, 7);
    }

    #[test]
    fn counters_add_assign_sums_fields() {
        let mut a = Counters::default();
        a += Counters {
            commits: 4,
            faults: 2,
            ..Counters::default()
        };
        a += Counters {
            commits: 1,
            ..Counters::default()
        };
        assert_eq!(a.commits, 5);
        assert_eq!(a.faults, 2);
    }

    #[test]
    fn count_folds_each_event_into_its_rows() {
        let mut c = Counters::default();
        for ev in [
            Event::Commit {
                tid: Tid(1),
                version: 3,
                pages: 5,
                merged: 2,
                page_set: 0,
            },
            Event::Update {
                tid: Tid(1),
                version: 3,
                pages: 7,
            },
            Event::Spawn {
                parent: Tid(0),
                child: Tid(2),
                pooled: true,
            },
            Event::Publish {
                tid: Tid(1),
                clock: 9,
            },
        ] {
            c.count(&ev);
        }
        let want = Counters {
            commits: 1,
            chunks: 1,
            pages_committed: 5,
            pages_merged: 2,
            pages_propagated: 7,
            spawns: 1,
            pool_hits: 1,
            ..Counters::default()
        };
        assert_eq!(c, want);
    }

    #[test]
    fn charges_and_waits_keep_the_rows_summing_to_the_time_run() {
        let mut led = Ledger::new(&CommonConfig::default(), Tid(1), 500);
        led.charge(Row::chunk, 100);
        led.wait_until(Row::determ_wait, 20);
        led.wait_until(Row::determ_wait, 700);
        led.charge(Row::lib, 3);
        led.wait_until(Row::barrier_wait, 900);
        assert!(led.faults(2, 10));
        assert!(!led.faults(0, 10));
        let (bd, cnt, v) = led.close();
        let want = Breakdown {
            chunk: 100,
            determ_wait: 100,
            barrier_wait: 197,
            fault: 20,
            lib: 3,
            ..Breakdown::default()
        };
        assert_eq!((bd, cnt.faults, v), (want, 2, 920));
        assert_eq!(bd.total(), v - 500);
    }

    #[test]
    fn virtual_time_is_the_start_plus_the_rows() {
        let start = 1_000;
        let mut led = Ledger::new(&CommonConfig::default(), Tid(1), start);
        const ROWS: [Row; 7] = [
            Row::chunk,
            Row::determ_wait,
            Row::barrier_wait,
            Row::commit,
            Row::update,
            Row::fault,
            Row::lib,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let row = ROWS[x as usize % ROWS.len()];
            let (before, bd) = (led.v(), led.bd);
            if x & 1 == 0 {
                led.charge(row, x >> 50);
                assert_eq!(led.v(), before + (x >> 50));
            } else {
                let t = (before + (x >> 50)).saturating_sub(1 << 13);
                led.wait_until(row, t);
                if t <= before {
                    assert_eq!(led.bd, bd, "a wait to {t} from {before} charged");
                }
                assert_eq!(led.v(), before.max(t));
            }
            assert_eq!(led.v(), start + led.bd.total());
        }
    }

    /// A sink that refuses every event by unwinding.
    struct Refusing;

    impl TraceSink for Refusing {
        fn emit(&self, _: &Event, _: bool, _: DomainId) {
            panic!("refused");
        }
    }

    #[test]
    fn the_emit_door_folds_before_it_sends() {
        let cfg = CommonConfig {
            trace: TraceHandle::to(Arc::new(Refusing)),
            ..CommonConfig::default()
        };
        let mut led = Ledger::new(&cfg, Tid(1), 0);
        let ev = Event::TokenAcquire {
            tid: Tid(1),
            clock: 0,
        };
        let sent = std::panic::catch_unwind(AssertUnwindSafe(|| led.emit(ev)));
        assert!(sent.is_err(), "the sink saw the event");
        assert_eq!(led.events.get(EventKind::TokenAcquire), 1);
        assert_eq!(led.close().1.token_acquisitions, 1);
    }

    /// Records how many events each call it sees carries.
    #[derive(Default)]
    struct Calls(crate::sync::Mutex<Vec<usize>>);

    impl TraceSink for Calls {
        fn emit(&self, _: &Event, _: bool, _: DomainId) {
            self.0.lock().push(1);
        }

        fn emit_all(&self, evs: &[(Event, bool)], _: DomainId) {
            self.0.lock().push(evs.len());
        }
    }

    #[test]
    fn a_held_tenure_reaches_the_sink_a_page_at_a_time() {
        let sink = Arc::new(Calls::default());
        let cfg = CommonConfig {
            trace: TraceHandle::to(sink.clone()),
            ..CommonConfig::default()
        };
        let mut led = Ledger::new(&cfg, Tid(1), 0);
        let ev = Event::TokenAcquire {
            tid: Tid(1),
            clock: 0,
        };
        led.emit(ev);
        led.hold();
        (0..1_100).for_each(|_| led.emit(ev));
        assert_eq!(*sink.0.lock(), [1, 512, 512]);
        led.deliver();
        led.deliver();
        led.emit_as(ev, false);
        assert_eq!(*sink.0.lock(), [1, 512, 512, 76, 1]);
        assert_eq!(led.events.get(EventKind::TokenAcquire), 1_102);
    }

    #[test]
    fn thread_breakdown_lookup() {
        let bd = |chunk| Breakdown {
            chunk,
            ..Breakdown::default()
        };
        let closed = Closed {
            per_thread: vec![(Tid(1), bd(2)), (Tid(0), bd(1))],
            ..Closed::default()
        };
        let r = RunReport::new(&CommonConfig::default(), Instant::now(), closed, 2);
        assert_eq!(r.per_thread, [(Tid(0), bd(1)), (Tid(1), bd(2))]);
        assert_eq!(r.breakdown, bd(3));
        assert_eq!(r.thread_breakdown(Tid(1)), Some(&bd(2)));
        assert!(r.thread_breakdown(Tid(2)).is_none());
        assert!(!r.degraded && r.fault.is_none());
    }
}
