//! Shared runtime state: the global coordination structures every
//! Consequence thread mutates under one lock.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dmt_api::sync::{Condvar, Mutex, MutexGuard};

use conversion::{ParallelCommit, Segment, Workspace};
use det_clock::{ReplayCtl, SchedKind, SchedTable, Slots};
use dmt_api::{Breakdown, CachePadded, CommonConfig, Counters, DmtError, Job, MutexId, Tid};

use crate::coarsen::Ewma;
use crate::lrc::{LrcObject, LrcTracker};
use crate::options::Options;

/// A deterministic mutex.
#[derive(Debug, Default)]
pub(crate) struct MutexSt {
    pub owner: Option<Tid>,
    /// FIFO wait queue; push order is token order, hence deterministic.
    pub waiters: VecDeque<Tid>,
    /// Per-lock EWMA of critical-section length (coarsening predictor).
    pub cs_est: Ewma,
    /// Clock at which the current owner acquired the lock.
    pub cs_start_clock: u64,
    /// Acquisitions granted so far; the next grant takes ticket
    /// `tickets + 1`. Trace events use this so two runs can be compared
    /// per-lock, not just globally.
    pub tickets: u64,
    /// Set (to the dying owner) when a thread panicked while holding this
    /// mutex. Every subsequent acquirer gets a deterministic
    /// [`DmtError::MutexPoisoned`] in token-grant order.
    pub poisoned: Option<Tid>,
}

/// A deterministic condition variable. Waiters carry the mutex they
/// released so owner-death poisoning can wake them with a deterministic
/// [`DmtError::CondOwnerDied`].
#[derive(Debug, Default)]
pub(crate) struct CondSt {
    pub waiters: VecDeque<(Tid, MutexId)>,
}

/// A deterministic read-write lock.
#[derive(Debug, Default)]
pub(crate) struct RwSt {
    pub writer: Option<Tid>,
    /// Current shared holders, one entry per hold, so a dying reader's
    /// holds can be dropped by its containment protocol.
    pub readers: Vec<Tid>,
    /// FIFO wait queue; `true` marks a writer.
    pub waiters: VecDeque<(Tid, bool)>,
    /// Set when the exclusive holder panicked (see [`MutexSt::poisoned`]).
    /// A dying *reader* does not poison: it cannot have torn the data.
    pub poisoned: Option<Tid>,
}

/// Barrier lifecycle within one generation, in order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum BarPhase {
    /// Accepting arrivals.
    #[default]
    Collecting,
    /// Parallel barrier only: phase 2 merging in progress.
    Merging,
    /// Commits installed; waiters may update and leave.
    Installed,
}

/// A deterministic barrier.
#[derive(Default)]
pub(crate) struct BarrierSt {
    pub parties: usize,
    pub phase: BarPhase,
    pub gen: u64,
    pub arrived: Vec<Tid>,
    pub max_arrival_clock: u64,
    /// Two-phase commit of the current generation (parallel barrier only).
    pub pc: Option<Arc<ParallelCommit>>,
    /// Virtual time of the sealing event (phase 2 may begin).
    pub merge_start_v: u64,
    pub phase2_done: usize,
    pub phase2_max_v: u64,
    /// Virtual time of installation (barrier opens).
    pub install_v: u64,
    /// Version committed when the barrier opened; leavers update exactly
    /// to it so update work is deterministic.
    pub install_version: u64,
    pub leaving: usize,
    /// Set when a participant (or would-be participant) panicked such that
    /// the barrier can never fill again; every waiter and subsequent
    /// arriver gets a deterministic [`DmtError::BarrierBroken`].
    pub broken: bool,
}

impl BarrierSt {
    pub fn new(parties: usize) -> BarrierSt {
        BarrierSt {
            parties,
            ..BarrierSt::default()
        }
    }

    /// Resets for the next generation once every party has left, keeping
    /// the arrival list's allocation (this runs under the runtime lock on
    /// every barrier generation). A broken barrier stays broken: the
    /// departed party can never return.
    pub fn reset(&mut self) {
        let mut arrived = std::mem::take(&mut self.arrived);
        arrived.clear();
        *self = BarrierSt {
            arrived,
            gen: self.gen + 1,
            broken: self.broken,
            ..BarrierSt::new(self.parties)
        };
    }
}

/// Per-thread runtime bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct ThreadSt {
    /// Wake flag for threads blocked on a lock/condvar/join.
    pub wake: bool,
    /// Virtual time of the event that raised `wake` (deterministic: the
    /// waker and its virtual time are functions of the token order).
    pub wake_v: u64,
    /// Threads blocked in `join` on this thread.
    pub joiners: Vec<Tid>,
    pub finished: bool,
    pub exit_clock: u64,
    pub exit_v: u64,
    /// Logical clock at the thread's most recent departure.
    pub saved_clock: u64,
    /// This thread's job panicked; `join` reports
    /// [`DmtError::ThreadPanicked`] instead of succeeding.
    pub panicked: bool,
    /// Panic message (best-effort string form of the payload).
    pub panic_msg: String,
    /// Error to deliver instead of a successful wake: set by a dying
    /// owner when it drains this thread from a poisoned queue. Consumed
    /// by `block_until_woken` together with the wake flag, so delivery
    /// order is the deterministic wake order.
    pub wake_err: Option<DmtError>,
}

/// Message to a worker OS thread.
pub(crate) enum Msg {
    Start {
        tid: Tid,
        job: Job,
        clock: u64,
        v: u64,
        ws: Workspace,
    },
    Shutdown,
}

/// A pooled worker: its channel and the workspace it retained (§3.3).
pub(crate) struct PoolEntry {
    pub tx: Sender<Msg>,
    pub ws: Workspace,
}

/// Lock-protected mutable runtime state.
pub(crate) struct Inner {
    pub table: SchedTable,
    pub token: Option<Tid>,
    /// Clock of the last thread to release the token (§3.5 fast-forward).
    pub last_release_clock: u64,
    /// Virtual time of the last token release (wake-edge chaining).
    pub last_release_v: u64,
    /// Previous entrant into global coordination (coarsening MIMD signal).
    pub last_entrant: Option<Tid>,
    pub mutexes: Vec<MutexSt>,
    pub conds: Vec<CondSt>,
    pub rwlocks: Vec<RwSt>,
    pub barriers: Vec<BarrierSt>,
    pub threads: Vec<ThreadSt>,
    pub next_tid: u32,
    /// Registered, not yet finished threads.
    pub live: u32,
    pub pool: Vec<PoolEntry>,
    pub handles: Vec<JoinHandle<()>>,
    pub reports: Vec<(Tid, Breakdown)>,
    pub counters: Counters,
    pub max_exit_v: u64,
    pub lrc: Option<LrcTracker>,
    pub started: bool,
    /// Monotone count of token grants: the watchdog's logical-progress
    /// signal (GMIC advancing ⇒ grants happening).
    pub grant_seq: u64,
    /// Raised by the watchdog (deadlock / unrecoverable invariant) — every
    /// blocked protocol path unwinds with [`DmtError::Shutdown`].
    pub shutdown: bool,
    /// The watchdog's diagnosis when it gave up on the run.
    pub fault: Option<String>,
    /// Contained workload panics in containment (token-grant) order.
    pub panics: Vec<(Tid, String)>,
    /// The [`Options::inject_sched_corruption`] drill already fired
    /// (it corrupts exactly once).
    pub corruption_done: bool,
}

impl Inner {
    /// Records an acquire edge on `o` when the LRC estimator is attached.
    #[inline]
    pub fn lrc_acquire(&mut self, t: Tid, o: LrcObject) {
        if let Some(l) = self.lrc.as_mut() {
            l.on_acquire(t, o);
        }
    }

    /// Records a release edge on `o` when the LRC estimator is attached.
    #[inline]
    pub fn lrc_release(&mut self, t: Tid, o: LrcObject) {
        if let Some(l) = self.lrc.as_mut() {
            l.on_release(t, o);
        }
    }
}

/// Where threads sleep and how they are woken: the one place that knows
/// which scheduler mode the run is in.
///
/// Under the fast scheduler a thread blocked on the token or on its wake
/// flag parks on its own cache-padded condvar (paired with
/// [`Shared::inner`]), so a hand-off wakes exactly one thread. Under the
/// reference scheduler everyone shares `cv` and every wake is a
/// `notify_all` — the thundering herd `BENCH_sched.json` measures the
/// fast path against. Barrier phase changes and thread retirement use
/// `cv` in both modes.
///
/// Wake timing cannot change the schedule: eligibility is a monotone
/// predicate of published clocks with a unique minimum, so a missed or
/// extra wake only moves real time, never the grant order.
pub(crate) struct Parking {
    cv: Condvar,
    parkers: Box<[CachePadded<Condvar>]>,
    fast: bool,
    /// The fast scheduler failed an invariant check and the watchdog
    /// failed the run over to the reference table. Threads that parked
    /// before the failover still sleep on their parkers, so from then on
    /// every broadcast reaches `cv` *and* all parkers.
    degraded: AtomicBool,
}

impl Parking {
    fn new(kind: SchedKind, max_threads: usize) -> Parking {
        Parking {
            cv: Condvar::new(),
            parkers: (0..max_threads)
                .map(|_| CachePadded::new(Condvar::new()))
                .collect(),
            fast: kind == SchedKind::Fast,
            degraded: AtomicBool::new(false),
        }
    }

    /// Whether wakes are targeted (fast scheduler, not failed over).
    #[inline]
    pub fn targeted(&self) -> bool {
        self.fast && !self.is_degraded()
    }

    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Marks the run failed over. Caller holds the runtime lock, so no
    /// thread can pick a parker between this store and `everyone()`.
    pub fn degrade(&self) {
        self.degraded.store(true, Ordering::Release);
    }

    /// One wait of `tid` for the token or its wake flag.
    #[inline]
    pub fn wait(&self, tid: Tid, guard: &mut MutexGuard<'_, Inner>) {
        if self.targeted() {
            self.parkers[tid.index()].wait(guard);
        } else {
            self.cv.wait(guard);
        }
    }

    /// One wait on the shared condvar (barrier phases, run teardown);
    /// returns whether `timeout` elapsed.
    pub fn wait_shared(
        &self,
        guard: &mut MutexGuard<'_, Inner>,
        timeout: Option<Duration>,
    ) -> bool {
        match timeout {
            Some(d) => self.cv.wait_for(guard, d).timed_out(),
            None => {
                self.cv.wait(guard);
                false
            }
        }
    }

    /// Wakes the waiters of the shared condvar only.
    pub fn notify_shared(&self) {
        self.cv.notify_all();
    }

    /// Wakes a thread whose wake flag was just raised, or a publisher's
    /// hinted head waiter. Reference mode: no-op — a broadcast by the
    /// same token holder covers it.
    #[inline]
    pub fn wake_one(&self, w: Tid, cnt: &mut Counters) {
        if self.targeted() {
            self.parkers[w.index()].notify_one();
            cnt.targeted_wakes += 1;
        }
    }

    /// Wakes the unique thread the deterministic order designates to take
    /// the token next, if the token is free and one is eligible; the
    /// reference scheduler broadcasts instead.
    #[inline]
    pub fn wake_successor(&self, inner: &mut Inner, me: Tid, cnt: &mut Counters) {
        if !self.targeted() {
            self.broadcast(cnt);
        } else if inner.token.is_none() {
            if let Some(w) = inner.table.successor().filter(|w| *w != me) {
                self.wake_one(w, cnt);
            }
        }
    }

    /// The reference scheduler's counted `notify_all`; nothing under the
    /// fast scheduler, whose callers have already woken the one thread
    /// that matters.
    #[inline]
    pub fn broadcast(&self, cnt: &mut Counters) {
        if !self.targeted() {
            cnt.broadcast_wakes += 1;
            self.herd();
        }
    }

    /// Wakes every thread that could be waiting for something this
    /// thread changed: the shared condvar, plus all parkers once degraded.
    pub fn herd(&self) {
        if self.is_degraded() {
            self.everyone();
        } else {
            self.cv.notify_all();
        }
    }

    /// Wakes every thread however it might be waiting (shutdown,
    /// failover, spurious-wake injection).
    pub fn everyone(&self) {
        self.cv.notify_all();
        for p in self.parkers.iter() {
            p.notify_all();
        }
    }
}

/// State shared between the runtime handle and every worker thread.
pub(crate) struct Shared {
    pub cfg: CommonConfig,
    pub opts: Options,
    pub seg: Segment,
    pub inner: Mutex<Inner>,
    pub parking: Parking,
    /// Lock-free half of the fast-path scheduler (also reachable through
    /// `Inner::table` when it is the fast table): publication slots,
    /// head-waiter key, token-free flag, watermark.
    pub slots: Arc<Slots>,
    /// Recorded grant script driving this run (replay mode). When set,
    /// token admission follows the script instead of recomputed
    /// eligibility until the script is exhausted or marked diverged.
    pub replay: Option<Arc<ReplayCtl>>,
}

impl Shared {
    /// One [`ResourceSample`](dmt_api::ResourceSample) for the attached
    /// witness: version-chain peak, live pages, longest clock history,
    /// trace-ring occupancy. The observation costs no virtual time and
    /// cannot move the schedule.
    pub fn witness_sample(&self) {
        let clock_history = self
            .inner
            .lock()
            .table
            .max_history_len(self.cfg.max_threads as u32);
        self.cfg.witness.observe(dmt_api::ResourceSample {
            retained_versions: self.seg.retained_peak(),
            live_pages: self.seg.tracker().live(),
            clock_history,
            trace_ring: self.cfg.trace.occupancy(),
        });
    }

    pub fn new_replaying(
        cfg: CommonConfig,
        opts: Options,
        replay: Option<Arc<ReplayCtl>>,
    ) -> Arc<Shared> {
        let mut seg = Segment::new(cfg.heap_pages, cfg.max_threads);
        seg.set_perturb(cfg.perturb.clone());
        let lrc = cfg.track_lrc.then(|| LrcTracker::new(cfg.max_threads));
        let slots = Slots::new(cfg.max_threads);
        // Preallocate per-thread vectors to their max_threads-derived
        // bounds so hot paths never reallocate (and never move the
        // cache-padded thread slots mid-run).
        let max_t = cfg.max_threads;
        Arc::new(Shared {
            inner: Mutex::new(Inner {
                table: SchedTable::new(opts.sched, opts.order, slots.clone()),
                token: None,
                last_release_clock: 0,
                last_release_v: 0,
                last_entrant: None,
                mutexes: Vec::new(),
                conds: Vec::new(),
                rwlocks: Vec::new(),
                barriers: Vec::new(),
                threads: Vec::with_capacity(max_t),
                next_tid: 0,
                live: 0,
                pool: Vec::with_capacity(max_t),
                handles: Vec::with_capacity(max_t),
                reports: Vec::with_capacity(max_t),
                counters: Counters::default(),
                max_exit_v: 0,
                lrc,
                started: false,
                grant_seq: 0,
                shutdown: false,
                fault: None,
                panics: Vec::new(),
                corruption_done: false,
            }),
            parking: Parking::new(opts.sched, max_t),
            slots,
            replay,
            cfg,
            opts,
            seg,
        })
    }
}
