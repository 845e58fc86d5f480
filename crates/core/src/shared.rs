//! Shared runtime state: the global coordination structures every
//! Consequence thread mutates under one lock.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use dmt_api::sync::{Mutex, MutexGuard};

use conversion::{ParallelCommit, Segment, Workspace};
use det_clock::{ReplayCtl, SchedKind, SchedTable, Slots};
use dmt_api::{Breakdown, CommonConfig, Counters, DmtError, Job, MutexId, Tid};

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
    /// Threads asleep in [`Held::wait`].
    pub waiters: Vec<Tid>,
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

/// Where threads sleep and how they are woken.
///
/// Every thread sleeps on its own permit ([`std::thread::park`], on the
/// handle registered when its `Ctx` started), paired with no lock. Two
/// rules, enforced by [`Held`] and `Ctx::release`:
///
/// 1. A real unpark is issued only after the requester has dropped
///    [`Shared::inner`], and a thread sleeps without holding it: wakes are
///    *recorded* in the guard, which unlocks first and unparks second — or
///    the woken thread runs into the mutex its waker still holds and
///    sleeps a second time.
/// 2. An unpark a token holder requests for a thread that needs the token
///    (`Ctx::wake`) waits in that `Ctx` until its `release`, where it is
///    merged with the successor wake.
///
/// The permit makes both safe. Every predicate a sleeper tests (wake flag,
/// token, eligibility, barrier phase, shutdown) is written and read under
/// `inner`, so whoever changes it after the sleeper looked posts the
/// unpark after the sleeper unlocked; a permit posted before the `park`
/// is kept, any number of unparks leave one, and a stale one costs one
/// re-check of the predicate.
///
/// A hand-off unparks exactly one thread ([`Held::wake_successor`]);
/// [`Parking::everyone`] is for five occasions, never a policy.
///
/// Wake timing cannot change the schedule: eligibility is a monotone
/// predicate of published clocks with a unique minimum, so a missed or
/// extra wake only moves real time, never the grant order.
pub(crate) struct Parking {
    /// The OS thread running each `Tid`, set once when its `Ctx` starts.
    threads: Box<[OnceLock<Thread>]>,
    fast: bool,
    /// The fast scheduler failed an invariant check and the watchdog
    /// failed the run over to the reference table.
    degraded: AtomicBool,
}

impl Parking {
    fn new(kind: SchedKind, max_threads: usize) -> Parking {
        Parking {
            threads: (0..max_threads).map(|_| OnceLock::new()).collect(),
            fast: kind == SchedKind::Fast,
            degraded: AtomicBool::new(false),
        }
    }

    /// Makes the calling OS thread the one an unpark of `tid` reaches.
    pub fn register(&self, tid: Tid) {
        let _ = self.threads[tid.index()].set(std::thread::current());
    }

    /// Whether a publication goes around the table, straight into
    /// [`Slots::publish`] (fast kind, not failed over): the test
    /// `Ctx::maybe_publish` makes without the runtime lock.
    #[inline]
    pub fn publishes_lock_free(&self) -> bool {
        self.fast && !self.is_degraded()
    }

    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Marks the run failed over. Caller holds the runtime lock, and
    /// follows with `everyone()` once it has dropped it.
    pub fn degrade(&self) {
        self.degraded.store(true, Ordering::Release);
    }

    /// Rule 1: never under a lock. A tid nobody registered (a replay script
    /// may name one) is nobody to wake.
    fn unpark(&self, w: Tid) {
        debug_assert_eq!(dmt_api::sync::held(), 0, "unpark under a lock");
        if let Some(t) = self.threads.get(w.index()).and_then(OnceLock::get) {
            t.unpark();
        }
    }

    /// Unparks every registered thread, whatever it waits for: the
    /// watchdog's failover (once) and its shutdown, `abort_quiet`, the
    /// spurious-wake injection in `Ctx::doze`, a ninth distinct wake of one
    /// lock section ([`Wakes::push`]).
    pub fn everyone(&self) {
        (0..self.threads.len()).for_each(|i| self.unpark(Tid(i as u32)));
    }
}

/// Unparks requested and not yet delivered: a few threads, or everyone.
#[derive(Default)]
pub(crate) struct Wakes {
    tids: [u32; 8],
    n: usize,
    /// Everyone, whatever they wait for.
    pub all: bool,
}

impl Wakes {
    /// Adds `w` once; one thread too many turns the set into "everyone".
    pub fn push(&mut self, w: Tid) {
        if self.tids[..self.n].contains(&w.0) {
            return;
        }
        match self.tids.get_mut(self.n) {
            Some(slot) => (*slot, self.n) = (w.0, self.n + 1),
            None => self.all = true,
        }
    }

    /// Moves every request of `from` into this set.
    pub fn take(&mut self, from: &mut Wakes) {
        let Wakes { tids, n, all } = std::mem::take(from);
        tids[..n].iter().for_each(|w| self.push(Tid(*w)));
        self.all |= all;
    }
}

/// [`Shared::inner`], locked — and the wakes requested while it is: they
/// are delivered when it is not (rule 1 of [`Parking`]), by `sleep` and by
/// `Drop`, so an error unwinding through the guard still delivers them.
pub(crate) struct Held<'a> {
    sh: &'a Shared,
    /// `None` only inside `sleep` and `drop`.
    guard: Option<MutexGuard<'a, Inner>>,
    pub wakes: Wakes,
}

impl Held<'_> {
    /// The wake rule, stated once: if the token is free, requests a wake of
    /// the one thread that may take it next — the scripted next grantee
    /// while a replay script drives grants, otherwise the table's
    /// [`successor`](SchedTable::successor) (either kind, failed over or
    /// not). The fallback is `Ctx::admitted`'s: a script that is exhausted
    /// or diverged names nobody.
    #[inline]
    pub fn wake_successor(&mut self, me: Tid) {
        if self.token.is_some() {
            return;
        }
        let scripted = self.sh.replay.as_ref().and_then(|ctl| ctl.next());
        let next = scripted.map(Tid).or_else(|| self.table.successor());
        if let Some(w) = next.filter(|w| *w != me) {
            self.wakes.push(w);
        }
    }

    /// Requests a wake of the threads in [`Held::wait`]: a barrier changed
    /// phase or broke, a thread retired.
    pub fn wake_waiters(&mut self) {
        for i in 0..self.waiters.len() {
            let w = self.waiters[i];
            self.wakes.push(w);
        }
    }

    /// One [`Held::sleep`] of `tid` for something other than the token or
    /// its wake flag — a barrier phase, the end of the run.
    pub fn wait(&mut self, tid: Tid, timeout: Option<Duration>) -> bool {
        self.waiters.push(tid);
        let timed_out = self.sleep(timeout);
        self.waiters.retain(|w| *w != tid);
        timed_out
    }

    /// Unlock first, unpark second.
    fn unlock(&mut self) {
        self.guard = None;
        if self.wakes.all {
            self.sh.parking.everyone();
        } else {
            for w in &self.wakes.tids[..self.wakes.n] {
                self.sh.parking.unpark(Tid(*w));
            }
        }
        (self.wakes.n, self.wakes.all) = (0, false);
    }

    /// Unlocks, delivers, parks the calling thread (for at most `timeout`;
    /// returns whether that elapsed) and relocks. The caller re-checks its
    /// predicate: the permit may be stale.
    pub fn sleep(&mut self, timeout: Option<Duration>) -> bool {
        self.unlock();
        let deadline = timeout.map(|d| Instant::now() + d);
        match timeout {
            Some(d) => std::thread::park_timeout(d),
            None => std::thread::park(),
        }
        self.guard = Some(self.sh.inner.lock());
        deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.unlock();
    }
}

// INVARIANT: `guard` is `None` only between the unlock and the relock
// inside `sleep`, and in `drop`; neither hands `self` out.
#[allow(clippy::expect_used)]
impl Deref for Held<'_> {
    type Target = Inner;
    fn deref(&self) -> &Inner {
        self.guard.as_ref().expect("locked outside sleep")
    }
}

#[allow(clippy::expect_used)]
impl DerefMut for Held<'_> {
    fn deref_mut(&mut self) -> &mut Inner {
        self.guard.as_mut().expect("locked outside sleep")
    }
}

/// State shared between the runtime handle and every worker thread.
pub(crate) struct Shared {
    pub cfg: CommonConfig,
    pub opts: Options,
    pub seg: Segment,
    /// Locked only through [`Shared::lock`].
    inner: Mutex<Inner>,
    pub parking: Parking,
    /// Lock-free half of the fast-path scheduler (also reachable through
    /// `Inner::table` when it is the fast table): publication slots,
    /// head-waiter key, watermark.
    pub slots: Arc<Slots>,
    /// Recorded grant script driving this run (replay mode). When set,
    /// token admission follows the script instead of recomputed
    /// eligibility until the script is exhausted or marked diverged.
    pub replay: Option<Arc<ReplayCtl>>,
}

impl Shared {
    /// Locks the runtime state.
    #[inline]
    pub fn lock(&self) -> Held<'_> {
        Held {
            sh: self,
            guard: Some(self.inner.lock()),
            wakes: Wakes::default(),
        }
    }

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
                waiters: Vec::with_capacity(max_t),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Longer than any test may take: a sleep this long lost its wake.
    const LOST: Option<Duration> = Some(Duration::from_secs(60));

    fn shared() -> Arc<Shared> {
        Shared::new_replaying(CommonConfig::default(), Options::consequence_ic(), None)
    }

    #[test]
    fn an_unpark_before_the_park_is_kept_and_many_leave_one_permit() {
        let sh = shared();
        sh.parking.register(Tid(1));
        let mut inner = sh.lock();
        // Each thread once, and a ninth makes the set "everyone".
        (0..16).for_each(|t| inner.wakes.push(Tid(t % 8)));
        assert!((inner.wakes.n, inner.wakes.all) == (8, false));
        inner.wakes.push(Tid(8));
        assert!(inner.wakes.all);
        // Delivered after the unlock and before the park, which keeps it.
        assert!(!inner.sleep(LOST));
        drop(inner);
        (0..3).for_each(|_| sh.parking.everyone());
        let mut inner = sh.lock();
        // The stale permit costs one re-check...
        assert!(!inner.sleep(LOST));
        // ...and it was one permit: the next sleep is not missed.
        assert!(inner.sleep(Some(Duration::from_millis(20))));
    }

    #[test]
    fn a_release_wakes_the_scripted_grantee_and_the_tables_once_diverged() {
        let ctl = Arc::new(ReplayCtl::new(vec![2]));
        let opts = Options::consequence_ic();
        let sh = Shared::new_replaying(CommonConfig::default(), opts, Some(ctl.clone()));
        let mut inner = sh.lock();
        (0..3).for_each(|t| inner.table.register(Tid(t), 0, 0));
        inner.table.arrive_sync(Tid(1), 10, 0);
        inner.table.arrive_sync(Tid(2), 20, 0);
        inner.table.publish(Tid(0), 30, 0);
        assert_eq!(inner.table.successor(), Some(Tid(1)));
        let woken = |inner: &mut Held<'_>, me| {
            inner.wake_successor(Tid(me));
            let Wakes { tids, n, all } = std::mem::take(&mut inner.wakes);
            assert!(!all);
            tids[..n].to_vec()
        };
        // The script drives grants: its next grantee, not the table's.
        assert_eq!(woken(&mut inner, 0), [2]);
        // Never the releaser itself, and nobody while the token is held.
        assert_eq!(woken(&mut inner, 2), []);
        inner.token = Some(Tid(0));
        assert_eq!(woken(&mut inner, 0), []);
        inner.token = None;
        // Abandoned, it names nobody: recomputed eligibility, as for grants.
        ctl.mark_diverged();
        assert_eq!(woken(&mut inner, 0), [1]);
    }

    #[test]
    fn everyone_reaches_a_thread_that_slept_before_the_failover() {
        let sh = shared();
        let (asleep, is_asleep) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                sh.parking.register(Tid(1));
                let mut inner = sh.lock();
                // Sent under the lock: whoever locks next finds us asleep.
                asleep.send(()).expect("test alive");
                while !inner.shutdown {
                    assert!(!inner.sleep(LOST), "woken, not timed out");
                }
            });
            is_asleep.recv().expect("sleeper alive");
            let mut inner = sh.lock();
            inner.shutdown = true;
            sh.parking.degrade();
            drop(inner);
            sh.parking.everyone();
        });
    }
}
