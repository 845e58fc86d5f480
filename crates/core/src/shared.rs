//! Shared runtime state: the global coordination structures every
//! Consequence thread mutates under one lock, and the synchronization
//! objects that travel with the token.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use dmt_api::sync::{Mutex, MutexGuard};

use conversion::{ParallelCommit, Segment, Workspace};
use det_clock::SchedTable;
use dmt_api::{Breakdown, CommonConfig, Counters, DmtError, Job, MutexId, Tid};

use crate::coarsen::Ewma;
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

/// The mutexes, condition variables and rwlocks: the state a token holder
/// reads and changes, and nobody else. They travel with the token: they
/// sit in [`Inner::objs`] while it is free and in the holder's `Ctx` while
/// it is held (`Ctx::acquire_token` takes them, `Ctx::release` puts them
/// back), so an operation on them takes no lock.
#[derive(Debug, Default)]
pub(crate) struct Objs {
    pub mutexes: Vec<MutexSt>,
    pub conds: Vec<CondSt>,
    pub rwlocks: Vec<RwSt>,
}

impl Objs {
    /// Removes `t` from every wait queue, and from every rwlock's reader
    /// list (a quiet exit: `Ctx::abort_quiet`).
    pub fn purge(&mut self, t: Tid) {
        for m in &mut self.mutexes {
            m.waiters.retain(|w| *w != t);
        }
        for c in &mut self.conds {
            c.waiters.retain(|(w, _)| *w != t);
        }
        for r in &mut self.rwlocks {
            r.waiters.retain(|(w, _)| *w != t);
            r.readers.retain(|w| *w != t);
        }
    }
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
///
/// Two things protect the runtime's state. The runtime lock protects
/// everything here: the clock table, the token's owner, the per-thread
/// wake flags, the barriers, the pool and the run's bookkeeping — all of
/// which threads that do not hold the token read or change too (a
/// publication, an arrival, a sleeper's predicate, the watchdog). The
/// token protects the [`Objs`] and the holder's view of memory: only its
/// holder commits, and only its holder touches a mutex, condition variable
/// or rwlock, so these move with it instead of being locked.
pub(crate) struct Inner {
    pub table: SchedTable,
    pub token: Option<Tid>,
    /// Clock of the last thread to release the token (§3.5 fast-forward).
    pub last_release_clock: u64,
    /// Virtual time of the last token release (wake-edge chaining).
    pub last_release_v: u64,
    /// Previous entrant into global coordination (coarsening MIMD signal).
    pub last_entrant: Option<Tid>,
    /// The synchronization objects while the token is free; `None` while
    /// its holder carries them.
    pub objs: Option<Box<Objs>>,
    /// Threads that left quietly while the holder carried the objects:
    /// their purge waits here for the holder, which applies it before it
    /// next pops a queue and when it puts the objects back.
    pub quiet_exits: Vec<Tid>,
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
    /// Threads asleep in [`Held::wait`].
    pub waiters: Vec<Tid>,
}

impl Inner {
    /// The objects of a runtime not yet started, which nobody can carry.
    // INVARIANT: only `ConsequenceRuntime`'s object constructors call this,
    // and they refuse to run after `run` began: before it nobody can hold
    // the token, so the objects are free.
    #[allow(clippy::expect_used)]
    pub fn unstarted_objs(&mut self) -> &mut Objs {
        self.objs.as_deref_mut().expect("free before run")
    }

    /// Applies the queued purges to the objects a holder carries: before
    /// it pops one of their queues, and before it puts them back.
    pub fn purge_quiet_exits(&mut self, objs: &mut Objs) {
        for t in self.quiet_exits.drain(..) {
            objs.purge(t);
        }
    }

    /// Takes back the objects a holder carried, purged.
    pub fn put_objs(&mut self, mut objs: Option<Box<Objs>>) {
        if let Some(objs) = objs.as_deref_mut() {
            self.purge_quiet_exits(objs);
        }
        self.objs = objs;
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
/// [`Parking::everyone`] is for four occasions, never a policy.
///
/// Wake timing cannot change the schedule: eligibility is a monotone
/// predicate of published clocks with a unique minimum, so a missed or
/// extra wake only moves real time, never the grant order.
pub(crate) struct Parking {
    /// The OS thread running each `Tid`, set once when its `Ctx` starts.
    threads: Box<[OnceLock<Thread>]>,
}

impl Parking {
    fn new(max_threads: usize) -> Parking {
        Parking {
            threads: (0..max_threads).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Makes the calling OS thread the one an unpark of `tid` reaches.
    pub fn register(&self, tid: Tid) {
        let _ = self.threads[tid.index()].set(std::thread::current());
    }

    /// Rule 1: never under a lock. A tid nobody registered is nobody to
    /// wake: [`Parking::everyone`] walks every slot.
    fn unpark(&self, w: Tid) {
        debug_assert_eq!(dmt_api::sync::held(), 0, "unpark under a lock");
        if let Some(t) = self.threads.get(w.index()).and_then(OnceLock::get) {
            t.unpark();
        }
    }

    /// Unparks every registered thread, whatever it waits for: the
    /// delivery of [`Wakes::all`], which the watchdog's shutdown,
    /// `abort_quiet`, the spurious-wake injection in `Ctx::doze` and a
    /// ninth distinct wake of one lock section ([`Wakes::push`]) request.
    fn everyone(&self) {
        (0..self.threads.len()).for_each(|i| self.unpark(Tid(i as u32)));
    }

    /// How many threads [`Parking::everyone`] reaches.
    fn registered(&self) -> u64 {
        self.threads.iter().filter(|t| t.get().is_some()).count() as u64
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
    /// the one thread that may take it next, the table's
    /// [`successor`](SchedTable::successor).
    #[inline]
    pub fn wake_successor(&mut self, me: Tid) {
        if self.token.is_some() {
            return;
        }
        if let Some(w) = self.table.successor().filter(|w| *w != me) {
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
        if let Some(inner) = self.guard.as_mut() {
            inner.counters.unparks += if self.wakes.all {
                self.sh.parking.registered()
            } else {
                self.wakes.n as u64
            };
        }
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
        self.counters.parks += 1;
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

    pub fn new(cfg: CommonConfig, opts: Options) -> Arc<Shared> {
        let mut seg = Segment::new(cfg.heap_pages, cfg.max_threads);
        seg.set_perturb(cfg.perturb.clone());
        // Preallocate per-thread vectors to their max_threads-derived
        // bounds so hot paths never reallocate.
        let max_t = cfg.max_threads;
        Arc::new(Shared {
            inner: Mutex::new(Inner {
                table: SchedTable::with_policy(opts.order, max_t),
                token: None,
                last_release_clock: 0,
                last_release_v: 0,
                last_entrant: None,
                objs: Some(Box::default()),
                quiet_exits: Vec::new(),
                barriers: Vec::new(),
                threads: Vec::with_capacity(max_t),
                next_tid: 0,
                live: 0,
                pool: Vec::with_capacity(max_t),
                handles: Vec::with_capacity(max_t),
                reports: Vec::with_capacity(max_t),
                counters: Counters::default(),
                max_exit_v: 0,
                started: false,
                grant_seq: 0,
                shutdown: false,
                fault: None,
                panics: Vec::new(),
                waiters: Vec::with_capacity(max_t),
            }),
            parking: Parking::new(max_t),
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
        Shared::new(CommonConfig::default(), Options::consequence_ic())
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
    fn a_release_wakes_the_successor_and_never_itself() {
        let sh = shared();
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
        // A free token wakes the table's successor...
        assert_eq!(woken(&mut inner, 0), [1]);
        // ...never the releaser itself, and nobody while the token is held.
        assert_eq!(woken(&mut inner, 1), []);
        inner.token = Some(Tid(0));
        assert_eq!(woken(&mut inner, 0), []);
    }

    #[test]
    fn everyone_reaches_a_thread_that_slept_before_the_shutdown() {
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
            drop(inner);
            sh.parking.everyone();
        });
    }
}
