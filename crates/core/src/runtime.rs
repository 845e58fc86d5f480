//! The Consequence runtime: lifecycle, worker threads, report assembly —
//! and runtime supervision: every workload thread runs inside a panic
//! boundary (containment, not crash), and a watchdog thread turns silent
//! deadlocks into diagnoses.

use std::fmt::Write as _;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmt_api::{
    Addr, BarrierId, CommonConfig, CondId, Job, MutexId, RunReport, Runtime, RwLockId, Tid,
};

use crate::ctx::Ctx;
use crate::options::Options;
use crate::shared::{BarrierSt, CondSt, Inner, Msg, MutexSt, Objs, RwSt, Shared, ThreadSt};

/// A deterministic multithreading runtime with TSO consistency.
///
/// Construct with [`ConsequenceRuntime::new`], create synchronization
/// objects and initialize the heap, then call [`Runtime::run`] once.
///
/// # Examples
///
/// ```
/// use consequence::{ConsequenceRuntime, Options};
/// use dmt_api::{CommonConfig, Runtime, RuntimeMemExt, ThreadCtx};
///
/// let mut rt = ConsequenceRuntime::new(CommonConfig::default(), Options::consequence_ic());
/// rt.init_u64(0, 41);
/// let report = rt.run(Box::new(|ctx| {
///     let v = ctx.ld_u64(0);
///     ctx.st_u64(0, v + 1);
/// }));
/// assert_eq!(rt.final_u64(0), 42);
/// assert!(report.virtual_cycles > 0);
/// ```
pub struct ConsequenceRuntime {
    sh: Arc<Shared>,
    name: &'static str,
    ran: bool,
}

impl ConsequenceRuntime {
    /// Creates a runtime with the given configuration and options.
    pub fn new(cfg: CommonConfig, opts: Options) -> ConsequenceRuntime {
        let name = match (opts.order, opts.single_global_lock) {
            (det_clock::OrderPolicy::InstructionCount, _) => "consequence-ic",
            (det_clock::OrderPolicy::RoundRobin, false) => "consequence-rr",
            (det_clock::OrderPolicy::RoundRobin, true) => "dwc",
        };
        ConsequenceRuntime {
            sh: Shared::new(cfg, opts),
            name,
            ran: false,
        }
    }

    /// The active options (for tests and harnesses).
    pub fn options(&self) -> &Options {
        &self.sh.opts
    }

    /// Adds a synchronization object to its list, returning its index.
    fn create<T>(&mut self, list: fn(&mut Inner) -> &mut Vec<T>, obj: T) -> u32 {
        self.assert_not_started();
        let mut inner = self.sh.lock();
        let list = list(&mut inner);
        list.push(obj);
        list.len() as u32 - 1
    }

    fn assert_not_started(&self) {
        assert!(
            !self.sh.lock().started,
            "objects must be created before run()"
        );
    }
}

impl Runtime for ConsequenceRuntime {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn create_mutex(&mut self) -> MutexId {
        MutexId(self.create(|i| &mut i.unstarted_objs().mutexes, MutexSt::default()))
    }

    fn create_cond(&mut self) -> CondId {
        CondId(self.create(|i| &mut i.unstarted_objs().conds, CondSt::default()))
    }

    fn create_rwlock(&mut self) -> RwLockId {
        RwLockId(self.create(|i| &mut i.unstarted_objs().rwlocks, RwSt::default()))
    }

    fn create_barrier(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0, "barrier needs at least one party");
        BarrierId(self.create(|i| &mut i.barriers, BarrierSt::new(parties)))
    }

    fn heap_len(&self) -> usize {
        self.sh.seg.len()
    }

    fn init_write(&mut self, addr: Addr, data: &[u8]) {
        self.assert_not_started();
        self.sh.seg.init_write(addr, data);
    }

    fn final_read(&self, addr: Addr, buf: &mut [u8]) {
        self.sh.seg.read_latest(addr, buf);
    }

    fn run(&mut self, main: Job) -> RunReport {
        assert!(!self.ran, "run() may only be called once");
        self.ran = true;
        let sh = Arc::clone(&self.sh);
        let start = Instant::now();

        // Register the main job as Tid(0).
        {
            let mut inner = sh.lock();
            inner.started = true;
            inner.next_tid = 1;
            inner.live = 1;
            inner.threads.push(ThreadSt::default());
            inner.table.register(Tid::MAIN, 0, 0);
        }
        // Supervision: the watchdog turns a silent hang (deadlock, lost
        // waiter, stalled clock) into a diagnosis. Dropping `stop` ends it.
        let (stop, stopped) = channel::<()>();
        let watchdog = sh.opts.watchdog_stall_ms.map(|ms| {
            let sh2 = Arc::clone(&sh);
            std::thread::spawn(move || watchdog_loop(sh2, ms, stopped))
        });

        let (ws, _mapped) = sh.seg.new_workspace(Tid::MAIN);
        Ctx::new(&sh, Tid::MAIN, ws, 0, 0, None).run_job(|ctx| main(ctx));

        // Wait for every spawned thread to finish — a pooled worker parks
        // itself back in the pool before it retires, and one that leaves
        // quietly ends its loop — then shut down. On watchdog shutdown, blocked threads unwind as they observe the
        // flag; threads in pure compute can never observe it, so after a
        // bounded grace period they are abandoned (handles not joined).
        let (closed, threads, fault, panics, stuck) = {
            let mut inner = sh.lock();
            let mut grace = 0u32;
            let mut stuck = false;
            while inner.live > 0 {
                let poll = inner.shutdown.then_some(Duration::from_millis(100));
                if inner.wait(Tid::MAIN, poll) {
                    grace += 1;
                    if grace >= 20 {
                        stuck = true;
                        break;
                    }
                }
            }
            for entry in inner.pool.drain(..) {
                let _ = entry.tx.send(Msg::Shutdown);
            }
            let handles = std::mem::take(&mut inner.handles);
            let out = (
                std::mem::take(&mut inner.closed),
                inner.next_tid,
                inner.fault.take(),
                std::mem::take(&mut inner.panics),
                stuck,
            );
            drop(inner);
            if !stuck {
                for h in handles {
                    let _ = h.join();
                }
            }
            out
        };
        drop(stop);
        if let Some(h) = watchdog {
            let _ = h.join();
        }
        if stuck {
            eprintln!("[conseq] abandoning threads that never observed shutdown");
        }

        let mut report = RunReport::new(&sh.cfg, start, closed, threads);
        (report.peak_pages, report.peak_versions) = sh.seg.harvest(&mut report.counters);
        report.peak_clock_history = sh.lock().table.peak_history_len();
        report.commit_log_hash = sh.seg.log_hash();
        report.panics = panics;
        report.fault = fault.or(report.fault);
        report
    }
}

/// Spawns a worker OS thread and returns the channel to hand it jobs.
/// Called with the runtime lock held (the worker blocks on its receiver
/// first, so it cannot deadlock against the caller).
pub(crate) fn spawn_worker(sh: &Arc<Shared>, inner: &mut Inner) -> Sender<Msg> {
    let (tx, rx): (Sender<Msg>, Receiver<Msg>) = channel();
    let sh2 = Arc::clone(sh);
    let self_tx = tx.clone();
    let handle = std::thread::spawn(move || worker_loop(sh2, rx, self_tx));
    inner.handles.push(handle);
    tx
}

fn worker_loop(sh: Arc<Shared>, rx: Receiver<Msg>, self_tx: Sender<Msg>) {
    // Without pooling, drop our own sender so the channel disconnects once
    // the single spawner's sender is gone, ending the loop.
    let self_tx = sh.opts.thread_pool.then_some(self_tx);
    while let Ok(Msg::Start {
        tid,
        job,
        clock,
        v,
        ws,
    }) = rx.recv()
    {
        let ctx = Ctx::new(&sh, tid, ws, clock, v, self_tx.clone());
        ctx.run_job(|ctx| {
            // Under round-robin ordering a newborn thread holds a rotation
            // slot it will not use until its first synchronization
            // operation, which would serialize the spawner behind this
            // thread's first chunk (real DThreads children rendezvous with
            // the runtime at birth). A null sync op at birth keeps the
            // rotation moving — inside the panic boundary too: the
            // rendezvous can itself unwind on shutdown or injected faults.
            if sh.opts.order == det_clock::OrderPolicy::RoundRobin {
                ctx.birth_sync();
            }
            job(ctx);
        });
    }
}

/// The supervisor: polls the token-grant counter and, when no logical
/// progress happens for `stall_ms` while threads are live, diagnoses a
/// deadlock — emits a full runtime census as
/// [`dmt_api::DmtError::Deadlock`] and shuts the run down instead of
/// hanging.
fn watchdog_loop(sh: Arc<Shared>, stall_ms: u64, stopped: Receiver<()>) {
    let poll = Duration::from_millis((stall_ms / 4).clamp(10, 250));
    let stall = Duration::from_millis(stall_ms);
    let mut last_seq = 0u64;
    let mut last_change = Instant::now();
    loop {
        if stopped.recv_timeout(poll) != Err(RecvTimeoutError::Timeout) {
            return;
        }
        let mut inner = sh.lock();
        if inner.shutdown {
            return;
        }
        if inner.live == 0 || inner.grant_seq != last_seq {
            last_seq = inner.grant_seq;
            last_change = Instant::now();
            continue;
        }
        if last_change.elapsed() < stall {
            continue;
        }
        // No token grant for a full stall window with live threads: the
        // workload is deadlocked, or the runtime lost a waiter. Either way
        // the census says who waits on what.
        let report = diagnose(&inner, "no logical progress (deadlock suspected)");
        eprintln!("{report}");
        inner.fault = Some(report);
        inner.shutdown = true;
        inner.wakes.all = true;
        return;
    }
}

/// Renders a census of the stalled runtime: who holds the token, who waits
/// on what, and the state of every sync object — the diagnosis a hung run
/// would otherwise never yield.
fn diagnose(inner: &Inner, cause: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "[conseq] watchdog: {cause}");
    let holder = inner.last_entrant.filter(|_| inner.token.is_none());
    let _ = writeln!(
        s,
        "[conseq] token={holder:?} last_entrant={:?} grants={} live={}",
        inner.last_entrant, inner.grant_seq, inner.live
    );
    let _ = writeln!(
        s,
        "[conseq] clock table census (running, at_sync, departed)={:?}",
        inner.table.census()
    );
    for (i, t) in inner.threads.iter().enumerate() {
        if t.finished && t.joiners.is_empty() {
            continue;
        }
        let tid = Tid(i as u32);
        let _ = writeln!(
            s,
            "[conseq]   t{i}: state={:?} published={} finished={} panicked={} wake={} \
             wake_err={:?} joiners={:?}",
            inner.table.state(tid),
            inner.table.published(tid),
            t.finished,
            t.panicked,
            t.wake,
            t.wake_err,
            t.joiners
        );
    }
    match &inner.token {
        Some(objs) => census_objs(&mut s, objs),
        // Only the token holder that carries them may read them.
        None => {
            let holder = holder.map_or("nobody".into(), |t| format!("t{}", t.0));
            let _ = writeln!(s, "[conseq]   sync objects carried by {holder}");
        }
    }
    for (i, b) in inner.barriers.iter().enumerate() {
        if !b.arrived.is_empty() || b.broken {
            let _ = writeln!(
                s,
                "[conseq]   barrier {i}: parties={} arrived={:?} phase={:?} broken={}",
                b.parties, b.arrived, b.phase, b.broken
            );
        }
    }
    for (t, msg) in &inner.panics {
        let _ = writeln!(s, "[conseq]   contained panic on {t:?}: {msg}");
    }
    s
}

/// The census lines of the mutexes, condition variables and rwlocks that
/// somebody holds, waits on or poisoned.
fn census_objs(s: &mut String, objs: &Objs) {
    for (i, m) in objs.mutexes.iter().enumerate() {
        if m.owner.is_some() || !m.waiters.is_empty() || m.poisoned.is_some() {
            let _ = writeln!(
                s,
                "[conseq]   mutex {i}: owner={:?} waiters={:?} poisoned={:?}",
                m.owner, m.waiters, m.poisoned
            );
        }
    }
    for (i, c) in objs.conds.iter().enumerate() {
        if !c.waiters.is_empty() {
            let _ = writeln!(s, "[conseq]   cond {i}: waiters={:?}", c.waiters);
        }
    }
    for (i, r) in objs.rwlocks.iter().enumerate() {
        if r.writer.is_some()
            || !r.readers.is_empty()
            || !r.waiters.is_empty()
            || r.poisoned.is_some()
        {
            let _ = writeln!(
                s,
                "[conseq]   rwlock {i}: writer={:?} readers={:?} waiters={:?} poisoned={:?}",
                r.writer, r.readers, r.waiters, r.poisoned
            );
        }
    }
}
