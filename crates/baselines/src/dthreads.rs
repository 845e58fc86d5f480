//! The DThreads baseline: round-robin ordering with **synchronous** commits.
//!
//! DThreads (Liu et al., SOSP 2011) divides execution into parallel phases
//! separated by global rendezvous: at every synchronization operation a
//! thread waits until *all* running threads reach a synchronization point
//! (the Figure 1b waiting pathology), then the arrived threads commit and
//! perform their operations **serially in thread-id order** (the Figure 3a
//! synchronous-commit pathology), then everyone updates and the next
//! parallel phase begins. All mutexes alias a single global lock, which the
//! paper calls out as DThreads' locking model.
//!
//! Isolation reuses the [`conversion`] segment — DThreads' `mprotect`-based
//! copy-on-write and twin/diff commit are algorithmically the same
//! mechanism, differing only in trap cost, which the cost model already
//! prices via `fault`/`page_commit`.
//!
//! Blocking operations (contended lock, condition wait, barrier, join) hand
//! off deterministically: a blocked thread leaves the fence population and
//! is re-admitted by the serial operation that wakes it, so fence
//! membership — and therefore the whole execution — is a deterministic
//! function of the program.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use dmt_api::sync::{Condvar, Mutex};

use conversion::{Segment, Workspace};
use dmt_api::trace::Event;
use dmt_api::{
    Addr, BarrierId, Closed, CommonConfig, CondId, CostModel, Job, Ledger, MutexId, PerturbSite,
    Row, RunReport, Runtime, RwLockId, ThreadCtx, Tid,
};

#[derive(Debug, Default)]
struct DtThread {
    wake: bool,
    wake_v: u64,
    /// Version to update to on wake (recorded by the waker, so update work
    /// is a deterministic function of the serial order).
    wake_version: u64,
    arrival_v: u64,
    joiners: Vec<Tid>,
    finished: bool,
    exit_v: u64,
}

struct DtBarrier {
    parties: usize,
    waiting: Vec<Tid>,
}

struct DtInner {
    // Fence machinery.
    arrived: Vec<Tid>,
    running: u32,
    serial: bool,
    serial_order: Vec<Tid>,
    serial_idx: usize,
    chain_v: u64,
    fence_gen: u64,
    open_v: u64,
    /// Version committed when the current fence closed.
    open_version: u64,
    /// Serial ops of the current phase whose threads continue past it.
    resume_count: u32,
    // The single global lock every mutex aliases.
    lock_owner: Option<Tid>,
    lock_waiters: VecDeque<Tid>,
    /// Global-lock grants so far (trace tickets).
    lock_tickets: u64,
    conds: Vec<VecDeque<Tid>>,
    n_mutexes: u32,
    n_rwlocks: u32,
    barriers: Vec<DtBarrier>,
    threads: Vec<DtThread>,
    next_tid: u32,
    live: u32,
    handles: Vec<std::thread::JoinHandle<()>>,
    closed: Closed,
    started: bool,
}

struct DtShared {
    cfg: CommonConfig,
    seg: Segment,
    inner: Mutex<DtInner>,
    cv: Condvar,
}

/// What the serial-phase operation decided for the calling thread.
enum Outcome {
    /// Proceed into the next parallel phase.
    Continue,
    /// Blocked (lock queue, condition queue, barrier, join): wait for an
    /// explicit wake instead of the fence opening.
    Block,
    /// The thread exited.
    Exit,
}

/// Per-thread DThreads context. A perturbation hit moves virtual time
/// only: fence membership is the running set and serial order is sorted
/// by tid, so arrival timing cannot move the schedule.
struct DtCtx {
    sh: Arc<DtShared>,
    tid: Tid,
    ws: Option<Workspace>,
    clock: u64,
    led: Ledger,
    cost: CostModel,
    /// Children created but not yet admitted to the fence population;
    /// they start at this thread's next non-spawn serial turn, batching
    /// consecutive creates into one phase as real DThreads does.
    pending_children: Vec<Tid>,
}

impl DtCtx {
    fn new(sh: Arc<DtShared>, tid: Tid, ws: Workspace, v: u64) -> DtCtx {
        DtCtx {
            led: Ledger::new(&sh.cfg, tid, v),
            cost: sh.cfg.cost,
            sh,
            tid,
            ws: Some(ws),
            clock: 0,
            pending_children: Vec::new(),
        }
    }

    fn ws(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present")
    }

    /// Advances the logical clock and virtual time for a memory access.
    fn access(&mut self, bytes: usize) {
        self.clock += bytes.div_ceil(8) as u64;
        self.led.charge(Row::chunk, self.cost.mem_access(bytes));
    }

    /// Commits this thread's dirty pages; must run inside the serial phase.
    /// DThreads isolates with `mprotect()`, so every commit also pays to
    /// re-protect the thread's whole mapping — the cost Conversion's
    /// kernel support (DWC, Consequence) eliminates.
    fn commit(&mut self) {
        let sh = Arc::clone(&self.sh);
        let mapped = self.ws().num_pages() as u64;
        let cr = sh.seg.commit(self.ws(), None);
        // Commits happen at the thread's serial turn: schedule events.
        self.led.emit(Event::Commit {
            tid: self.tid,
            version: cr.version,
            pages: cr.pages,
            merged: cr.merged,
            page_set: cr.page_set,
        });
        let c = self.cost.commit_base
            + mapped * self.cost.page_protect
            + cr.pages as u64 * self.cost.page_commit
            + cr.merged as u64 * self.cost.page_merge;
        self.led.charge(Row::commit, c);
    }

    /// Pulls committed state up to a recorded version (on leaving a fence
    /// or waking). Updating to an exact version keeps the work — and thus
    /// virtual time — independent of racing later commits.
    fn update(&mut self, upto: u64) {
        let sh = Arc::clone(&self.sh);
        let ur = sh.seg.update_to(self.ws(), upto);
        // Updates run in the parallel phase, racing each other in real
        // time: auxiliary (counted by the ledger, never hashed).
        self.led.emit_as(
            Event::Update {
                tid: self.tid,
                version: ur.new_base,
                pages: ur.pages_propagated,
            },
            false,
        );
        let u = self.cost.update_base + ur.pages_propagated * self.cost.page_update;
        self.led.charge(Row::update, u);
        // Updates race each other in real time, so how much reclaimable
        // work this particular call finds is nondeterministic — the
        // collector's work cannot be charged to this thread's virtual
        // clock (unlike Consequence, whose collector runs under the
        // token). Totals are harvested from the segment at report time.
        sh.seg.gc(self.sh.cfg.gc_budget);
    }

    /// The DThreads rendezvous: wait for all running threads, commit and
    /// act in tid order, then either continue past the fence or block.
    /// `op` runs at this thread's serial turn with the runtime lock held.
    /// Returns the spawned tid for spawn operations.
    fn fence_op(
        &mut self,
        op: impl FnOnce(&mut DtCtx, &mut DtInner) -> (Outcome, Option<Tid>),
    ) -> Option<Tid> {
        self.fence_op_ex(false, op)
    }

    fn fence_op_ex(
        &mut self,
        is_spawn: bool,
        op: impl FnOnce(&mut DtCtx, &mut DtInner) -> (Outcome, Option<Tid>),
    ) -> Option<Tid> {
        self.led.charge(Row::lib, self.cost.sync_op);
        // Fence-arrival delay: a straggler reaching the rendezvous late.
        // The fence cannot start until every running thread arrives, so
        // only waiting time stretches.
        self.led.perturb(PerturbSite::Fence);
        let sh = Arc::clone(&self.sh);
        let mut inner = sh.inner.lock();

        // Arrive at the fence. Late arrivals (threads woken mid-serial)
        // simply queue for the next phase.
        inner.running -= 1;
        inner.arrived.push(self.tid);
        inner.threads[self.tid.index()].arrival_v = self.led.v();
        Self::try_start_serial(&mut inner);
        sh.cv.notify_all();

        // Wait for my serial turn.
        loop {
            if inner.serial && inner.serial_order.get(inner.serial_idx) == Some(&self.tid) {
                break;
            }
            if sh.cfg.perturb.spurious_wake(self.tid) {
                // Spurious wake injection: serial-turn waiters re-check the
                // turn predicate and go back to sleep.
                sh.cv.notify_all();
            }
            sh.cv.wait(&mut inner);
        }
        let my_gen = inner.fence_gen;
        self.led.wait_until(Row::determ_wait, inner.chain_v);
        // The serial turn is DThreads' analog of the token grant.
        self.led.emit(Event::TokenAcquire {
            tid: self.tid,
            clock: self.clock,
        });

        // Serial work: synchronous commit, then the operation itself.
        drop(inner);
        self.commit();
        let mut inner = sh.inner.lock();
        if !is_spawn && !self.pending_children.is_empty() {
            // Admit the batched children to the fence population now, at a
            // deterministic point (this thread's serial turn).
            let ver = sh.seg.latest_id();
            for child in self.pending_children.drain(..) {
                inner.running += 1;
                sh.seg.pin(ver);
                let st = &mut inner.threads[child.index()];
                st.wake = true;
                st.wake_v = self.led.v();
                st.wake_version = ver;
            }
        }
        let (outcome, spawned) = op(self, &mut inner);
        if matches!(outcome, Outcome::Block) {
            self.led.emit(Event::Depart {
                tid: self.tid,
                clock: self.clock,
            });
        }
        self.led.emit(Event::TokenRelease {
            tid: self.tid,
            clock: self.clock,
        });
        inner.chain_v = inner.chain_v.max(self.led.v());
        inner.serial_idx += 1;
        if matches!(outcome, Outcome::Continue) {
            inner.resume_count += 1;
        }

        // Close the fence after the last serial op: re-admit the
        // continuing threads to the parallel population *before* deciding
        // whether a next phase can start, so phase membership stays
        // deterministic.
        if inner.serial_idx == inner.serial_order.len() {
            inner.serial = false;
            inner.open_v = inner.chain_v;
            inner.open_version = sh.seg.latest_id();
            // One pin per continuing thread that will update to this point.
            for _ in 0..inner.resume_count {
                sh.seg.pin(inner.open_version);
            }
            inner.fence_gen += 1;
            inner.running += inner.resume_count;
            inner.resume_count = 0;
            inner.serial_order.clear();
            Self::try_start_serial(&mut inner);
        }
        sh.cv.notify_all();

        match outcome {
            Outcome::Exit => {}
            Outcome::Continue => {
                // Wait for my phase to open, then resync memory.
                while inner.fence_gen == my_gen {
                    sh.cv.wait(&mut inner);
                }
                self.led.wait_until(Row::determ_wait, inner.open_v);
                let upto = inner.open_version;
                drop(inner);
                // Parallel-phase delay: updates race in real time anyway
                // (their events are auxiliary), and `update_to` pins the
                // exact version, so a slow updater changes nothing.
                self.led.perturb(PerturbSite::Fence);
                self.update(upto);
                sh.seg.unpin(upto);
            }
            Outcome::Block => {
                loop {
                    if inner.threads[self.tid.index()].wake {
                        break;
                    }
                    sh.cv.wait(&mut inner);
                }
                let st = &mut inner.threads[self.tid.index()];
                st.wake = false;
                self.led.wait_until(Row::determ_wait, st.wake_v);
                let upto = st.wake_version;
                drop(inner);
                // The waker pre-counted us into `running`.
                self.update(upto);
                sh.seg.unpin(upto);
            }
        }
        spawned
    }

    /// Starts a serial phase when no thread remains in the parallel phase.
    fn try_start_serial(inner: &mut DtInner) {
        if inner.running == 0 && !inner.serial && !inner.arrived.is_empty() {
            inner.serial = true;
            let mut order = std::mem::take(&mut inner.arrived);
            order.sort_unstable();
            inner.chain_v = inner.chain_v.max(
                order
                    .iter()
                    .map(|t| inner.threads[t.index()].arrival_v)
                    .max()
                    .unwrap_or(0),
            );
            inner.serial_order = order;
            inner.serial_idx = 0;
        }
    }

    /// Deterministic atomic RMW: performed at this thread's serial turn on
    /// the freshly updated state and committed immediately, so sibling
    /// atomics in the same phase observe it.
    fn atomic_rmw(&mut self, addr: usize, f: impl FnOnce(u64) -> u64) -> u64 {
        let mut out = 0;
        let fp = &mut out;
        self.fence_op(move |me, _inner| {
            let upto = me.sh.seg.latest_id();
            me.update(upto);
            let old = me.ws().ld_u64(addr);
            me.ws().st_u64(addr, f(old));
            me.access(16);
            me.commit();
            *fp = old;
            (Outcome::Continue, None)
        });
        out
    }

    /// Acquires the single global lock every mutex (and rwlock) aliases.
    fn global_lock(&mut self) {
        self.fence_op(|me, inner| {
            if inner.lock_owner.is_none() && inner.lock_waiters.is_empty() {
                inner.lock_owner = Some(me.tid);
                inner.lock_tickets += 1;
                me.led.emit(Event::MutexLock {
                    tid: me.tid,
                    mutex: MutexId(0),
                    ticket: inner.lock_tickets,
                });
                (Outcome::Continue, None)
            } else {
                inner.lock_waiters.push_back(me.tid);
                me.led.emit(Event::MutexBlock {
                    tid: me.tid,
                    mutex: MutexId(0),
                });
                (Outcome::Block, None)
            }
        });
    }

    /// Releases the global lock with deterministic hand-off.
    fn global_unlock(&mut self) {
        self.fence_op(|me, inner| {
            assert_eq!(
                inner.lock_owner,
                Some(me.tid),
                "{} unlocking the global lock it does not hold",
                me.tid
            );
            // Deterministic hand-off to the earliest waiter.
            let woke = inner.lock_waiters.pop_front();
            me.led.emit(Event::MutexUnlock {
                tid: me.tid,
                mutex: MutexId(0),
                woke,
            });
            if let Some(w) = woke {
                inner.lock_owner = Some(w);
                inner.lock_tickets += 1;
                // Hand-off grant: the new owner never re-runs the lock
                // path, so its acquisition is recorded here.
                me.led.emit(Event::MutexLock {
                    tid: w,
                    mutex: MutexId(0),
                    ticket: inner.lock_tickets,
                });
                me.wake(inner, w);
            } else {
                inner.lock_owner = None;
            }
            (Outcome::Continue, None)
        });
    }

    /// Wakes `w` during a serial operation, re-admitting it to the
    /// parallel population. Caller holds the runtime lock.
    fn wake(&mut self, inner: &mut DtInner, w: Tid) {
        self.led.charge(Row::lib, self.cost.wakeup);
        inner.threads[w.index()].wake = true;
        inner.threads[w.index()].wake_v = self.led.v();
        // The waker has already committed this phase; the woken thread
        // syncs exactly to the current version. Pin it so the collector
        // cannot squash the target away before the wake is consumed.
        let ver = self.sh.seg.latest_id();
        self.sh.seg.pin(ver);
        inner.threads[w.index()].wake_version = ver;
        inner.running += 1;
    }

    fn finish(mut self) {
        self.fence_op(|me, inner| {
            let joiners = std::mem::take(&mut inner.threads[me.tid.index()].joiners);
            for j in joiners {
                me.wake(inner, j);
            }
            me.led.emit(Event::Exit {
                tid: me.tid,
                clock: me.clock,
            });
            let st = &mut inner.threads[me.tid.index()];
            st.finished = true;
            st.exit_v = me.led.v();
            inner.live -= 1;
            (Outcome::Exit, None)
        });
        let sh = Arc::clone(&self.sh);
        sh.seg.detach(self.tid);
        drop(self.ws.take());
        let mut inner = sh.inner.lock();
        inner.closed.file(&self.led);
        sh.cv.notify_all();
    }
}

impl ThreadCtx for DtCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, n: u64) {
        self.clock += n;
        self.led.charge(Row::chunk, n);
    }

    fn vtime(&self) -> u64 {
        self.led.v()
    }

    fn logical_clock(&self) -> u64 {
        self.clock
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.ws().read_bytes(addr, buf);
        self.access(buf.len());
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let f = self.ws().write_bytes(addr, data) as u64;
        self.led.faults(f, self.cost.fault);
        self.access(data.len());
    }

    fn ld_u64(&mut self, addr: Addr) -> u64 {
        let v = self.ws().ld_u64(addr);
        self.access(8);
        v
    }

    fn st_u64(&mut self, addr: Addr, val: u64) {
        let f = self.ws().st_u64(addr, val) as u64;
        self.led.faults(f, self.cost.fault);
        self.access(8);
    }

    fn mutex_lock(&mut self, m: MutexId) {
        assert!(m.0 < self.sh.inner.lock().n_mutexes, "unknown mutex {m}");
        self.global_lock();
    }

    fn mutex_unlock(&mut self, m: MutexId) {
        assert!(m.0 < self.sh.inner.lock().n_mutexes, "unknown mutex {m}");
        self.global_unlock();
    }

    fn cond_wait(&mut self, c: CondId, _m: MutexId) {
        self.fence_op(|me, inner| {
            assert_eq!(inner.lock_owner, Some(me.tid), "cond_wait without lock");
            me.led.emit(Event::CondWait {
                tid: me.tid,
                cond: c,
                mutex: MutexId(0),
            });
            let woke = inner.lock_waiters.pop_front();
            me.led.emit(Event::MutexUnlock {
                tid: me.tid,
                mutex: MutexId(0),
                woke,
            });
            if let Some(w) = woke {
                inner.lock_owner = Some(w);
                inner.lock_tickets += 1;
                me.led.emit(Event::MutexLock {
                    tid: w,
                    mutex: MutexId(0),
                    ticket: inner.lock_tickets,
                });
                me.wake(inner, w);
            } else {
                inner.lock_owner = None;
            }
            inner.conds[c.index()].push_back(me.tid);
            (Outcome::Block, None)
        });
        // Re-acquire the (global) lock on wake-up, as pthreads requires.
        self.mutex_lock(MutexId(0));
    }

    fn cond_signal(&mut self, c: CondId) {
        self.fence_op(|me, inner| {
            let woken = inner.conds[c.index()].pop_front();
            if let Some(w) = woken {
                me.wake(inner, w);
            }
            me.led.emit(Event::CondSignal {
                tid: me.tid,
                cond: c,
                woken,
            });
            (Outcome::Continue, None)
        });
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.fence_op(|me, inner| {
            let mut woken = 0u32;
            while let Some(w) = inner.conds[c.index()].pop_front() {
                me.wake(inner, w);
                woken += 1;
            }
            me.led.emit(Event::CondBroadcast {
                tid: me.tid,
                cond: c,
                woken,
            });
            (Outcome::Continue, None)
        });
    }

    fn barrier_wait(&mut self, b: BarrierId) {
        self.fence_op(|me, inner| {
            let gen = inner.fence_gen;
            me.led.emit(Event::BarrierArrive {
                tid: me.tid,
                barrier: b,
                gen,
            });
            let parties = inner.barriers[b.index()].parties;
            inner.barriers[b.index()].waiting.push(me.tid);
            if inner.barriers[b.index()].waiting.len() == parties {
                let woken = std::mem::take(&mut inner.barriers[b.index()].waiting);
                for w in woken {
                    if w != me.tid {
                        me.wake(inner, w);
                    }
                }
                me.led.emit(Event::BarrierOpen {
                    tid: me.tid,
                    barrier: b,
                    gen,
                    install_version: me.sh.seg.latest_id(),
                });
                (Outcome::Continue, None)
            } else {
                (Outcome::Block, None)
            }
        });
    }

    // DThreads aliases every lock to the single global lock, and an
    // exclusive lock is a legal (if slow) read-write lock.
    fn rw_read_lock(&mut self, l: RwLockId) {
        assert!(l.0 < self.sh.inner.lock().n_rwlocks, "unknown rwlock {l}");
        self.global_lock();
    }

    fn rw_read_unlock(&mut self, l: RwLockId) {
        assert!(l.0 < self.sh.inner.lock().n_rwlocks, "unknown rwlock {l}");
        self.global_unlock();
    }

    fn rw_write_lock(&mut self, l: RwLockId) {
        assert!(l.0 < self.sh.inner.lock().n_rwlocks, "unknown rwlock {l}");
        self.global_lock();
    }

    fn rw_write_unlock(&mut self, l: RwLockId) {
        assert!(l.0 < self.sh.inner.lock().n_rwlocks, "unknown rwlock {l}");
        self.global_unlock();
    }

    fn atomic_fetch_add_u64(&mut self, addr: Addr, v: u64) -> u64 {
        self.atomic_rmw(addr, |old| old.wrapping_add(v))
    }

    fn atomic_cas_u64(&mut self, addr: Addr, expect: u64, new: u64) -> u64 {
        self.atomic_rmw(addr, |old| if old == expect { new } else { old })
    }

    fn spawn(&mut self, job: Job) -> Tid {
        let mut job = Some(job);
        let spawned = self.fence_op_ex(true, move |me, inner| {
            assert!(
                (inner.next_tid as usize) < me.sh.cfg.max_threads,
                "thread limit exceeded"
            );
            let child = Tid(inner.next_tid);
            inner.next_tid += 1;
            inner.threads.push(DtThread::default());
            inner.live += 1;
            me.led.emit(Event::Spawn {
                parent: me.tid,
                child,
                pooled: false,
            });
            // The child is NOT yet part of the fence population: it starts
            // at this thread's next non-spawn serial turn, so back-to-back
            // creates batch into one phase instead of each waiting a full
            // rendezvous behind already-started workers.
            me.pending_children.push(child);
            // Fork cost: snapshot the page table for the child.
            let (ws, mapped) = me.sh.seg.new_workspace(child);
            me.led.charge(
                Row::lib,
                me.cost.spawn_base + mapped as u64 * me.cost.page_map,
            );
            let sh2 = Arc::clone(&me.sh);
            let job = job.take().expect("spawn job");
            let handle = std::thread::spawn(move || {
                // Wait for admission to the fence population.
                let (v0, upto) = {
                    let mut inner = sh2.inner.lock();
                    loop {
                        if inner.threads[child.index()].wake {
                            break;
                        }
                        sh2.cv.wait(&mut inner);
                    }
                    let st = &mut inner.threads[child.index()];
                    st.wake = false;
                    (st.wake_v, st.wake_version)
                };
                let mut ctx = DtCtx::new(sh2, child, ws, v0);
                ctx.update(upto);
                ctx.sh.seg.unpin(upto);
                job(&mut ctx);
                ctx.finish();
            });
            inner.handles.push(handle);
            (Outcome::Continue, Some(child))
        });
        spawned.expect("spawn returns a tid")
    }

    fn join(&mut self, t: Tid) {
        assert_ne!(t, self.tid, "thread joining itself");
        self.fence_op(|me, inner| {
            if inner.threads[t.index()].finished {
                me.led
                    .wait_until(Row::determ_wait, inner.threads[t.index()].exit_v);
                me.led.emit(Event::Join {
                    tid: me.tid,
                    target: t,
                });
                (Outcome::Continue, None)
            } else {
                inner.threads[t.index()].joiners.push(me.tid);
                (Outcome::Block, None)
            }
        });
    }
}

/// The DThreads runtime (round robin + synchronous fence commits + one
/// global lock).
pub struct DThreadsRuntime {
    sh: Arc<DtShared>,
    ran: bool,
}

impl DThreadsRuntime {
    /// Creates the runtime with a zeroed versioned heap.
    pub fn new(cfg: CommonConfig) -> DThreadsRuntime {
        let mut seg = Segment::new(cfg.heap_pages, cfg.max_threads);
        seg.set_perturb(cfg.perturb.clone());
        DThreadsRuntime {
            sh: Arc::new(DtShared {
                inner: Mutex::new(DtInner {
                    arrived: Vec::new(),
                    running: 0,
                    serial: false,
                    serial_order: Vec::new(),
                    serial_idx: 0,
                    chain_v: 0,
                    fence_gen: 0,
                    open_v: 0,
                    open_version: 0,
                    resume_count: 0,
                    lock_owner: None,
                    lock_waiters: VecDeque::new(),
                    lock_tickets: 0,
                    conds: Vec::new(),
                    n_mutexes: 0,
                    n_rwlocks: 0,
                    barriers: Vec::new(),
                    threads: Vec::new(),
                    next_tid: 0,
                    live: 0,
                    handles: Vec::new(),
                    closed: Closed::default(),
                    started: false,
                }),
                cv: Condvar::new(),
                cfg,
                seg,
            }),
            ran: false,
        }
    }
}

impl Runtime for DThreadsRuntime {
    fn name(&self) -> &'static str {
        "dthreads"
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn create_mutex(&mut self) -> MutexId {
        let mut inner = self.sh.inner.lock();
        assert!(!inner.started, "objects must be created before run()");
        inner.n_mutexes += 1;
        MutexId(inner.n_mutexes - 1)
    }

    fn create_cond(&mut self) -> CondId {
        let mut inner = self.sh.inner.lock();
        assert!(!inner.started, "objects must be created before run()");
        inner.conds.push(VecDeque::new());
        CondId(inner.conds.len() as u32 - 1)
    }

    fn create_rwlock(&mut self) -> RwLockId {
        let mut inner = self.sh.inner.lock();
        assert!(!inner.started, "objects must be created before run()");
        inner.n_rwlocks += 1;
        RwLockId(inner.n_rwlocks - 1)
    }

    fn create_barrier(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0, "barrier needs at least one party");
        let mut inner = self.sh.inner.lock();
        assert!(!inner.started, "objects must be created before run()");
        inner.barriers.push(DtBarrier {
            parties,
            waiting: Vec::new(),
        });
        BarrierId(inner.barriers.len() as u32 - 1)
    }

    fn heap_len(&self) -> usize {
        self.sh.seg.len()
    }

    fn init_write(&mut self, addr: Addr, data: &[u8]) {
        let inner = self.sh.inner.lock();
        assert!(!inner.started, "init_write after run()");
        drop(inner);
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
        {
            let mut inner = sh.inner.lock();
            inner.started = true;
            inner.next_tid = 1;
            inner.live = 1;
            inner.running = 1;
            inner.threads.push(DtThread::default());
        }
        let (ws, _) = sh.seg.new_workspace(Tid::MAIN);
        let mut ctx = DtCtx::new(Arc::clone(&sh), Tid::MAIN, ws, 0);
        main(&mut ctx);
        ctx.finish();

        let (closed, threads) = {
            let mut inner = sh.inner.lock();
            while inner.live > 0 {
                sh.cv.wait(&mut inner);
            }
            let handles = std::mem::take(&mut inner.handles);
            drop(inner);
            for h in handles {
                let _ = h.join();
            }
            let mut inner = sh.inner.lock();
            (std::mem::take(&mut inner.closed), inner.next_tid)
        };
        let mut report = RunReport::new(&sh.cfg, start, closed, threads);
        (report.peak_pages, report.peak_versions) = sh.seg.harvest(&mut report.counters);
        report.commit_log_hash = sh.seg.log_hash();
        report
    }
}
