//! The nondeterministic pthreads baseline.
//!
//! Real OS threads, real locks, flat shared memory. Data-raced accesses go
//! through relaxed atomics (cost-equivalent to the plain loads/stores a C
//! program would use, and sound Rust). Virtual time is accounted the same
//! way as in the deterministic runtimes — work and memory cycles plus small
//! lock/barrier costs, with `max()` chaining along wake edges — but the
//! chaining follows whatever order the OS scheduler happened to produce, so
//! both results and virtual times may vary across runs. That variability is
//! the point of the baseline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmt_api::sync::{Condvar, Mutex};

use dmt_api::trace::Event;
use dmt_api::{
    Addr, BarrierId, Breakdown, CommonConfig, CondId, CostModel, Counters, Job, MutexId,
    PerturbSite, RunReport, Runtime, RwLockId, ThreadCtx, Tid,
};

/// Word-addressed shared memory. Bytes are packed little-endian into
/// relaxed `AtomicU64` words, so racy access is well-defined (and cheap).
struct SharedMem {
    words: Vec<AtomicU64>,
}

impl SharedMem {
    fn new(bytes: usize) -> SharedMem {
        SharedMem {
            words: (0..bytes.div_ceil(8)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.words.len() * 8
    }

    fn read(&self, addr: Addr, buf: &mut [u8]) {
        assert!(addr + buf.len() <= self.len(), "read out of bounds");
        for (i, b) in buf.iter_mut().enumerate() {
            let a = addr + i;
            let w = self.words[a / 8].load(Ordering::Relaxed);
            *b = (w >> ((a % 8) * 8)) as u8;
        }
    }

    fn write(&self, addr: Addr, data: &[u8]) {
        assert!(addr + data.len() <= self.len(), "write out of bounds");
        let mut i = 0;
        while i < data.len() {
            let a = addr + i;
            let word = a / 8;
            let off = a % 8;
            let n = (8 - off).min(data.len() - i);
            let mut mask = 0u64;
            let mut val = 0u64;
            for k in 0..n {
                mask |= 0xffu64 << ((off + k) * 8);
                val |= (data[i + k] as u64) << ((off + k) * 8);
            }
            // Read-modify-write of the containing word; racy programs get
            // racy (but memory-safe) results, exactly like pthreads.
            let old = self.words[word].load(Ordering::Relaxed);
            self.words[word].store((old & !mask) | val, Ordering::Relaxed);
            i += n;
        }
    }

    fn ld_u64(&self, addr: Addr) -> u64 {
        if addr.is_multiple_of(8) && addr + 8 <= self.len() {
            self.words[addr / 8].load(Ordering::Relaxed)
        } else {
            let mut b = [0u8; 8];
            self.read(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    fn st_u64(&self, addr: Addr, v: u64) {
        if addr.is_multiple_of(8) && addr + 8 <= self.len() {
            self.words[addr / 8].store(v, Ordering::Relaxed);
        } else {
            self.write(addr, &v.to_le_bytes());
        }
    }

    /// Hardware atomic fetch-add; requires an aligned word.
    fn fetch_add(&self, addr: Addr, v: u64) -> u64 {
        assert_eq!(addr % 8, 0, "atomics require 8-byte alignment");
        self.words[addr / 8].fetch_add(v, Ordering::AcqRel)
    }

    /// Hardware atomic compare-and-swap; requires an aligned word.
    fn cas(&self, addr: Addr, expect: u64, new: u64) -> u64 {
        assert_eq!(addr % 8, 0, "atomics require 8-byte alignment");
        match self.words[addr / 8].compare_exchange(
            expect,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(old) | Err(old) => old,
        }
    }
}

#[derive(Default)]
struct PMutexSt {
    locked: bool,
    last_release_v: u64,
    /// Grants so far (trace tickets). The grant *order* is whatever the OS
    /// scheduler produced, which is exactly what the trace should witness:
    /// pthreads emits schedule events like the deterministic runtimes do,
    /// and its schedule hash varying across runs is the negative control.
    tickets: u64,
}

#[derive(Default)]
struct PRwSt {
    writer: bool,
    readers: u32,
    last_release_v: u64,
}

#[derive(Default)]
struct PCondSt {
    /// Waiters currently blocked.
    waiting: usize,
    /// One entry per grant: the signaling thread's virtual time, so each
    /// wake chains off its own signal rather than the max of all signals.
    grants: std::collections::VecDeque<u64>,
}

#[derive(Default)]
struct PBarrierSt {
    parties: usize,
    arrived: usize,
    gen: u64,
    max_v: u64,
    open_v: u64,
}

struct PShared {
    cfg: CommonConfig,
    mem: SharedMem,
    st: Mutex<PState>,
    cv: Condvar,
}

struct PState {
    mutexes: Vec<PMutexSt>,
    conds: Vec<PCondSt>,
    rwlocks: Vec<PRwSt>,
    barriers: Vec<PBarrierSt>,
    next_tid: u32,
    finished_v: HashMap<Tid, u64>,
    handles: HashMap<Tid, std::thread::JoinHandle<(Tid, Breakdown, Counters, u64)>>,
    reports: Vec<(Tid, Breakdown)>,
    counters: Counters,
    max_v: u64,
    live: u32,
    started: bool,
}

/// Per-thread pthreads context.
struct PCtx {
    sh: Arc<PShared>,
    tid: Tid,
    clock: u64,
    v: u64,
    bd: Breakdown,
    cnt: Counters,
    cost: CostModel,
}

impl PCtx {
    fn new(sh: Arc<PShared>, tid: Tid, v: u64) -> PCtx {
        let cost = sh.cfg.cost;
        PCtx {
            sh,
            tid,
            clock: 0,
            v,
            bd: Breakdown::default(),
            cnt: Counters::default(),
            cost,
        }
    }

    /// Fires a perturbation hook and charges its virtual-time cost.
    ///
    /// For the pthreads negative control the interesting effect is the
    /// *real* stall (taken before the state lock), which shuffles genuine
    /// OS lock-acquisition order — exactly the nondeterminism the stress
    /// harness expects this runtime to exhibit.
    #[inline]
    fn perturb_hit(&mut self, site: PerturbSite) {
        let c = self.sh.cfg.perturb.hit(site, self.tid);
        if c > 0 {
            self.v += c;
            self.bd.lib += c;
        }
    }

    /// Folds `ev` into this thread's counters ([`Counters::count`]) and
    /// emits it as a schedule event (pthreads has no auxiliary ones): the
    /// one door of every event this thread emits, sink or no sink.
    fn emit(&mut self, ev: Event) {
        self.cnt.count(&ev);
        self.sh.cfg.trace.emit(ev, true);
    }

    fn finish(mut self) -> (Tid, Breakdown, Counters, u64) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.emit(Event::Exit {
            tid: self.tid,
            clock: self.clock,
        });
        st.finished_v.insert(self.tid, self.v);
        st.live -= 1;
        st.max_v = st.max_v.max(self.v);
        sh.cv.notify_all();
        (self.tid, std::mem::take(&mut self.bd), self.cnt, self.v)
    }
}

impl ThreadCtx for PCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, n: u64) {
        self.clock += n;
        self.v += n;
        self.bd.chunk += n;
    }

    fn vtime(&self) -> u64 {
        self.v
    }

    fn logical_clock(&self) -> u64 {
        self.clock
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.sh.mem.read(addr, buf);
        let c = self.cost.mem_access(buf.len());
        self.clock += buf.len().div_ceil(8) as u64;
        self.v += c;
        self.bd.chunk += c;
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.sh.mem.write(addr, data);
        let c = self.cost.mem_access(data.len());
        self.clock += data.len().div_ceil(8) as u64;
        self.v += c;
        self.bd.chunk += c;
    }

    fn ld_u64(&mut self, addr: Addr) -> u64 {
        let v = self.sh.mem.ld_u64(addr);
        let c = self.cost.mem_access(8);
        self.clock += 1;
        self.v += c;
        self.bd.chunk += c;
        v
    }

    fn st_u64(&mut self, addr: Addr, val: u64) {
        self.sh.mem.st_u64(addr, val);
        let c = self.cost.mem_access(8);
        self.clock += 1;
        self.v += c;
        self.bd.chunk += c;
    }

    fn atomic_fetch_add_u64(&mut self, addr: Addr, v: u64) -> u64 {
        let old = self.sh.mem.fetch_add(addr, v);
        let c = self.cost.mem_access(8) + self.cost.pthread_lock / 2;
        self.clock += 1;
        self.v += c;
        self.bd.chunk += c;
        old
    }

    fn atomic_cas_u64(&mut self, addr: Addr, expect: u64, new: u64) -> u64 {
        let old = self.sh.mem.cas(addr, expect, new);
        let c = self.cost.mem_access(8) + self.cost.pthread_lock / 2;
        self.clock += 1;
        self.v += c;
        self.bd.chunk += c;
        old
    }

    fn rw_read_lock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let from = self.v;
        while st.rwlocks[l.index()].writer {
            sh.cv.wait(&mut st);
        }
        let rs = &mut st.rwlocks[l.index()];
        rs.readers += 1;
        self.emit(Event::RwAcquire {
            tid: self.tid,
            lock: l,
            writer: false,
        });
        self.v = self.v.max(rs.last_release_v) + self.cost.pthread_lock;
        self.bd.determ_wait += self.v - from - self.cost.pthread_lock;
        self.bd.lib += self.cost.pthread_lock;
    }

    fn rw_read_unlock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let rs = &mut st.rwlocks[l.index()];
        assert!(rs.readers > 0, "read-unlock with no readers");
        rs.readers -= 1;
        self.emit(Event::RwRelease {
            tid: self.tid,
            lock: l,
            writer: false,
        });
        self.v += self.cost.pthread_lock;
        self.bd.lib += self.cost.pthread_lock;
        rs.last_release_v = rs.last_release_v.max(self.v);
        sh.cv.notify_all();
    }

    fn rw_write_lock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let from = self.v;
        while st.rwlocks[l.index()].writer || st.rwlocks[l.index()].readers > 0 {
            sh.cv.wait(&mut st);
        }
        let rs = &mut st.rwlocks[l.index()];
        rs.writer = true;
        self.emit(Event::RwAcquire {
            tid: self.tid,
            lock: l,
            writer: true,
        });
        self.v = self.v.max(rs.last_release_v) + self.cost.pthread_lock;
        self.bd.determ_wait += self.v - from - self.cost.pthread_lock;
        self.bd.lib += self.cost.pthread_lock;
    }

    fn rw_write_unlock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let rs = &mut st.rwlocks[l.index()];
        assert!(rs.writer, "write-unlock without holding");
        rs.writer = false;
        self.emit(Event::RwRelease {
            tid: self.tid,
            lock: l,
            writer: true,
        });
        self.v += self.cost.pthread_lock;
        self.bd.lib += self.cost.pthread_lock;
        rs.last_release_v = rs.last_release_v.max(self.v);
        sh.cv.notify_all();
    }

    fn mutex_lock(&mut self, m: MutexId) {
        self.perturb_hit(PerturbSite::LockPath);
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let from = self.v;
        while st.mutexes[m.index()].locked {
            sh.cv.wait(&mut st);
        }
        let ms = &mut st.mutexes[m.index()];
        ms.locked = true;
        ms.tickets += 1;
        let ticket = ms.tickets;
        self.emit(Event::MutexLock {
            tid: self.tid,
            mutex: m,
            ticket,
        });
        // Chain off whoever released last (the real acquisition order).
        self.v = self.v.max(ms.last_release_v) + self.cost.pthread_lock;
        self.bd.determ_wait += self.v - from - self.cost.pthread_lock;
        self.bd.lib += self.cost.pthread_lock;
    }

    fn mutex_unlock(&mut self, m: MutexId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let ms = &mut st.mutexes[m.index()];
        assert!(ms.locked, "{} unlocking {m} that is not locked", self.tid);
        ms.locked = false;
        self.emit(Event::MutexUnlock {
            tid: self.tid,
            mutex: m,
            woke: None,
        });
        self.v += self.cost.pthread_lock;
        self.bd.lib += self.cost.pthread_lock;
        ms.last_release_v = ms.last_release_v.max(self.v);
        sh.cv.notify_all();
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.perturb_hit(PerturbSite::LockPath);
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        // Release the mutex.
        let ms = &mut st.mutexes[m.index()];
        assert!(ms.locked, "cond_wait without holding {m}");
        ms.locked = false;
        self.emit(Event::CondWait {
            tid: self.tid,
            cond: c,
            mutex: m,
        });
        self.v += self.cost.pthread_sync;
        self.bd.lib += self.cost.pthread_sync;
        ms.last_release_v = ms.last_release_v.max(self.v);
        st.conds[c.index()].waiting += 1;
        sh.cv.notify_all();
        let from = self.v;
        loop {
            if let Some(gv) = st.conds[c.index()].grants.pop_front() {
                st.conds[c.index()].waiting -= 1;
                self.v = self.v.max(gv);
                break;
            }
            sh.cv.wait(&mut st);
        }
        // Re-acquire the mutex.
        while st.mutexes[m.index()].locked {
            sh.cv.wait(&mut st);
        }
        let ms = &mut st.mutexes[m.index()];
        ms.locked = true;
        ms.tickets += 1;
        let ticket = ms.tickets;
        self.emit(Event::MutexLock {
            tid: self.tid,
            mutex: m,
            ticket,
        });
        self.v = self.v.max(ms.last_release_v);
        self.bd.determ_wait += self.v - from;
    }

    fn cond_signal(&mut self, c: CondId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.v += self.cost.pthread_sync;
        self.bd.lib += self.cost.pthread_sync;
        let cs = &mut st.conds[c.index()];
        if cs.grants.len() < cs.waiting {
            cs.grants.push_back(self.v);
        }
        self.emit(Event::CondSignal {
            tid: self.tid,
            cond: c,
            woken: None,
        });
        sh.cv.notify_all();
    }

    fn cond_broadcast(&mut self, c: CondId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.v += self.cost.pthread_sync;
        self.bd.lib += self.cost.pthread_sync;
        let cs = &mut st.conds[c.index()];
        let mut woken = 0u32;
        while cs.grants.len() < cs.waiting {
            cs.grants.push_back(self.v);
            woken += 1;
        }
        self.emit(Event::CondBroadcast {
            tid: self.tid,
            cond: c,
            woken,
        });
        sh.cv.notify_all();
    }

    fn barrier_wait(&mut self, b: BarrierId) {
        self.perturb_hit(PerturbSite::LockPath);
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.v += self.cost.pthread_sync;
        self.bd.lib += self.cost.pthread_sync;
        let gen = st.barriers[b.index()].gen;
        {
            let bs = &mut st.barriers[b.index()];
            bs.arrived += 1;
            bs.max_v = bs.max_v.max(self.v);
            self.emit(Event::BarrierArrive {
                tid: self.tid,
                barrier: b,
                gen,
            });
            if bs.arrived == bs.parties {
                bs.open_v = bs.max_v;
                bs.gen += 1;
                bs.arrived = 0;
                bs.max_v = 0;
                self.emit(Event::BarrierOpen {
                    tid: self.tid,
                    barrier: b,
                    gen,
                    install_version: 0,
                });
            }
        }
        sh.cv.notify_all();
        let from = self.v;
        while st.barriers[b.index()].gen == gen {
            sh.cv.wait(&mut st);
        }
        self.v = self.v.max(st.barriers[b.index()].open_v);
        self.bd.barrier_wait += self.v - from;
    }

    fn spawn(&mut self, job: Job) -> Tid {
        let sh = Arc::clone(&self.sh);
        self.v += self.cost.pthread_spawn;
        self.bd.lib += self.cost.pthread_spawn;
        let mut st = sh.st.lock();
        let tid = Tid(st.next_tid);
        st.next_tid += 1;
        st.live += 1;
        self.emit(Event::Spawn {
            parent: self.tid,
            child: tid,
            pooled: false,
        });
        let sh2 = Arc::clone(&self.sh);
        let v0 = self.v;
        let handle = std::thread::spawn(move || {
            let mut ctx = PCtx::new(sh2, tid, v0);
            job(&mut ctx);
            ctx.finish()
        });
        st.handles.insert(tid, handle);
        tid
    }

    fn join(&mut self, t: Tid) {
        assert_ne!(t, self.tid, "thread joining itself");
        let sh = Arc::clone(&self.sh);
        let handle = {
            let mut st = sh.st.lock();
            st.handles.remove(&t)
        };
        let from = self.v;
        if let Some(h) = handle {
            let (tid, bd, cnt, v) = h.join().expect("joined thread panicked");
            let mut st = sh.st.lock();
            st.reports.push((tid, bd));
            st.counters += cnt;
            self.v = self.v.max(v);
            self.emit(Event::Join {
                tid: self.tid,
                target: t,
            });
        } else {
            // Someone else holds/held the handle; wait for the exit record.
            let mut st = sh.st.lock();
            loop {
                if let Some(v) = st.finished_v.get(&t) {
                    self.v = self.v.max(*v);
                    break;
                }
                sh.cv.wait(&mut st);
            }
        }
        self.bd.determ_wait += self.v - from;
    }
}

/// Nondeterministic pthreads-style runtime (the normalization baseline).
pub struct PthreadsRuntime {
    sh: Arc<PShared>,
    ran: bool,
}

impl PthreadsRuntime {
    /// Creates the runtime with a zeroed heap.
    pub fn new(cfg: CommonConfig) -> PthreadsRuntime {
        let mem = SharedMem::new(cfg.heap_bytes());
        PthreadsRuntime {
            sh: Arc::new(PShared {
                cfg,
                mem,
                st: Mutex::new(PState {
                    mutexes: Vec::new(),
                    conds: Vec::new(),
                    rwlocks: Vec::new(),
                    barriers: Vec::new(),
                    next_tid: 1,
                    finished_v: HashMap::new(),
                    handles: HashMap::new(),
                    reports: Vec::new(),
                    counters: Counters::default(),
                    max_v: 0,
                    live: 0,
                    started: false,
                }),
                cv: Condvar::new(),
            }),
            ran: false,
        }
    }
}

impl Runtime for PthreadsRuntime {
    fn name(&self) -> &'static str {
        "pthreads"
    }

    fn is_deterministic(&self) -> bool {
        false
    }

    fn create_mutex(&mut self) -> MutexId {
        let mut st = self.sh.st.lock();
        assert!(!st.started, "objects must be created before run()");
        st.mutexes.push(PMutexSt::default());
        MutexId(st.mutexes.len() as u32 - 1)
    }

    fn create_cond(&mut self) -> CondId {
        let mut st = self.sh.st.lock();
        assert!(!st.started, "objects must be created before run()");
        st.conds.push(PCondSt::default());
        CondId(st.conds.len() as u32 - 1)
    }

    fn create_rwlock(&mut self) -> RwLockId {
        let mut st = self.sh.st.lock();
        assert!(!st.started, "objects must be created before run()");
        st.rwlocks.push(PRwSt::default());
        RwLockId(st.rwlocks.len() as u32 - 1)
    }

    fn create_barrier(&mut self, parties: usize) -> BarrierId {
        assert!(parties > 0, "barrier needs at least one party");
        let mut st = self.sh.st.lock();
        assert!(!st.started, "objects must be created before run()");
        st.barriers.push(PBarrierSt {
            parties,
            ..PBarrierSt::default()
        });
        BarrierId(st.barriers.len() as u32 - 1)
    }

    fn heap_len(&self) -> usize {
        self.sh.mem.len()
    }

    fn init_write(&mut self, addr: Addr, data: &[u8]) {
        self.sh.mem.write(addr, data);
    }

    fn final_read(&self, addr: Addr, buf: &mut [u8]) {
        self.sh.mem.read(addr, buf);
    }

    fn run(&mut self, main: Job) -> RunReport {
        assert!(!self.ran, "run() may only be called once");
        self.ran = true;
        let sh = Arc::clone(&self.sh);
        let start = Instant::now();
        {
            let mut st = sh.st.lock();
            st.started = true;
            st.live = 1;
        }
        let mut ctx = PCtx::new(Arc::clone(&sh), Tid::MAIN, 0);
        main(&mut ctx);
        let (tid, bd, cnt, _v) = ctx.finish();
        let mut st = sh.st.lock();
        st.reports.push((tid, bd));
        st.counters += cnt;
        while st.live > 0 {
            sh.cv.wait(&mut st);
        }
        // Collect any threads that were never joined.
        let leftover: Vec<_> = st.handles.drain().map(|(_, h)| h).collect();
        drop(st);
        for h in leftover {
            if let Ok((tid, bd, cnt, _)) = h.join() {
                let mut st = sh.st.lock();
                st.reports.push((tid, bd));
                st.counters += cnt;
            }
        }
        let mut st = sh.st.lock();
        let reports = std::mem::take(&mut st.reports);
        RunReport::new(&sh.cfg, start, reports, st.counters, st.max_v, st.next_tid)
    }
}
