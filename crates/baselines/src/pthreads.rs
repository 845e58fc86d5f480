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
    Addr, BarrierId, Closed, CommonConfig, CondId, CostModel, Job, Ledger, MutexId, PerturbSite,
    Row, RunReport, Runtime, RwLockId, ThreadCtx, Tid,
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
    handles: HashMap<Tid, std::thread::JoinHandle<()>>,
    closed: Closed,
    live: u32,
    started: bool,
}

/// Per-thread pthreads context.
///
/// A perturbation hit's interesting effect here is the *real* stall,
/// taken before the state lock: it shuffles genuine OS lock-acquisition
/// order, exactly the nondeterminism the stress harness expects this
/// runtime to exhibit.
struct PCtx {
    sh: Arc<PShared>,
    tid: Tid,
    clock: u64,
    led: Ledger,
    cost: CostModel,
}

impl PCtx {
    fn new(sh: Arc<PShared>, tid: Tid, v: u64) -> PCtx {
        PCtx {
            led: Ledger::new(&sh.cfg, tid, v),
            cost: sh.cfg.cost,
            sh,
            tid,
            clock: 0,
        }
    }

    /// Advances the logical clock and virtual time for user work.
    fn advance(&mut self, dclock: u64, dv: u64) {
        self.clock += dclock;
        self.led.charge(Row::chunk, dv);
    }

    fn finish(mut self) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.led.emit(Event::Exit {
            tid: self.tid,
            clock: self.clock,
        });
        st.finished_v.insert(self.tid, self.led.v());
        st.live -= 1;
        st.closed.file(&self.led);
        sh.cv.notify_all();
    }
}

impl ThreadCtx for PCtx {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, n: u64) {
        self.advance(n, n);
    }

    fn vtime(&self) -> u64 {
        self.led.v()
    }

    fn logical_clock(&self) -> u64 {
        self.clock
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.sh.mem.read(addr, buf);
        self.advance(
            buf.len().div_ceil(8) as u64,
            self.cost.mem_access(buf.len()),
        );
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.sh.mem.write(addr, data);
        self.advance(
            data.len().div_ceil(8) as u64,
            self.cost.mem_access(data.len()),
        );
    }

    fn ld_u64(&mut self, addr: Addr) -> u64 {
        let v = self.sh.mem.ld_u64(addr);
        self.advance(1, self.cost.mem_access(8));
        v
    }

    fn st_u64(&mut self, addr: Addr, val: u64) {
        self.sh.mem.st_u64(addr, val);
        self.advance(1, self.cost.mem_access(8));
    }

    fn atomic_fetch_add_u64(&mut self, addr: Addr, v: u64) -> u64 {
        let old = self.sh.mem.fetch_add(addr, v);
        self.advance(1, self.cost.mem_access(8) + self.cost.pthread_lock / 2);
        old
    }

    fn atomic_cas_u64(&mut self, addr: Addr, expect: u64, new: u64) -> u64 {
        let old = self.sh.mem.cas(addr, expect, new);
        self.advance(1, self.cost.mem_access(8) + self.cost.pthread_lock / 2);
        old
    }

    fn rw_read_lock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        while st.rwlocks[l.index()].writer {
            sh.cv.wait(&mut st);
        }
        let rs = &mut st.rwlocks[l.index()];
        rs.readers += 1;
        self.led.emit(Event::RwAcquire {
            tid: self.tid,
            lock: l,
            writer: false,
        });
        self.led.wait_until(Row::determ_wait, rs.last_release_v);
        self.led.charge(Row::lib, self.cost.pthread_lock);
    }

    fn rw_read_unlock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let rs = &mut st.rwlocks[l.index()];
        assert!(rs.readers > 0, "read-unlock with no readers");
        rs.readers -= 1;
        self.led.emit(Event::RwRelease {
            tid: self.tid,
            lock: l,
            writer: false,
        });
        self.led.charge(Row::lib, self.cost.pthread_lock);
        rs.last_release_v = rs.last_release_v.max(self.led.v());
        sh.cv.notify_all();
    }

    fn rw_write_lock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        while st.rwlocks[l.index()].writer || st.rwlocks[l.index()].readers > 0 {
            sh.cv.wait(&mut st);
        }
        let rs = &mut st.rwlocks[l.index()];
        rs.writer = true;
        self.led.emit(Event::RwAcquire {
            tid: self.tid,
            lock: l,
            writer: true,
        });
        self.led.wait_until(Row::determ_wait, rs.last_release_v);
        self.led.charge(Row::lib, self.cost.pthread_lock);
    }

    fn rw_write_unlock(&mut self, l: RwLockId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let rs = &mut st.rwlocks[l.index()];
        assert!(rs.writer, "write-unlock without holding");
        rs.writer = false;
        self.led.emit(Event::RwRelease {
            tid: self.tid,
            lock: l,
            writer: true,
        });
        self.led.charge(Row::lib, self.cost.pthread_lock);
        rs.last_release_v = rs.last_release_v.max(self.led.v());
        sh.cv.notify_all();
    }

    fn mutex_lock(&mut self, m: MutexId) {
        self.led.perturb(PerturbSite::LockPath);
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        while st.mutexes[m.index()].locked {
            sh.cv.wait(&mut st);
        }
        let ms = &mut st.mutexes[m.index()];
        ms.locked = true;
        ms.tickets += 1;
        let ticket = ms.tickets;
        self.led.emit(Event::MutexLock {
            tid: self.tid,
            mutex: m,
            ticket,
        });
        // Chain off whoever released last (the real acquisition order).
        self.led.wait_until(Row::determ_wait, ms.last_release_v);
        self.led.charge(Row::lib, self.cost.pthread_lock);
    }

    fn mutex_unlock(&mut self, m: MutexId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        let ms = &mut st.mutexes[m.index()];
        assert!(ms.locked, "{} unlocking {m} that is not locked", self.tid);
        ms.locked = false;
        self.led.emit(Event::MutexUnlock {
            tid: self.tid,
            mutex: m,
            woke: None,
        });
        self.led.charge(Row::lib, self.cost.pthread_lock);
        ms.last_release_v = ms.last_release_v.max(self.led.v());
        sh.cv.notify_all();
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.led.perturb(PerturbSite::LockPath);
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        // Release the mutex.
        let ms = &mut st.mutexes[m.index()];
        assert!(ms.locked, "cond_wait without holding {m}");
        ms.locked = false;
        self.led.emit(Event::CondWait {
            tid: self.tid,
            cond: c,
            mutex: m,
        });
        self.led.charge(Row::lib, self.cost.pthread_sync);
        ms.last_release_v = ms.last_release_v.max(self.led.v());
        st.conds[c.index()].waiting += 1;
        sh.cv.notify_all();
        loop {
            if let Some(gv) = st.conds[c.index()].grants.pop_front() {
                st.conds[c.index()].waiting -= 1;
                self.led.wait_until(Row::determ_wait, gv);
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
        self.led.emit(Event::MutexLock {
            tid: self.tid,
            mutex: m,
            ticket,
        });
        self.led.wait_until(Row::determ_wait, ms.last_release_v);
    }

    fn cond_signal(&mut self, c: CondId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.led.charge(Row::lib, self.cost.pthread_sync);
        let cs = &mut st.conds[c.index()];
        if cs.grants.len() < cs.waiting {
            cs.grants.push_back(self.led.v());
        }
        self.led.emit(Event::CondSignal {
            tid: self.tid,
            cond: c,
            woken: None,
        });
        sh.cv.notify_all();
    }

    fn cond_broadcast(&mut self, c: CondId) {
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.led.charge(Row::lib, self.cost.pthread_sync);
        let cs = &mut st.conds[c.index()];
        let mut woken = 0u32;
        while cs.grants.len() < cs.waiting {
            cs.grants.push_back(self.led.v());
            woken += 1;
        }
        self.led.emit(Event::CondBroadcast {
            tid: self.tid,
            cond: c,
            woken,
        });
        sh.cv.notify_all();
    }

    fn barrier_wait(&mut self, b: BarrierId) {
        self.led.perturb(PerturbSite::LockPath);
        let sh = Arc::clone(&self.sh);
        let mut st = sh.st.lock();
        self.led.charge(Row::lib, self.cost.pthread_sync);
        let gen = st.barriers[b.index()].gen;
        {
            let bs = &mut st.barriers[b.index()];
            bs.arrived += 1;
            bs.max_v = bs.max_v.max(self.led.v());
            self.led.emit(Event::BarrierArrive {
                tid: self.tid,
                barrier: b,
                gen,
            });
            if bs.arrived == bs.parties {
                bs.open_v = bs.max_v;
                bs.gen += 1;
                bs.arrived = 0;
                bs.max_v = 0;
                self.led.emit(Event::BarrierOpen {
                    tid: self.tid,
                    barrier: b,
                    gen,
                    install_version: 0,
                });
            }
        }
        sh.cv.notify_all();
        while st.barriers[b.index()].gen == gen {
            sh.cv.wait(&mut st);
        }
        self.led
            .wait_until(Row::barrier_wait, st.barriers[b.index()].open_v);
    }

    fn spawn(&mut self, job: Job) -> Tid {
        let sh = Arc::clone(&self.sh);
        self.led.charge(Row::lib, self.cost.pthread_spawn);
        let mut st = sh.st.lock();
        let tid = Tid(st.next_tid);
        st.next_tid += 1;
        st.live += 1;
        self.led.emit(Event::Spawn {
            parent: self.tid,
            child: tid,
            pooled: false,
        });
        let sh2 = Arc::clone(&self.sh);
        let v0 = self.led.v();
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
        if let Some(h) = handle {
            h.join().expect("joined thread panicked");
            let v = sh.st.lock().finished_v[&t];
            self.led.wait_until(Row::determ_wait, v);
            self.led.emit(Event::Join {
                tid: self.tid,
                target: t,
            });
        } else {
            // Someone else holds/held the handle; wait for the exit record.
            let mut st = sh.st.lock();
            loop {
                if let Some(v) = st.finished_v.get(&t) {
                    self.led.wait_until(Row::determ_wait, *v);
                    break;
                }
                sh.cv.wait(&mut st);
            }
        }
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
                    closed: Closed::default(),
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
        ctx.finish();
        let mut st = sh.st.lock();
        while st.live > 0 {
            sh.cv.wait(&mut st);
        }
        // Collect any threads that were never joined.
        let leftover: Vec<_> = st.handles.drain().map(|(_, h)| h).collect();
        drop(st);
        for h in leftover {
            let _ = h.join();
        }
        let mut st = sh.st.lock();
        let closed = std::mem::take(&mut st.closed);
        RunReport::new(&sh.cfg, start, closed, st.next_tid)
    }
}
