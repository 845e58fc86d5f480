//! `TimedCtx`: a [`ThreadCtx`] decorator that times every call a workload
//! makes into the runtime, from outside the runtime.
//!
//! The traced run wraps the main [`Job`] — and, recursively, every job it
//! spawns — so each program thread runs against a `TimedCtx` that forwards
//! every trait method to the runtime's own context and records how long
//! the call took. A thread's *span* is the lifetime of its job; the time
//! not covered by calls is the workload's own (self) time. Nothing is
//! shared between threads while they run: each keeps its own accumulators
//! and hands them to the [`Collector`] once, when its job returns.
//!
//! `tick`/`read`/`write` are far too frequent to time individually (nine
//! million reads in `compute_bound`: timing each one measured mostly the
//! timer), so they are always counted but only one in about [`STRIDE`] is
//! timed, and the sampled mean is scaled back by the count. A span that
//! short is mostly the two clock reads around it, so every sample also
//! times an empty span right before the call — under the same cache and
//! pipeline conditions, which a calibration loop at start-up would not
//! share — and only the difference is attributed to the call.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dmt_api::{Addr, BarrierId, CondId, DmtResult, Job, MutexId, RwLockId, ThreadCtx, Tid};

/// Accesses are timed once every this many calls of their kind, on
/// average: the gap between two samples is drawn from `STRIDE/2 ..
/// 3*STRIDE/2` by a per-thread generator, because a fixed gap of 64 beats
/// against the programs' own power-of-two patterns (a page is 512 words:
/// every eighth sample of a sequential writer would be the CoW fault, or
/// none would).
pub const STRIDE: u64 = 64;

/// A sampled access this long, or one whose empty span is, was not the
/// access: the thread lost the processor inside the sample (the threads
/// of a run share one, a time slice is milliseconds, and a CoW fault, the
/// longest access there is, copies 4 KiB in about a microsecond). Scaled
/// back by the count a dozen of these per run would outweigh nine million
/// reads, so such a sample is dropped; the interval stays in the thread's
/// span and so counts as self time, like every other moment the thread
/// was off the processor outside a call.
pub const INTERRUPTED_NS: u64 = 50_000;

/// The call kinds time is attributed to. Every `ThreadCtx` method that
/// does work maps to exactly one (see the `impl ThreadCtx for TimedCtx`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Tick,
    Read,
    Write,
    MutexLock,
    MutexUnlock,
    CondWait,
    CondSignal,
    BarrierWait,
    Spawn,
    Join,
}

impl Kind {
    pub const ALL: [Kind; 10] = [
        Kind::Tick,
        Kind::Read,
        Kind::Write,
        Kind::MutexLock,
        Kind::MutexUnlock,
        Kind::CondWait,
        Kind::CondSignal,
        Kind::BarrierWait,
        Kind::Spawn,
        Kind::Join,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tick => "tick",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::MutexLock => "mutex_lock",
            Kind::MutexUnlock => "mutex_unlock",
            Kind::CondWait => "cond_wait",
            Kind::CondSignal => "cond_signal",
            Kind::BarrierWait => "barrier_wait",
            Kind::Spawn => "spawn",
            Kind::Join => "join",
        }
    }

    /// Kinds that can block on another thread; their tail is reported.
    pub fn blocking(self) -> bool {
        matches!(
            self,
            Kind::MutexLock | Kind::CondWait | Kind::BarrierWait | Kind::Join
        )
    }

    /// Kinds sampled one in [`STRIDE`] instead of timed on every call.
    pub fn strided(self) -> bool {
        matches!(self, Kind::Tick | Kind::Read | Kind::Write)
    }
}

/// Per-kind accumulator: call count, the timed subset, and a log2
/// histogram of the timed durations (bucket `i` holds `2^i..2^(i+1)` ns,
/// bucket 0 also holds 0 ns).
#[derive(Clone, Debug)]
pub struct KindAcc {
    pub count: u64,
    pub timed: u64,
    pub ns: u64,
    /// Strided kinds: summed empty spans measured beside the `timed`
    /// samples (the timer's own share of `ns`).
    pub empty_ns: u64,
    pub hist: [u64; 64],
}

impl Default for KindAcc {
    fn default() -> Self {
        KindAcc {
            count: 0,
            timed: 0,
            ns: 0,
            empty_ns: 0,
            hist: [0; 64],
        }
    }
}

impl KindAcc {
    fn record(&mut self, ns: u64, empty_ns: u64) {
        self.timed += 1;
        self.ns += ns;
        self.empty_ns += empty_ns;
        self.hist[ns.max(1).ilog2() as usize] += 1;
    }

    fn merge(&mut self, o: &KindAcc) {
        self.count += o.count;
        self.timed += o.timed;
        self.ns += o.ns;
        self.empty_ns += o.empty_ns;
        for (a, b) in self.hist.iter_mut().zip(o.hist) {
            *a += b;
        }
    }

    /// Time spent in all `count` calls. Every call of a sync kind is
    /// timed, so this is the plain sum; a strided kind scales the mean of
    /// its samples, less the mean empty span, back to the full count.
    pub fn est_ns(&self, kind: Kind) -> f64 {
        if !kind.strided() {
            return self.ns as f64;
        }
        if self.timed == 0 {
            return 0.0;
        }
        let sampled = self.ns.saturating_sub(self.empty_ns) as f64;
        sampled / self.timed as f64 * self.count as f64
    }

    /// The `q` quantile of the timed durations, interpolated linearly
    /// inside the histogram bucket it falls in.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let rank = q * self.timed as f64;
        let mut below = 0.0;
        for (i, &c) in self.hist.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && below + c >= rank {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = (1u128 << (i + 1)) as f64;
                return lo + (hi - lo) * ((rank - below) / c);
            }
            below += c;
        }
        unreachable!("rank {rank} beyond {} timed samples", self.timed)
    }
}

/// One recorded interval. `kind == None` is a thread span (the parent of
/// every call span with the same `tid` in the same run).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub tid: u32,
    pub kind: Option<Kind>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one program thread did: its span and per-kind accumulators.
#[derive(Clone, Debug)]
pub struct ThreadRecord {
    pub tid: u32,
    pub span_ns: u64,
    pub kinds: [KindAcc; 10],
}

impl ThreadRecord {
    /// Time inside runtime calls, by [`KindAcc::est_ns`].
    pub fn call_ns(&self) -> f64 {
        Kind::ALL
            .iter()
            .map(|&k| self.kinds[k as usize].est_ns(k))
            .sum()
    }

    /// Workload self time: the span minus the calls inside it.
    pub fn self_ns(&self) -> f64 {
        self.span_ns as f64 - self.call_ns()
    }
}

/// Everything the threads of one traced run handed in.
#[derive(Clone, Debug, Default)]
pub struct Collected {
    pub threads: Vec<ThreadRecord>,
    pub spans: Vec<Span>,
}

impl Collected {
    /// Per-kind accumulators summed over threads.
    pub fn totals(&self) -> [KindAcc; 10] {
        let mut out: [KindAcc; 10] = Default::default();
        for t in &self.threads {
            for (a, b) in out.iter_mut().zip(&t.kinds) {
                a.merge(b);
            }
        }
        out
    }

    /// Summed thread spans.
    pub fn thread_ns(&self) -> f64 {
        self.threads.iter().map(|t| t.span_ns as f64).sum()
    }
}

/// Destination of one traced run's thread records.
pub struct Collector {
    epoch: Instant,
    keep_spans: bool,
    done: Mutex<Collected>,
}

impl Collector {
    /// `keep_spans`: also keep every sync call as an individual [`Span`]
    /// (for `--spans`); the accumulators are kept regardless.
    pub fn new(keep_spans: bool) -> Arc<Collector> {
        Arc::new(Collector {
            epoch: Instant::now(),
            keep_spans,
            done: Mutex::new(Collected::default()),
        })
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Takes what has been collected. Call after `Runtime::run` returned:
    /// every program thread has handed in by then.
    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.done.lock().expect("a traced thread panicked"))
    }
}

/// Wraps `job` so that it — and every job it transitively spawns — runs
/// against a [`TimedCtx`] reporting to `col`.
pub fn wrap_job(job: Job, col: Arc<Collector>) -> Job {
    Box::new(move |ctx| {
        let start = Instant::now();
        let mut timed = TimedCtx {
            rng: 0x9e37_79b9_7f4a_7c15 ^ u64::from(ctx.tid().0),
            inner: ctx,
            col: Arc::clone(&col),
            kinds: Default::default(),
            skip: [0; 10],
            spans: Vec::new(),
        };
        job(&mut timed);
        let end = Instant::now();
        let TimedCtx {
            inner,
            kinds,
            mut spans,
            ..
        } = timed;
        let tid = inner.tid().0;
        let (start_ns, end_ns) = (col.ns_since_epoch(start), col.ns_since_epoch(end));
        if col.keep_spans {
            spans.push(Span {
                tid,
                kind: None,
                start_ns,
                end_ns,
            });
        }
        let mut done = col.done.lock().expect("a traced thread panicked");
        done.threads.push(ThreadRecord {
            tid,
            span_ns: end_ns - start_ns,
            kinds,
        });
        done.spans.append(&mut spans);
    })
}

/// The decorator. Built only by [`wrap_job`].
pub struct TimedCtx<'a> {
    inner: &'a mut dyn ThreadCtx,
    col: Arc<Collector>,
    kinds: [KindAcc; 10],
    /// Per strided kind: calls to let pass before the next sample.
    skip: [u64; 10],
    /// State of the gap generator (Knuth's LCG), seeded from the tid so a
    /// traced run samples the same calls every time.
    rng: u64,
    spans: Vec<Span>,
}

impl TimedCtx<'_> {
    /// Whether this call of strided kind `k` is the one to time.
    #[inline]
    fn due(&mut self, k: usize) -> bool {
        if self.skip[k] > 0 {
            self.skip[k] -= 1;
            return false;
        }
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.skip[k] = STRIDE / 2 + (self.rng >> 33) % STRIDE;
        true
    }

    #[inline]
    fn call<R>(&mut self, kind: Kind, f: impl FnOnce(&mut dyn ThreadCtx) -> R) -> R {
        let k = kind as usize;
        self.kinds[k].count += 1;
        let sample = !kind.strided() || self.due(k);
        // `before..start` is the empty span. The call below is one call
        // site for the timed and the untimed case: a rarely taken copy of
        // it would run cold and read slow.
        let times = sample.then(|| (Instant::now(), Instant::now()));
        let r = f(self.inner);
        if let Some((before, start)) = times {
            let end = Instant::now();
            let empty = if kind.strided() {
                start.duration_since(before).as_nanos() as u64
            } else {
                0
            };
            let ns = end.duration_since(start).as_nanos() as u64;
            if !kind.strided() || ns.max(empty) < INTERRUPTED_NS {
                self.kinds[k].record(ns, empty);
            }
            if self.col.keep_spans && !kind.strided() {
                self.spans.push(Span {
                    tid: self.inner.tid().0,
                    kind: Some(kind),
                    start_ns: self.col.ns_since_epoch(start),
                    end_ns: self.col.ns_since_epoch(end),
                });
            }
        }
        r
    }
}

// Every method of the trait is forwarded explicitly, the provided ones
// too: a default body would run here and reach the runtime only through
// `read_bytes`/`write_bytes`/`mutex_lock`, so a runtime's own override
// (poisoning `try_*`, token-protected atomics, rwlocks) would be skipped
// and its time booked under the wrong kind. Lock-like calls without a
// kind of their own share the nearest one: rwlock acquires and the
// atomics (token, RMW, commit) count as `mutex_lock`, rwlock releases as
// `mutex_unlock`, `cond_broadcast` as `cond_signal`.
impl ThreadCtx for TimedCtx<'_> {
    fn tid(&self) -> Tid {
        self.inner.tid()
    }
    fn vtime(&self) -> u64 {
        self.inner.vtime()
    }
    fn logical_clock(&self) -> u64 {
        self.inner.logical_clock()
    }
    fn tick(&mut self, n: u64) {
        self.call(Kind::Tick, |c| c.tick(n))
    }
    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.call(Kind::Read, |c| c.read_bytes(addr, buf))
    }
    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.call(Kind::Write, |c| c.write_bytes(addr, data))
    }
    fn ld_u64(&mut self, addr: Addr) -> u64 {
        self.call(Kind::Read, |c| c.ld_u64(addr))
    }
    fn st_u64(&mut self, addr: Addr, v: u64) {
        self.call(Kind::Write, |c| c.st_u64(addr, v))
    }
    fn mutex_lock(&mut self, m: MutexId) {
        self.call(Kind::MutexLock, |c| c.mutex_lock(m))
    }
    fn try_mutex_lock(&mut self, m: MutexId) -> DmtResult<()> {
        self.call(Kind::MutexLock, |c| c.try_mutex_lock(m))
    }
    fn mutex_unlock(&mut self, m: MutexId) {
        self.call(Kind::MutexUnlock, |c| c.mutex_unlock(m))
    }
    fn cond_wait(&mut self, cv: CondId, m: MutexId) {
        self.call(Kind::CondWait, |c| c.cond_wait(cv, m))
    }
    fn try_cond_wait(&mut self, cv: CondId, m: MutexId) -> DmtResult<()> {
        self.call(Kind::CondWait, |c| c.try_cond_wait(cv, m))
    }
    fn cond_signal(&mut self, cv: CondId) {
        self.call(Kind::CondSignal, |c| c.cond_signal(cv))
    }
    fn cond_broadcast(&mut self, cv: CondId) {
        self.call(Kind::CondSignal, |c| c.cond_broadcast(cv))
    }
    fn barrier_wait(&mut self, b: BarrierId) {
        self.call(Kind::BarrierWait, |c| c.barrier_wait(b))
    }
    fn rw_read_lock(&mut self, l: RwLockId) {
        self.call(Kind::MutexLock, |c| c.rw_read_lock(l))
    }
    fn rw_read_unlock(&mut self, l: RwLockId) {
        self.call(Kind::MutexUnlock, |c| c.rw_read_unlock(l))
    }
    fn rw_write_lock(&mut self, l: RwLockId) {
        self.call(Kind::MutexLock, |c| c.rw_write_lock(l))
    }
    fn rw_write_unlock(&mut self, l: RwLockId) {
        self.call(Kind::MutexUnlock, |c| c.rw_write_unlock(l))
    }
    fn atomic_fetch_add_u64(&mut self, addr: Addr, v: u64) -> u64 {
        self.call(Kind::MutexLock, |c| c.atomic_fetch_add_u64(addr, v))
    }
    fn atomic_cas_u64(&mut self, addr: Addr, expect: u64, new: u64) -> u64 {
        self.call(Kind::MutexLock, |c| c.atomic_cas_u64(addr, expect, new))
    }
    fn spawn(&mut self, job: Job) -> Tid {
        let col = Arc::clone(&self.col);
        self.call(Kind::Spawn, |c| c.spawn(wrap_job(job, col)))
    }
    fn join(&mut self, t: Tid) {
        self.call(Kind::Join, |c| c.join(t))
    }
    fn try_join(&mut self, t: Tid) -> DmtResult<()> {
        self.call(Kind::Join, |c| c.try_join(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the name of every trait method that reaches it and runs
    /// spawned jobs inline, as the next tid.
    struct Mock {
        tid: u32,
        next_tid: u32,
        calls: Vec<&'static str>,
        /// How long `tick` and `mutex_lock` take.
        nap: std::time::Duration,
    }

    impl Mock {
        fn new() -> Mock {
            Mock {
                tid: 0,
                next_tid: 1,
                calls: Vec::new(),
                nap: std::time::Duration::ZERO,
            }
        }
    }

    impl ThreadCtx for Mock {
        fn tid(&self) -> Tid {
            Tid(self.tid)
        }
        fn vtime(&self) -> u64 {
            7
        }
        fn logical_clock(&self) -> u64 {
            9
        }
        fn tick(&mut self, _: u64) {
            self.calls.push("tick");
            std::thread::sleep(self.nap);
        }
        fn read_bytes(&mut self, _: Addr, _: &mut [u8]) {
            self.calls.push("read_bytes");
        }
        fn write_bytes(&mut self, _: Addr, _: &[u8]) {
            self.calls.push("write_bytes");
        }
        fn ld_u64(&mut self, _: Addr) -> u64 {
            self.calls.push("ld_u64");
            0
        }
        fn st_u64(&mut self, _: Addr, _: u64) {
            self.calls.push("st_u64");
        }
        fn mutex_lock(&mut self, _: MutexId) {
            self.calls.push("mutex_lock");
            std::thread::sleep(self.nap);
        }
        fn try_mutex_lock(&mut self, _: MutexId) -> DmtResult<()> {
            self.calls.push("try_mutex_lock");
            Ok(())
        }
        fn mutex_unlock(&mut self, _: MutexId) {
            self.calls.push("mutex_unlock");
        }
        fn cond_wait(&mut self, _: CondId, _: MutexId) {
            self.calls.push("cond_wait");
        }
        fn try_cond_wait(&mut self, _: CondId, _: MutexId) -> DmtResult<()> {
            self.calls.push("try_cond_wait");
            Ok(())
        }
        fn cond_signal(&mut self, _: CondId) {
            self.calls.push("cond_signal");
        }
        fn cond_broadcast(&mut self, _: CondId) {
            self.calls.push("cond_broadcast");
        }
        fn barrier_wait(&mut self, _: BarrierId) {
            self.calls.push("barrier_wait");
        }
        fn rw_read_lock(&mut self, _: RwLockId) {
            self.calls.push("rw_read_lock");
        }
        fn rw_read_unlock(&mut self, _: RwLockId) {
            self.calls.push("rw_read_unlock");
        }
        fn rw_write_lock(&mut self, _: RwLockId) {
            self.calls.push("rw_write_lock");
        }
        fn rw_write_unlock(&mut self, _: RwLockId) {
            self.calls.push("rw_write_unlock");
        }
        fn atomic_fetch_add_u64(&mut self, _: Addr, _: u64) -> u64 {
            self.calls.push("atomic_fetch_add_u64");
            0
        }
        fn atomic_cas_u64(&mut self, _: Addr, _: u64, _: u64) -> u64 {
            self.calls.push("atomic_cas_u64");
            0
        }
        fn spawn(&mut self, job: Job) -> Tid {
            self.calls.push("spawn");
            let child = self.next_tid;
            self.next_tid += 1;
            let parent = std::mem::replace(&mut self.tid, child);
            job(self);
            self.tid = parent;
            Tid(child)
        }
        fn join(&mut self, _: Tid) {
            self.calls.push("join");
        }
        fn try_join(&mut self, _: Tid) -> DmtResult<()> {
            self.calls.push("try_join");
            Ok(())
        }
    }

    fn run_wrapped(job: Job, keep_spans: bool) -> (Mock, Collected) {
        let col = Collector::new(keep_spans);
        let mut mock = Mock::new();
        wrap_job(job, Arc::clone(&col))(&mut mock);
        (mock, col.take())
    }

    /// Each trait method, the name the mock must see exactly once, and
    /// the kind its time must be booked under.
    type Case = (fn(&mut dyn ThreadCtx), &'static str, Kind);

    #[test]
    fn every_method_is_forwarded_once_under_its_kind() {
        let cases: [Case; 24] = [
            (|c| c.tick(5), "tick", Kind::Tick),
            (|c| c.read_bytes(0, &mut [0; 4]), "read_bytes", Kind::Read),
            (|c| c.write_bytes(0, &[1; 4]), "write_bytes", Kind::Write),
            (
                |c| {
                    let _ = c.ld_u64(0);
                },
                "ld_u64",
                Kind::Read,
            ),
            (|c| c.st_u64(0, 1), "st_u64", Kind::Write),
            (|c| c.mutex_lock(MutexId(0)), "mutex_lock", Kind::MutexLock),
            (
                |c| c.try_mutex_lock(MutexId(0)).unwrap(),
                "try_mutex_lock",
                Kind::MutexLock,
            ),
            (
                |c| c.mutex_unlock(MutexId(0)),
                "mutex_unlock",
                Kind::MutexUnlock,
            ),
            (
                |c| c.cond_wait(CondId(0), MutexId(0)),
                "cond_wait",
                Kind::CondWait,
            ),
            (
                |c| c.try_cond_wait(CondId(0), MutexId(0)).unwrap(),
                "try_cond_wait",
                Kind::CondWait,
            ),
            (
                |c| c.cond_signal(CondId(0)),
                "cond_signal",
                Kind::CondSignal,
            ),
            (
                |c| c.cond_broadcast(CondId(0)),
                "cond_broadcast",
                Kind::CondSignal,
            ),
            (
                |c| c.barrier_wait(BarrierId(0)),
                "barrier_wait",
                Kind::BarrierWait,
            ),
            (
                |c| c.rw_read_lock(RwLockId(0)),
                "rw_read_lock",
                Kind::MutexLock,
            ),
            (
                |c| c.rw_read_unlock(RwLockId(0)),
                "rw_read_unlock",
                Kind::MutexUnlock,
            ),
            (
                |c| c.rw_write_lock(RwLockId(0)),
                "rw_write_lock",
                Kind::MutexLock,
            ),
            (
                |c| c.rw_write_unlock(RwLockId(0)),
                "rw_write_unlock",
                Kind::MutexUnlock,
            ),
            (
                |c| {
                    let _ = c.atomic_fetch_add_u64(0, 1);
                },
                "atomic_fetch_add_u64",
                Kind::MutexLock,
            ),
            (
                |c| {
                    let _ = c.atomic_cas_u64(0, 0, 1);
                },
                "atomic_cas_u64",
                Kind::MutexLock,
            ),
            (
                |c| {
                    let _ = c.spawn(Box::new(|_| {}));
                },
                "spawn",
                Kind::Spawn,
            ),
            (|c| c.join(Tid(1)), "join", Kind::Join),
            (|c| c.try_join(Tid(1)).unwrap(), "try_join", Kind::Join),
            // The pure getters are forwarded but are not calls into a
            // layer: no kind may be charged (checked below via `count`).
            (|c| assert_eq!(c.vtime(), 7), "", Kind::Tick),
            (|c| assert_eq!(c.logical_clock(), 9), "", Kind::Tick),
        ];
        for (call, name, kind) in cases {
            let (mock, got) = run_wrapped(Box::new(move |c| call(c)), false);
            let totals = got.totals();
            if name.is_empty() {
                assert!(mock.calls.is_empty());
                assert!(totals.iter().all(|a| a.count == 0));
                continue;
            }
            assert_eq!(mock.calls, [name], "{name} must reach the runtime once");
            for k in Kind::ALL {
                let want = u64::from(k == kind);
                let a = &totals[k as usize];
                assert_eq!(a.count, want, "{name} counted under {k:?}");
                assert_eq!(a.timed, want, "{name} timed under {k:?}");
            }
        }
    }

    #[test]
    fn spawned_jobs_are_wrapped_recursively() {
        let (mock, got) = run_wrapped(
            Box::new(|c| {
                c.spawn(Box::new(|c| {
                    c.mutex_lock(MutexId(0));
                    c.spawn(Box::new(|c| c.barrier_wait(BarrierId(0))));
                }));
                c.join(Tid(1));
            }),
            true,
        );
        assert_eq!(
            mock.calls,
            ["spawn", "mutex_lock", "spawn", "barrier_wait", "join"]
        );
        let mut tids: Vec<u32> = got.threads.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, [0, 1, 2]);
        let of = |tid: u32, k: Kind| {
            let t = got.threads.iter().find(|t| t.tid == tid).unwrap();
            t.kinds[k as usize].count
        };
        assert_eq!(of(0, Kind::Spawn), 1);
        assert_eq!(of(0, Kind::Join), 1);
        assert_eq!(of(1, Kind::MutexLock), 1);
        assert_eq!(of(1, Kind::Spawn), 1);
        assert_eq!(of(2, Kind::BarrierWait), 1);
        // One thread span per thread plus one span per sync call, each
        // call inside its thread's span.
        assert_eq!(got.spans.iter().filter(|s| s.kind.is_none()).count(), 3);
        assert_eq!(got.spans.iter().filter(|s| s.kind.is_some()).count(), 5);
        for s in got.spans.iter().filter(|s| s.kind.is_some()) {
            let parent = got
                .spans
                .iter()
                .find(|p| p.kind.is_none() && p.tid == s.tid)
                .unwrap();
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
    }

    #[test]
    fn call_time_plus_self_time_is_the_thread_span() {
        let (_, got) = run_wrapped(
            Box::new(|c| {
                for i in 0..200 {
                    c.tick(1);
                    let _ = c.ld_u64(8 * i);
                    c.mutex_lock(MutexId(0));
                    c.st_u64(8 * i, 1);
                    c.mutex_unlock(MutexId(0));
                }
            }),
            false,
        );
        for t in &got.threads {
            let sum = t.call_ns() + t.self_ns();
            assert!((sum - t.span_ns as f64).abs() < 1e-6 * t.span_ns as f64);
            // Exact sync time can never exceed the span it sits in.
            let sync =
                t.kinds[Kind::MutexLock as usize].ns + t.kinds[Kind::MutexUnlock as usize].ns;
            assert!(sync <= t.span_ns);
            // Only sampled kinds carry an empty-span share.
            assert_eq!(t.kinds[Kind::MutexLock as usize].empty_ns, 0);
        }
    }

    #[test]
    fn an_interrupted_access_sample_is_dropped_and_still_counted() {
        let col = Collector::new(false);
        let mut mock = Mock::new();
        mock.nap = std::time::Duration::from_nanos(2 * INTERRUPTED_NS);
        let job: Job = Box::new(|c| {
            c.tick(1);
            c.mutex_lock(MutexId(0));
        });
        wrap_job(job, Arc::clone(&col))(&mut mock);
        let got = col.take();
        let totals = got.totals();
        // The first access is the sampled one; it took too long to have
        // been an access.
        let tick = &totals[Kind::Tick as usize];
        assert_eq!((tick.count, tick.timed), (1, 0));
        assert_eq!(tick.est_ns(Kind::Tick), 0.0);
        // A sync call may take as long as it likes.
        let lock = &totals[Kind::MutexLock as usize];
        assert_eq!((lock.count, lock.timed), (1, 1));
        assert!(lock.ns >= 2 * INTERRUPTED_NS);
        // The dropped interval is the thread's own time.
        let t = &got.threads[0];
        assert!(t.self_ns() >= (2 * INTERRUPTED_NS) as f64);
    }

    #[test]
    fn strided_kinds_are_counted_always_and_scaled_back() {
        let job = || -> Job {
            Box::new(|c| {
                for _ in 0..10 * STRIDE {
                    let _ = c.ld_u64(0);
                }
                for _ in 0..STRIDE + 1 {
                    c.tick(1);
                }
            })
        };
        let (mock, got) = run_wrapped(job(), false);
        assert_eq!(mock.calls.len() as u64, 11 * STRIDE + 1);
        // The same calls are sampled on every run.
        let again = run_wrapped(job(), false).1.totals();
        assert_eq!(
            again[Kind::Read as usize].timed,
            got.totals()[Kind::Read as usize].timed
        );
        let totals = got.totals();
        // Every call is counted; the first is sampled, then one every
        // STRIDE/2 + 1 ..= 3*STRIDE/2 calls.
        let reads = &totals[Kind::Read as usize];
        assert_eq!(reads.count, 10 * STRIDE);
        assert!((7..=20).contains(&reads.timed), "{}", reads.timed);
        let ticks = &totals[Kind::Tick as usize];
        assert_eq!(ticks.count, STRIDE + 1);
        assert!((1..=2).contains(&ticks.timed), "{}", ticks.timed);

        // 10 samples of 1000 ns each, 100 ns of which is the timer:
        // 640 calls x 900 ns.
        let acc = KindAcc {
            count: 640,
            timed: 10,
            ns: 10_000,
            empty_ns: 1_000,
            hist: [0; 64],
        };
        assert_eq!(acc.est_ns(Kind::Read), 576_000.0);
        // A sync kind is summed, not scaled; samples no longer than the
        // timer estimate to zero, never below.
        assert_eq!(acc.est_ns(Kind::MutexLock), 10_000.0);
        let all_timer = KindAcc {
            empty_ns: 50_000,
            ..acc
        };
        assert_eq!(all_timer.est_ns(Kind::Read), 0.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut a = KindAcc::default();
        for ns in [0, 1, 1000, 1500, 2000, 3000] {
            a.count += 1;
            a.record(ns, 0);
        }
        assert_eq!(a.hist[0], 2); // 0 and 1
        assert_eq!(a.hist[9], 1); // 512..1024
        assert_eq!(a.hist[10], 2); // 1024..2048
        assert_eq!(a.hist[11], 1); // 2048..4096
        assert_eq!(a.quantile_ns(1.0), 4096.0);
        // Rank 3 of 6 is the single sample of bucket 9: its upper edge.
        assert_eq!(a.quantile_ns(0.5), 1024.0);
        assert_eq!(KindAcc::default().quantile_ns(0.99), 0.0);
    }
}
