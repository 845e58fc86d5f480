//! The per-thread protocol engine: Consequence's implementation of
//! [`ThreadCtx`].
//!
//! Every synchronization operation follows the paper's token discipline
//! (Figures 7–9): pause the clock, acquire the global token when eligible
//! under the deterministic order, commit/update versioned memory, perform
//! the operation, release the token. Adaptive coarsening (§3.1) short-cuts
//! this by *retaining* the token across operations and deferring the
//! commit, which is safe precisely because the token holder is the only
//! thread that can commit: its isolated view stays current.
//!
//! That shape is written once, in [`token`]: `acquire_token`, then one of
//! the consuming ends `commit_and_leave` / `leave_locked` / `end_op` /
//! `park`, with `wake` for every hand-off to a blocked thread. The
//! primitives of §4 — [`mutex`], [`cond`], [`barrier`], [`rwlock`],
//! [`thread`] (spawn / join / exit) — and the containment protocol in
//! [`abort`] only say what happens to their own state in between. There
//! is deliberately no `Drop` that releases the token: a thread that dies
//! mid-section must still hold it when its containment protocol runs.
//! This file keeps the context itself, the logical clock (`advance`,
//! `maybe_publish`), memory operations and the trait dispatch.

mod abort;
mod barrier;
mod cond;
mod mutex;
mod rwlock;
mod thread;
mod token;

use std::sync::Arc;

use conversion::Workspace;
use det_clock::{OrderPolicy, OverflowPolicy};
use dmt_api::trace::Event;
use dmt_api::{
    Addr, BarrierId, Breakdown, CachePadded, CondId, ContainedError, CostModel, Counters, DmtError,
    DmtResult, Job, MutexId, PanicSite, PerturbSite, RwLockId, ThreadCtx, Tid,
};

use crate::coarsen::{CoarsenState, BUDGET_CAP, INITIAL_BUDGET, MIN_BUDGET};
use crate::shared::{Msg, Shared, Wakes};

/// Consequence's per-thread execution context.
///
/// It borrows the runtime from the thread that runs it (`Runtime::run`,
/// `worker_loop`), which holds the `Arc` for longer: a protocol step copies
/// the reference, so that `self` stays mutable while a [`Held`] guard
/// lives, and touches no reference count.
///
/// [`Held`]: crate::shared::Held
pub(crate) struct Ctx<'a> {
    sh: &'a Arc<Shared>,
    tid: Tid,
    /// Taken at [`Ctx::finish`] (pooled or dropped); always `Some` before.
    ws: Option<Workspace>,
    /// Channel with which this worker re-pools itself at exit (§3.3);
    /// `None` for the main thread and for non-pooling configurations.
    pool_tx: Option<std::sync::mpsc::Sender<Msg>>,
    /// Deterministic logical clock (retired user instructions).
    clock: u64,
    /// Virtual time in cycles.
    v: u64,
    /// Logical clock at which the next publication fires.
    next_pub: u64,
    ovf: OverflowPolicy,
    coarsen: CoarsenState,
    /// True between token acquisition and release — including across
    /// coarsened synchronization operations.
    holding_token: bool,
    /// Whether `commit_and_update` has run since the current token
    /// acquisition, i.e. the isolated view is current. A coarsened run may
    /// only begin from a current view (Fig. 6 keeps the first global
    /// coordination phase whole; only subsequent phases are merged).
    current_since_acquire: bool,
    /// Logical clock when the token was acquired (coarsening budget).
    token_start_clock: u64,
    last_sync_end_clock: u64,
    chunk_start_clock: u64,
    /// `Options::chunk_limit` (§2.7), `u64::MAX` when there is none: a chunk
    /// never gets that long, so the one comparison serves both.
    chunk_limit: u64,
    bd: Breakdown,
    /// Cache-padded so neighbouring threads' hot counter lines never
    /// false-share when contexts live in adjacent allocations.
    cnt: CachePadded<Counters>,
    cost: CostModel,
    /// Per-[`PanicSite`] injection counters, indexed by site position in
    /// [`PanicSite::ALL`]. The decision to panic is a pure function of
    /// `(site, tid, nth)`, so the injected schedule is reproducible.
    inject_counts: [u64; PanicSite::ALL.len()],
    /// Set while the exit/abort protocol runs: injection must not fire
    /// inside teardown (it would unwind out of a consumed context), and a
    /// nested failure during containment falls through to the quiet path.
    suppress_inject: bool,
    /// The containment teardown decremented `live` and filed reports; a
    /// later quiet pass must not double-count.
    torn_down: bool,
    /// Threads this token holder has [`Ctx::wake`]d: they need the token,
    /// so they are unparked when it is released (rule 2 of `Parking`).
    pending: Wakes,
}

/// Delivers a runtime error through an infallible [`ThreadCtx`] method:
/// unwind with a [`ContainedError`] payload, caught at the thread boundary
/// and turned into deterministic containment.
fn raise(e: DmtError) -> ! {
    std::panic::resume_unwind(Box::new(ContainedError(e)))
}

/// [`raise`]s the error of a fallible protocol path.
#[inline]
fn or_raise<T>(r: DmtResult<T>) -> T {
    r.unwrap_or_else(|e| raise(e))
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        sh: &'a Arc<Shared>,
        tid: Tid,
        ws: Workspace,
        clock: u64,
        v: u64,
        pool_tx: Option<std::sync::mpsc::Sender<Msg>>,
    ) -> Ctx<'a> {
        let opts = &sh.opts;
        let mut ovf = OverflowPolicy::new(opts.base_overflow, opts.adaptive_overflow);
        let next_pub =
            ovf.next_threshold_biased(clock, None, |iv| sh.cfg.perturb.overflow_interval(tid, iv));
        let coarsen =
            CoarsenState::new(INITIAL_BUDGET, MIN_BUDGET, BUDGET_CAP, opts.static_coarsen);
        let cost = sh.cfg.cost;
        let chunk_limit = opts.chunk_limit.unwrap_or(u64::MAX);
        sh.parking.register(tid);
        Ctx {
            sh,
            tid,
            ws: Some(ws),
            pool_tx,
            clock,
            v,
            next_pub,
            ovf,
            coarsen,
            holding_token: false,
            current_since_acquire: false,
            token_start_clock: clock,
            last_sync_end_clock: clock,
            chunk_start_clock: clock,
            chunk_limit,
            bd: Breakdown::default(),
            cnt: CachePadded::new(Counters::default()),
            cost,
            inject_counts: [0; PanicSite::ALL.len()],
            suppress_inject: false,
            torn_down: false,
            pending: Wakes::default(),
        }
    }

    /// Fires a seeded panic-injection site (`stress --inject-panic`).
    /// The unwind carries [`dmt_api::InjectedPanic`] so the boundary can
    /// report what fired. Decisions are pure in `(site, tid, nth)`:
    /// reruns of the same seed panic at the same logical point.
    #[inline]
    fn maybe_inject_panic(&mut self, site: PanicSite) {
        if self.suppress_inject {
            return;
        }
        let idx = site as usize;
        let nth = self.inject_counts[idx];
        self.inject_counts[idx] += 1;
        if self.sh.cfg.perturb.panic_at(site, self.tid, nth) {
            std::panic::resume_unwind(Box::new(dmt_api::InjectedPanic { site, nth }));
        }
    }

    // INVARIANT: `ws` is `Some` from construction until `finish`/`abort`
    // consume the context; no protocol path touches memory after teardown
    // begins (teardown sets `suppress_inject` and never re-enters user
    // code), so this cannot fire on a live context.
    #[allow(clippy::expect_used)]
    #[inline]
    fn ws(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until finish")
    }

    /// Charges `c` virtual cycles of library overhead.
    #[inline]
    fn charge_lib(&mut self, c: u64) {
        self.v += c;
        self.bd.lib += c;
    }

    /// Charges `faults` copy-on-write faults taken by a store.
    #[inline]
    fn charge_faults(&mut self, faults: u64) {
        if faults > 0 {
            let fc = faults * self.cost.fault;
            self.v += fc;
            self.bd.fault += fc;
            self.cnt.faults += faults;
            // Page-fault jitter: copy-on-write handling takes arbitrarily
            // long without affecting what the fault produced.
            self.perturb_hit(PerturbSite::Fault);
        }
    }

    /// Fires a fault-injection site (no-op unless a perturber is attached,
    /// see `dmt_api::perturb`), charging any returned virtual cycles as
    /// library overhead. The charge moves `v` only — never the logical
    /// clock — so token-grant order, and with it the schedule hash, is
    /// unaffected by construction.
    #[inline]
    fn perturb_hit(&mut self, site: PerturbSite) {
        let c = self.sh.cfg.perturb.hit(site, self.tid);
        if c > 0 {
            self.charge_lib(c);
        }
    }

    /// Advances the logical clock and virtual time for user work, firing
    /// publications and the ad-hoc chunk limit as thresholds pass.
    #[inline(always)]
    fn advance(&mut self, dclock: u64, dv: u64) {
        if !self.advance_within(dclock, dv) {
            self.advance_across(dclock, dv);
        }
    }

    /// [`Ctx::advance`] when the advance reaches neither the next
    /// publication nor the chunk limit — every load and store but one in
    /// thousands. Otherwise changes nothing and returns `false`.
    #[inline(always)]
    fn advance_within(&mut self, dclock: u64, dv: u64) -> bool {
        let clock = self.clock.saturating_add(dclock);
        let within = clock < self.next_pub && clock - self.chunk_start_clock < self.chunk_limit;
        if within {
            self.clock = clock;
            self.v += dv;
            self.bd.chunk += dv;
        }
        within
    }

    /// [`Ctx::advance`] for an advance that reaches a publication threshold
    /// or the chunk limit.
    ///
    /// Large advances are split at publication thresholds: a hardware
    /// counter overflows *during* a long chunk, not at its end, and the
    /// interrupt's virtual timestamp must sit at the crossing point —
    /// otherwise a waiter's wake time inherits the whole chunk.
    #[cold]
    #[inline(never)]
    fn advance_across(&mut self, mut dclock: u64, mut dv: u64) {
        while dclock > 0 {
            if self.clock >= self.next_pub {
                // A clock jump (fast-forward, barrier) passed the
                // threshold already; publish and recompute it.
                self.maybe_publish();
                continue;
            }
            if self.clock.saturating_add(dclock) < self.next_pub {
                self.clock += dclock;
                self.v += dv;
                self.bd.chunk += dv;
                break;
            }
            // Advance exactly to the threshold, charging virtual time
            // pro rata, and fire the publication there.
            let step = (self.next_pub - self.clock).min(dclock);
            let vstep = (dv * step).checked_div(dclock).unwrap_or(0);
            self.clock += step;
            self.v += vstep;
            self.bd.chunk += vstep;
            dclock -= step;
            dv -= vstep;
            self.maybe_publish();
        }
        if self.clock - self.chunk_start_clock >= self.chunk_limit {
            self.forced_commit();
        }
    }

    /// [`ThreadCtx::ld_u64`] in full, for the loads its leaf turns away.
    #[cold]
    #[inline(never)]
    fn ld_u64_uncommon(&mut self, addr: Addr) -> u64 {
        let v = self.ws().ld_u64(addr);
        self.advance(1, self.cost.mem_access(8));
        v
    }

    /// [`ThreadCtx::st_u64`] in full: the stores that fault, and the ones
    /// its leaf turns away.
    #[inline(never)]
    fn st_u64_uncommon(&mut self, addr: Addr, val: u64) {
        let faults = self.ws().st_u64(addr, val) as u64;
        self.charge_faults(faults);
        self.advance(1, self.cost.mem_access(8));
    }

    #[inline(never)]
    fn maybe_publish(&mut self) {
        if self.sh.opts.order != OrderPolicy::InstructionCount {
            // Round-robin eligibility ignores clocks entirely; publication
            // would be pure overhead, and the paper's RR systems have none.
            self.next_pub = u64::MAX;
            return;
        }
        if self.holding_token {
            // Nobody can pass the token order while we hold the token;
            // defer publication to the end of the coarsened chunk.
            self.next_pub = self.clock.saturating_add(self.ovf.interval().max(1));
            return;
        }
        self.charge_lib(self.cost.overflow_irq);
        self.cnt.publications += 1;
        // Publications race with other threads' chunks: auxiliary, so the
        // schedule hash only covers token-serialized events.
        self.sh.cfg.trace.emit_aux(Event::Publish {
            tid: self.tid,
            clock: self.clock,
        });
        let sh = self.sh;
        // One lock section: publish, and if that crossed the head waiter's
        // key, wake the successor it may have made eligible (the unpark
        // follows the unlock).
        let mut inner = sh.lock();
        if inner.table.publish(self.tid, self.clock, self.v) {
            inner.wake_successor(self.tid);
        }
        let min_w = sh
            .opts
            .adaptive_overflow
            .then(|| inner.table.min_waiting_other(self.tid))
            .flatten();
        drop(inner);
        let min_w = min_w.map(|(c, _)| c).filter(|c| *c >= self.clock);
        // Publication timing is biased by the fault injector when one is
        // attached (forced early/late overflow); the §3.2 contract —
        // frequency affects real time only, never determinism — makes any
        // bias safe, and the stress harness asserts exactly that.
        let tid = self.tid;
        self.next_pub = self.ovf.next_threshold_biased(self.clock, min_w, |iv| {
            sh.cfg.perturb.overflow_interval(tid, iv)
        });
    }
}

impl ThreadCtx for Ctx<'_> {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn tick(&mut self, n: u64) {
        self.advance(n, n);
    }

    fn vtime(&self) -> u64 {
        self.v
    }

    fn logical_clock(&self) -> u64 {
        self.clock
    }

    fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        self.ws().read_bytes(addr, buf);
        let w = buf.len().div_ceil(8) as u64;
        self.advance(w, self.cost.mem_access(buf.len()));
    }

    fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let faults = self.ws().write_bytes(addr, data) as u64;
        self.charge_faults(faults);
        let w = data.len().div_ceil(8) as u64;
        self.advance(w, self.cost.mem_access(data.len()));
    }

    /// A leaf function for a load inside one mapped page that reaches no
    /// threshold: no frame, no call. `compute_bound` makes nine million of
    /// them between two token grants.
    fn ld_u64(&mut self, addr: Addr) -> u64 {
        let dv = self.cost.mem_access(8);
        match self.ws.as_ref().and_then(|ws| ws.try_ld_u64(addr)) {
            Some(v) if self.advance_within(1, dv) => v,
            _ => self.ld_u64_uncommon(addr),
        }
    }

    /// Likewise for a store to a page this chunk has already faulted.
    fn st_u64(&mut self, addr: Addr, val: u64) {
        if self.ws.as_mut().is_some_and(|ws| ws.try_st_u64(addr, val)) {
            self.advance(1, self.cost.mem_access(8));
        } else {
            self.st_u64_uncommon(addr, val);
        }
    }

    fn mutex_lock(&mut self, m: MutexId) {
        or_raise(self.lock_inner(m))
    }

    fn try_mutex_lock(&mut self, m: MutexId) -> DmtResult<()> {
        self.lock_inner(m)
    }

    fn mutex_unlock(&mut self, m: MutexId) {
        self.unlock_inner(m)
    }

    fn cond_wait(&mut self, c: CondId, m: MutexId) {
        or_raise(self.cond_wait_inner(c, m))
    }

    fn try_cond_wait(&mut self, c: CondId, m: MutexId) -> DmtResult<()> {
        self.cond_wait_inner(c, m)
    }

    fn cond_signal(&mut self, c: CondId) {
        self.cond_wake(c, false)
    }

    fn cond_broadcast(&mut self, c: CondId) {
        self.cond_wake(c, true)
    }

    fn barrier_wait(&mut self, b: BarrierId) {
        self.barrier_inner(b)
    }

    fn rw_read_lock(&mut self, l: RwLockId) {
        self.rw_lock(l, false)
    }

    fn rw_read_unlock(&mut self, l: RwLockId) {
        self.rw_unlock(l, false)
    }

    fn rw_write_lock(&mut self, l: RwLockId) {
        self.rw_lock(l, true)
    }

    fn rw_write_unlock(&mut self, l: RwLockId) {
        self.rw_unlock(l, true)
    }

    /// §2.7: a deterministic atomic — token-protected RMW on the latest
    /// committed state, committed before the token can move on.
    fn atomic_fetch_add_u64(&mut self, addr: Addr, v: u64) -> u64 {
        self.atomic_rmw(addr, |old| old.wrapping_add(v))
    }

    /// §2.7: deterministic compare-and-swap (see `atomic_fetch_add_u64`).
    fn atomic_cas_u64(&mut self, addr: Addr, expect: u64, new: u64) -> u64 {
        self.atomic_rmw(addr, |old| if old == expect { new } else { old })
    }

    fn spawn(&mut self, job: Job) -> Tid {
        self.spawn_inner(job)
    }

    fn join(&mut self, t: Tid) {
        or_raise(self.join_inner(t))
    }

    fn try_join(&mut self, t: Tid) -> DmtResult<()> {
        self.join_inner(t)
    }
}
