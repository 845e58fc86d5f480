//! Seeded fault injection: the adversarial half of the determinism
//! contract.
//!
//! The paper's central claim (§2.1, §3.5) is that a Consequence schedule is
//! a pure function of the program — invariant under arbitrary *physical*
//! timing. [`crate::trace`] records that schedule; this module attacks it.
//! Runtimes carry a [`PerturbHandle`] in [`crate::CommonConfig`] and call
//! [`PerturbHandle::hit`] at their timing-sensitive hook points
//! (pre-token-acquire, commit/update, page faults, barrier phases, …). An
//! attached [`Perturber`] then injects both
//!
//! 1. **real delays** — OS yields, spin waits, occasional micro-sleeps —
//!    which shuffle the physical interleaving of runtime threads, and
//! 2. **virtual-time charges** — returned cycles the caller books as
//!    library overhead — which stress the cost model's wake-time
//!    propagation,
//!
//! plus forced early/late counter-overflow publication
//! ([`Perturber::overflow_interval`]) and spurious condition-variable
//! wake-ups ([`Perturber::spurious_wake`]).
//!
//! None of these may move a deterministic runtime's schedule hash: token
//! grant order is a function of logical clocks and thread ids only (see
//! `det-clock`'s `SchedTable::eligible`), virtual time `v` feeds only
//! wake-time bookkeeping, and publications are auxiliary (counted, never
//! hashed) events. The `dmt-stress` harness turns that argument into an
//! executable oracle: for every perturbation seed the schedule hash must be
//! bit-identical to the unperturbed run. See `docs/STRESS.md`.
//!
//! The default handle is off; every hook site then costs one branch, so
//! benchmark figures are unaffected.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hash::Fnv1a;
use crate::ids::Tid;

crate::named_enum! {
    /// An injection point inside a runtime.
    ///
    /// Sites identify *where* in the runtime a perturbation fires, so plans can
    /// be shrunk site-by-site to a minimal reproducer.
    pub enum PerturbSite, fn name {
        /// Just before a thread queues for the global token / RR turn.
        TokenAcquire => "token_acquire",
        /// Counter-overflow publication timing (early/late interval bias).
        Overflow => "overflow",
        /// Before committing dirty pages to the version chain.
        Commit => "commit",
        /// Before applying remote versions to the local workspace.
        Update => "update",
        /// On a copy-on-write page fault.
        Fault => "fault",
        /// At barrier arrival / departure phase edges.
        Barrier => "barrier",
        /// Spurious condition-variable / wake-flag notification attempts.
        CondWake => "cond_wake",
        /// DThreads fence phase edges (arrival, serial turn, parallel resume).
        Fence => "fence",
        /// pthreads lock paths — stirs the negative control's OS scheduling.
        LockPath => "lock_path",
    }
}

crate::named_enum! {
    /// A workload-visible operation at which a panic can be injected.
    ///
    /// Unlike [`PerturbSite`] hook points — which may only move *real* time —
    /// panic injection kills the calling thread at a deterministic point in
    /// its own instruction stream (the N-th lock / barrier / commit *that
    /// thread* performs). The resulting death is therefore itself a
    /// deterministic event, and the runtime's containment of it (poison
    /// delivery, token reclamation, `ThreadPanicked` joins) must reproduce
    /// bit-identical surviving-thread schedules across reruns of the same
    /// seed. See `docs/ROBUSTNESS.md`.
    pub enum PanicSite, fn name {
        /// On entry to `mutex_lock` (the injected thread may already hold
        /// other mutexes — the poison path).
        Lock => "lock",
        /// On entry to `barrier_wait` (kills a barrier party — the broken-
        /// barrier path).
        Barrier => "barrier",
        /// On entry to a commit (the injected thread holds the global token —
        /// the token-reclamation path).
        Commit => "commit",
    }
}

impl PanicSite {
    /// Stable 1-based wire code, as stored in trace metadata (0 there
    /// means "no injected panic", so codes start at 1).
    pub fn code(self) -> u64 {
        self as u64 + 1
    }

    /// Parses a [`code`](PanicSite::code) back into a site. `Some` only
    /// for codes this build knows.
    pub fn from_code(code: u64) -> Option<PanicSite> {
        match code {
            0 => None,
            n => PanicSite::ALL.get(n as usize - 1).copied(),
        }
    }
}

/// Unwind payload of an injected panic, so harnesses can tell their own
/// injected deaths apart from genuine workload bugs.
#[derive(Clone, Debug)]
pub struct InjectedPanic {
    /// The site class the panic fired at.
    pub site: PanicSite,
    /// Which occurrence on the dying thread (0-based).
    pub nth: u64,
}

impl fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected panic at {} #{}", self.site, self.nth)
    }
}

/// A fault injector attached to a runtime.
///
/// Implementations may sleep, yield or spin inside [`hit`](Perturber::hit)
/// (that is the point), and must be callable concurrently from every
/// runtime thread. They must **never** touch logical clocks or any other
/// schedule-ordering input — only real time and the returned virtual-cycle
/// charge.
pub trait Perturber: Send + Sync {
    /// Fires the injection point `site` on thread `tid`. Performs any real
    /// delay internally and returns virtual cycles the caller should charge
    /// to the thread as library overhead (0 = no charge).
    fn hit(&self, site: PerturbSite, tid: Tid) -> u64;

    /// Biases the next counter-overflow interval (§3.2): given the
    /// policy-chosen `interval`, returns the interval to actually use
    /// (forced early when smaller, late when larger). Must be ≥ 1.
    fn overflow_interval(&self, tid: Tid, interval: u64) -> u64 {
        let _ = tid;
        interval
    }

    /// Whether the caller should issue a spurious wake-up now (condvar
    /// broadcast / wake-flag notify with no state change). Waiters must
    /// re-check their predicates and go back to sleep.
    fn spurious_wake(&self, tid: Tid) -> bool {
        let _ = tid;
        false
    }

    /// Whether thread `tid` should panic now, at its `nth` (0-based)
    /// operation of class `site`. Decisions must be a pure function of
    /// `(site, tid, nth)` — never of real time or a shared draw counter —
    /// so the injected death lands at the same point in the dying thread's
    /// instruction stream on every rerun. Default: never.
    fn panic_at(&self, site: PanicSite, tid: Tid, nth: u64) -> bool {
        let _ = (site, tid, nth);
        false
    }

    /// Master seed of the driving plan (0 when not plan-driven).
    fn seed(&self) -> u64 {
        0
    }

    /// FNV-1a digest of the driving plan (0 when not plan-driven).
    fn plan_digest(&self) -> u64 {
        0
    }

    /// The single `(site, victim, nth)` panic this perturber injects, if
    /// it injects exactly one. Recorders stamp this into trace metadata
    /// so a salvaged crashed run carries its own panic reproducer;
    /// perturbers that inject no panics (the default) or more than one
    /// return `None`.
    fn panic_triple(&self) -> Option<(PanicSite, Tid, u64)> {
        None
    }
}

/// A [`Perturber`] injecting exactly one predetermined panic — thread
/// `victim` dies at its `nth` operation of class `site` — while
/// delegating every timing decision to an inner perturber. This is the
/// executor replay builds from a trace's recorded panic triple: the
/// replayed run re-injects the same deterministic death the recording
/// contained.
pub struct FixedPanic {
    /// Operation class the panic fires at.
    pub site: PanicSite,
    /// The thread that dies.
    pub victim: Tid,
    /// 0-based occurrence index on the victim.
    pub nth: u64,
    /// Timing perturber everything else is delegated to
    /// ([`PerturbHandle::off`] for an unperturbed recording).
    pub inner: PerturbHandle,
}

impl Perturber for FixedPanic {
    fn hit(&self, site: PerturbSite, tid: Tid) -> u64 {
        self.inner.hit(site, tid)
    }

    fn overflow_interval(&self, tid: Tid, interval: u64) -> u64 {
        self.inner.overflow_interval(tid, interval)
    }

    fn spurious_wake(&self, tid: Tid) -> bool {
        self.inner.spurious_wake(tid)
    }

    fn panic_at(&self, site: PanicSite, tid: Tid, nth: u64) -> bool {
        site == self.site && tid == self.victim && nth == self.nth
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn plan_digest(&self) -> u64 {
        self.inner.plan_digest()
    }

    fn panic_triple(&self) -> Option<(PanicSite, Tid, u64)> {
        Some((self.site, self.victim, self.nth))
    }
}

/// One enabled injection site in a [`PerturbPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerturbEntry {
    /// Which hook points this entry drives.
    pub site: PerturbSite,
    /// Per-site seed for the LCG draw stream.
    pub seed: u64,
    /// Intensity 0..=3: scales the virtual-cycle charge bound.
    pub intensity: u8,
}

/// A shrinkable fault-injection plan: the set of enabled sites with their
/// seeds. The `dmt-stress` shrinker minimizes a failing plan by deleting
/// entries (bisection over sites) and then canonicalizing the per-site
/// seeds, so a reproducer is "this plan, this workload, this runtime".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerturbPlan {
    /// The master seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Enabled sites. An empty plan perturbs nothing.
    pub entries: Vec<PerturbEntry>,
}

impl PerturbPlan {
    /// The full-strength plan: every site enabled, per-site seeds derived
    /// from `seed`.
    pub fn full(seed: u64) -> PerturbPlan {
        let entries = PerturbSite::ALL
            .iter()
            .map(|&site| PerturbEntry {
                site,
                seed: mix(seed ^ lcg(site as u64 + 1)),
                intensity: 2,
            })
            .collect();
        PerturbPlan { seed, entries }
    }

    /// A plan enabling only the given sites (seeds derived from `seed`).
    pub fn only(seed: u64, sites: &[PerturbSite]) -> PerturbPlan {
        let mut p = PerturbPlan::full(seed);
        p.entries.retain(|e| sites.contains(&e.site));
        p
    }

    /// FNV-1a digest over the master seed and every entry — the plan's
    /// identity in reports and reproducers.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update_u64(self.seed);
        for e in &self.entries {
            h.update_u64(e.site as u64);
            h.update_u64(e.seed);
            h.update_u64(e.intensity as u64);
        }
        h.digest()
    }

    /// Whether the plan perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for PerturbPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan(seed={:#x})[", self.seed)?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}:{:#x}/i{}", e.site, e.seed, e.intensity)?;
        }
        f.write_str("]")
    }
}

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_ADD: u64 = 1_442_695_040_888_963_407;

/// One step of Knuth's 64-bit LCG.
#[inline]
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD)
}

/// SplitMix64 finalizer: diffuses LCG state into usable bits.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// The standard [`Perturber`]: a seeded-LCG executor of a [`PerturbPlan`].
///
/// Each draw mixes the entry's seed, the thread id and a process-global
/// draw counter. The counter is deliberately racy: the *pattern* of delays
/// is allowed to depend on physical interleaving — a correct deterministic
/// runtime must shrug off even adaptive adversarial timing.
pub struct PlanPerturber {
    plan: PerturbPlan,
    digest: u64,
    /// Per-site `(seed, intensity)` when enabled, indexed by site discriminant.
    sites: [Option<(u64, u8)>; PerturbSite::ALL.len()],
    draws: AtomicU64,
}

impl PlanPerturber {
    /// Builds an executor for `plan`. Duplicate sites: the last entry wins.
    pub fn new(plan: PerturbPlan) -> PlanPerturber {
        let mut sites = [None; PerturbSite::ALL.len()];
        for e in &plan.entries {
            sites[e.site as usize] = Some((e.seed, e.intensity.min(3)));
        }
        PlanPerturber {
            digest: plan.digest(),
            plan,
            sites,
            draws: AtomicU64::new(0),
        }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &PerturbPlan {
        &self.plan
    }

    /// A fresh handle running the full-strength plan for `seed` — the
    /// common case in stress drivers and tests.
    pub fn handle(seed: u64) -> PerturbHandle {
        PerturbHandle::to(Arc::new(PlanPerturber::new(PerturbPlan::full(seed))))
    }

    #[inline]
    fn draw(&self, site_seed: u64, tid: Tid) -> u64 {
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        mix(site_seed ^ lcg(tid.0 as u64 + 1) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Burn real time according to draw `r`: mostly nothing or a yield,
    /// sometimes a spin, rarely a micro-sleep (sleeps force an actual
    /// reschedule even on an idle box, but are costly enough to ration).
    fn stall(r: u64) {
        match r & 7 {
            0..=3 => {}
            4 | 5 => {
                for _ in 0..=((r >> 3) & 3) {
                    std::thread::yield_now();
                }
            }
            6 => {
                for _ in 0..((r >> 3) & 0x3ff) {
                    std::hint::spin_loop();
                }
            }
            _ => {
                if r & 0x1f00 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(20 + ((r >> 13) & 31)));
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl Perturber for PlanPerturber {
    fn hit(&self, site: PerturbSite, tid: Tid) -> u64 {
        let Some((seed, intensity)) = self.sites[site as usize] else {
            return 0;
        };
        let r = self.draw(seed, tid);
        Self::stall(r);
        // Virtual charge in 0..(250 << intensity); about half the draws
        // charge nothing so charged and uncharged paths interleave.
        if r & 1 == 0 {
            (r >> 16) % (250u64 << intensity)
        } else {
            0
        }
    }

    fn overflow_interval(&self, tid: Tid, interval: u64) -> u64 {
        let Some((seed, _)) = self.sites[PerturbSite::Overflow as usize] else {
            return interval;
        };
        let r = self.draw(seed, tid);
        let interval = interval.max(1);
        match r & 3 {
            0 => interval,
            // Forced early: publish after a fraction of the interval.
            1 => (interval >> (1 + ((r >> 8) % 6))).max(1),
            // Forced late: stretch the interval.
            2 => interval.saturating_mul(2 + ((r >> 8) & 7)),
            // Degenerate: near-constant tiny interval (publication storm).
            _ => 1 + ((r >> 8) & 15),
        }
    }

    fn spurious_wake(&self, tid: Tid) -> bool {
        let Some((seed, _)) = self.sites[PerturbSite::CondWake as usize] else {
            return false;
        };
        self.draw(seed, tid) & 3 == 0
    }

    fn seed(&self) -> u64 {
        self.plan.seed
    }

    fn plan_digest(&self) -> u64 {
        self.digest
    }
}

/// A cloneable, optionally-absent perturber reference carried in
/// [`crate::CommonConfig`], mirroring [`crate::TraceHandle`]. The default
/// is off; every hook site then costs one branch.
#[derive(Clone, Default)]
pub struct PerturbHandle(Option<Arc<dyn Perturber>>);

impl PerturbHandle {
    /// Fault injection disabled (the default).
    pub fn off() -> PerturbHandle {
        PerturbHandle(None)
    }

    /// Fault injection through `p`.
    pub fn to(p: Arc<dyn Perturber>) -> PerturbHandle {
        PerturbHandle(Some(p))
    }

    /// Whether a perturber is attached.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Fires `site` and returns the virtual-cycle charge (0 when off).
    /// Callers with virtual-time accounting book the charge as library
    /// overhead — never through the logical clock.
    #[inline]
    pub fn hit(&self, site: PerturbSite, tid: Tid) -> u64 {
        match &self.0 {
            Some(p) => p.hit(site, tid),
            None => 0,
        }
    }

    /// Fires `site` for its real-time effect only, discarding the charge.
    /// For layers without virtual-time accounting (the `conversion`
    /// versioned-memory substrate).
    #[inline]
    pub fn jitter(&self, site: PerturbSite, tid: Tid) {
        if let Some(p) = &self.0 {
            p.hit(site, tid);
        }
    }

    /// Biases a counter-overflow interval (identity when off).
    #[inline]
    pub fn overflow_interval(&self, tid: Tid, interval: u64) -> u64 {
        match &self.0 {
            Some(p) => p.overflow_interval(tid, interval).max(1),
            None => interval,
        }
    }

    /// Whether to issue a spurious wake-up now (never when off).
    #[inline]
    pub fn spurious_wake(&self, tid: Tid) -> bool {
        match &self.0 {
            Some(p) => p.spurious_wake(tid),
            None => false,
        }
    }

    /// Whether `tid` should panic at its `nth` operation of class `site`
    /// (never when off). See [`Perturber::panic_at`].
    #[inline]
    pub fn panic_at(&self, site: PanicSite, tid: Tid, nth: u64) -> bool {
        match &self.0 {
            Some(p) => p.panic_at(site, tid, nth),
            None => false,
        }
    }

    /// The attached perturber's single injected panic, if any (`None`
    /// when off). See [`Perturber::panic_triple`].
    pub fn panic_triple(&self) -> Option<(PanicSite, Tid, u64)> {
        self.0.as_ref().and_then(|p| p.panic_triple())
    }

    /// Master seed of the attached plan (0 when off).
    pub fn seed(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.seed())
    }

    /// Plan digest of the attached plan (0 when off).
    pub fn plan_digest(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.plan_digest())
    }
}

crate::named_enum! {
    /// A storage-fault class the trace-chaos harness injects under a
    /// recording's [`TraceMedia`](crate::trace) — exercising the salvage
    /// path with every way a real disk write dies mid-run.
    pub enum IoFaultKind, fn name {
        /// The medium absorbs only part of a write, then fails — a torn
        /// page in the middle of the stream.
        ShortWrite => "short_write",
        /// Every write past the trigger point fails with `ENOSPC`.
        NoSpace => "no_space",
        /// Writes past the trigger point are silently dropped (the classic
        /// lost-tail tear: the file *looks* fine until its digests are
        /// checked).
        TornTail => "torn_tail",
    }
}

/// One seeded storage fault: `kind` fires once the medium has absorbed
/// `at_byte` bytes. Like every perturbation in this module the fault is
/// a pure function of its seed, so a chaos cell that found a
/// non-reproducing salvage is itself reproducible from the seed alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// The fault class to inject.
    pub kind: IoFaultKind,
    /// Byte position at which the medium starts failing.
    pub at_byte: u64,
}

impl IoFaultPlan {
    /// Derives a fault plan from `seed`: the kind cycles through
    /// [`IoFaultKind::ALL`] and the trigger offset lands anywhere from
    /// inside the header to several event pages deep.
    pub fn from_seed(seed: u64) -> IoFaultPlan {
        let r = mix(lcg(seed ^ 0x10FA_017E));
        IoFaultPlan {
            kind: IoFaultKind::ALL[(r % 3) as usize],
            at_byte: (r >> 8) % (48 * 1024),
        }
    }
}

impl fmt::Display for IoFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.at_byte)
    }
}

impl fmt::Debug for PerturbHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "PerturbHandle(on)"
        } else {
            "PerturbHandle(off)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    #[test]
    fn full_plan_covers_every_site_with_distinct_seeds() {
        let p = PerturbPlan::full(7);
        assert_eq!(p.entries.len(), PerturbSite::ALL.len());
        for (e, s) in p.entries.iter().zip(PerturbSite::ALL) {
            assert_eq!(e.site, s);
        }
        let mut seeds: Vec<u64> = p.entries.iter().map(|e| e.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            PerturbSite::ALL.len(),
            "per-site seeds collide"
        );
    }

    #[test]
    fn digest_identifies_the_plan() {
        let a = PerturbPlan::full(1);
        let b = PerturbPlan::full(2);
        assert_ne!(a.digest(), b.digest());
        let mut shrunk = a.clone();
        shrunk.entries.remove(0);
        assert_ne!(a.digest(), shrunk.digest());
        assert_eq!(a.digest(), PerturbPlan::full(1).digest());
    }

    /// Every named set keeps its declaration order as its discriminants
    /// and names each member once, and `PanicSite::from_code` inverts its
    /// codes.
    #[test]
    fn site_names_round_trip() {
        macro_rules! sets {
            ($($set:ident),+) => {[$(
                (stringify!($set), $set::ALL.map(|m| (m as usize, m.name(), m.to_string())).to_vec())
            ),+]};
        }
        for (set, members) in sets!(EventKind, PerturbSite, PanicSite, IoFaultKind) {
            let mut names = std::collections::HashSet::new();
            for (i, (tag, name, shown)) in members.into_iter().enumerate() {
                assert_eq!((tag, shown.as_str()), (i, name), "{set}::ALL[{i}]");
                assert!(names.insert(name), "{set} names {name} twice");
            }
        }
        for s in PanicSite::ALL {
            assert_eq!(PanicSite::from_code(s.code()), Some(s));
        }
        assert_eq!(PanicSite::from_code(0), None);
    }

    #[test]
    fn off_handle_is_inert() {
        let h = PerturbHandle::off();
        assert!(!h.enabled());
        assert_eq!(h.hit(PerturbSite::Commit, Tid(3)), 0);
        assert_eq!(h.overflow_interval(Tid(0), 5_000), 5_000);
        assert!(!h.spurious_wake(Tid(0)));
        assert!(!h.panic_at(PanicSite::Lock, Tid(0), 0));
        assert_eq!(h.seed(), 0);
        assert_eq!(h.plan_digest(), 0);
    }

    #[test]
    fn panic_injection_defaults_off_for_plan_perturbers() {
        // PlanPerturber drives timing perturbations only; panic injection
        // is a separate, deterministic decision and must not be implied by
        // a timing plan.
        let p = PlanPerturber::new(PerturbPlan::full(5));
        for site in PanicSite::ALL {
            for n in 0..32 {
                assert!(!p.panic_at(site, Tid(1), n));
            }
        }
    }

    #[test]
    fn disabled_sites_do_not_fire() {
        let p = PlanPerturber::new(PerturbPlan::only(9, &[PerturbSite::Commit]));
        for _ in 0..64 {
            assert_eq!(p.hit(PerturbSite::TokenAcquire, Tid(1)), 0);
            assert_eq!(p.overflow_interval(Tid(1), 100), 100);
            assert!(!p.spurious_wake(Tid(1)));
        }
    }

    #[test]
    fn charges_are_bounded_by_intensity() {
        let mut plan = PerturbPlan::only(11, &[PerturbSite::Fault]);
        plan.entries[0].intensity = 1;
        let p = PlanPerturber::new(plan);
        for _ in 0..256 {
            assert!(p.hit(PerturbSite::Fault, Tid(0)) < 500);
        }
    }

    #[test]
    fn overflow_bias_keeps_intervals_positive() {
        let h = PlanPerturber::handle(0xdead_beef);
        for i in 0..256u64 {
            assert!(h.overflow_interval(Tid((i % 7) as u32), 5_000) >= 1);
            assert!(h.overflow_interval(Tid(0), 1) >= 1);
        }
    }

    #[test]
    fn handle_reports_seed_and_digest() {
        let h = PlanPerturber::handle(42);
        assert_eq!(h.seed(), 42);
        assert_eq!(h.plan_digest(), PerturbPlan::full(42).digest());
        assert!(h.enabled());
    }

    #[test]
    fn fixed_panic_forwards_timing_and_fires_only_its_own_triple() {
        let triple = (PanicSite::Barrier, Tid(2), 4);
        let f = FixedPanic {
            site: triple.0,
            victim: triple.1,
            nth: triple.2,
            inner: PlanPerturber::handle(21),
        };
        // A second executor of the same plan makes the same draws in the
        // same order, so any call `f` answers itself desynchronises them.
        let twin = PlanPerturber::new(PerturbPlan::full(21));
        for i in 0..64 {
            let tid = Tid(i % 3);
            let site = PerturbSite::ALL[i as usize % PerturbSite::ALL.len()];
            assert_eq!(f.hit(site, tid), twin.hit(site, tid));
            assert_eq!(
                f.overflow_interval(tid, 5_000),
                twin.overflow_interval(tid, 5_000)
            );
            assert_eq!(f.spurious_wake(tid), twin.spurious_wake(tid));
        }
        assert_eq!(f.seed(), 21);
        assert_eq!(f.plan_digest(), PerturbPlan::full(21).digest());
        assert_eq!(f.panic_triple(), Some(triple));
        for site in PanicSite::ALL {
            for tid in (0..4).map(Tid) {
                for nth in 0..8 {
                    assert_eq!(f.panic_at(site, tid, nth), (site, tid, nth) == triple);
                }
            }
        }
    }

    #[test]
    fn spurious_wakes_fire_sometimes_but_not_always() {
        let p = PlanPerturber::new(PerturbPlan::full(3));
        let fired = (0..512).filter(|_| p.spurious_wake(Tid(2))).count();
        assert!(fired > 0, "spurious wakes never fire");
        assert!(fired < 512, "spurious wakes always fire");
    }
}
