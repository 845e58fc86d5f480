//! The sharded runtime: one token domain per shard, rendezvous between
//! epochs.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use consequence::{ConsequenceRuntime, Options};
use dmt_api::trace::{Event, HashSink, MemorySink, TraceSink};
use dmt_api::{
    CommonConfig, CostModel, DomainId, Fnv1a, PerturbHandle, RunReport, Runtime, TraceHandle,
};
use dmt_workloads::server::{DomainPlan, DomainServer, Exchange, ServerSpec};
use dmt_workloads::Params;

use crate::map::ShardMap;

/// What each domain's trace handle captures during a sharded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureMode {
    /// No tracing — benchmark-true event emission cost (one branch).
    Off,
    /// Fold per-domain schedule hashes only (cheap, no event storage).
    Hash,
    /// Buffer every schedule event per domain, for differential testing
    /// and trace recording.
    Events,
}

/// Configuration of a sharded server run.
#[derive(Clone, Debug)]
pub struct ShardCfg {
    /// Shard domain count (1 = the unsharded schedule, bit-identical to
    /// the registry `dmt_server` workload).
    pub shards: u32,
    /// Seed of the [`ShardMap`] assigning keys to domains. Moving a key
    /// moves its sync ops to another domain's token order, so with more
    /// than one shard it is schedule-relevant; the default is 0.
    pub map_seed: u64,
    /// Pool workers per domain.
    pub workers: usize,
    /// Server sizing (`scale` multiplies traffic, `seed` generates it).
    pub params: Params,
    /// Scheduler options for every domain, as an unsharded run takes
    /// them; [`ShardCfg::fingerprint`] adds the shard parameters.
    pub opts: Options,
    /// Trace capture mode.
    pub capture: CaptureMode,
}

impl ShardCfg {
    /// A standard configuration: Consequence-IC domains, hash capture.
    pub fn new(shards: u32, workers: usize, params: Params) -> ShardCfg {
        ShardCfg {
            shards,
            map_seed: 0,
            workers,
            params,
            opts: Options::consequence_ic(),
            capture: CaptureMode::Hash,
        }
    }

    /// The options fingerprint of this run: [`Options::fingerprint`]
    /// continued with the shard parameters. They fold only when they leave
    /// the unsharded default, so a 1-shard run under map seed 0
    /// fingerprints as the unsharded run does, while a sharded recording
    /// is refused by an unsharded replayer and vice versa.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::resume(self.opts.fingerprint());
        if self.shards != 1 || self.map_seed != 0 {
            for word in [0x5AD0, u64::from(self.shards), self.map_seed] {
                h.update_u64(word);
            }
        }
        h.digest()
    }
}

/// The digest of a final store given as `(key, value)` pairs ascending by
/// key: [`ShardReport::store_hash`], and [`reference_store_hash`].
fn store_fold(kv: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut h = Fnv1a::new();
    for (k, v) in kv {
        h.update_u64(k);
        h.update_u64(v);
    }
    h.digest()
}

/// The store digest every run of `spec` must end in: the sequential
/// reference store, folded as [`ShardReport::store_hash`] is.
pub fn reference_store_hash(spec: &ServerSpec) -> u64 {
    store_fold((0..).zip(spec.expected_store()))
}

/// One domain's slice of a [`ShardReport`].
#[derive(Clone, Debug)]
pub struct DomainReport {
    /// The domain.
    pub domain: DomainId,
    /// The domain runtime's report. Its `schedule_hash` is
    /// domain-stamped FNV-1a; for [`DomainId::ROOT`] identical to the
    /// unsharded hash of the same event stream.
    pub run: RunReport,
    /// Buffered `(domain, event)` stream — empty unless
    /// [`CaptureMode::Events`].
    pub events: Vec<(DomainId, Event)>,
    /// Requests this domain served.
    pub processed: u64,
    /// Keys this domain owns.
    pub keys: u64,
    /// Final `(global key, value)` pairs of the domain's store slice.
    pub kv: Vec<(u64, u64)>,
    /// Domain output digest (store + responses + processed).
    pub output_hash: u64,
}

/// The result of a sharded server run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Domains run, ascending.
    pub domains: Vec<DomainReport>,
    /// Combined schedule hash: FNV-1a over `(domain, per-domain hash)` in
    /// domain order. Bit-identical across runs of one configuration.
    pub schedule_hash: u64,
    /// Digest of the final global store, `(key, value)` ascending by key.
    /// **Invariant across shard counts and map seeds** — every mutation
    /// commutes — so it must equal [`reference_store_hash`].
    pub store_hash: u64,
    /// Combined output digest (per-domain output hashes, domain order).
    /// Deterministic per configuration; legitimately differs across shard
    /// counts (`Get` responses depend on serving order).
    pub output_hash: u64,
    /// Combined commit-log digest (per-domain commit-log hashes, domain
    /// order). Deterministic per configuration.
    pub commit_hash: u64,
    /// Requests the configuration was sized for.
    pub requests: u64,
    /// Requests actually served, summed over domains.
    pub processed: u64,
    /// Whether every request was served (`processed == requests`). Always
    /// true unless losses were tolerated (see [`DomainHooks`]).
    pub complete: bool,
    /// Contained panics summed over domains.
    pub panics: u64,
    /// Total sync operations: token acquisitions summed over domains.
    pub sync_ops: u64,
    /// Wall-clock time of the whole run (slowest domain).
    pub wall: Duration,
}

/// A rendezvous gate that tolerates permanent departures.
///
/// Behaves like a reusable [`std::sync::Barrier`] over `parties`
/// participants, except a participant may [`resign`](PhaseGate::resign)
/// forever: every subsequent phase then needs one fewer arrival. Without
/// this, one shard domain dying (an injected panic, a contained fault)
/// would hang every sibling at the next epoch rendezvous — the exact
/// failure the mixed-scenario matrix composes on purpose.
///
/// Determinism: a domain's death epoch is a pure function of `(seed,
/// options)` — panics are injected at deterministic schedule points — so
/// the set of domains attending any given phase, and therefore each
/// phase's outcome, is deterministic even though the *physical* moment of
/// resignation is not. Resignation only ever happens between phases
/// (domain drivers never unwind inside a gate), so a resign can never
/// split one logical phase in two.
pub struct PhaseGate {
    parties: usize,
    st: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Arrivals in the current phase.
    arrived: usize,
    /// Permanent departures (never reset).
    resigned: usize,
    /// Completed-phase counter; waiters sleep until it moves.
    gen: u64,
}

impl PhaseGate {
    /// A gate over `parties` participants.
    pub fn new(parties: usize) -> PhaseGate {
        PhaseGate {
            parties,
            st: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arrives at the current phase and blocks until it completes, i.e.
    /// until every non-resigned participant has arrived.
    pub fn wait(&self) {
        let mut st = self.lock();
        st.arrived += 1;
        if st.arrived + st.resigned >= self.parties {
            st.arrived = 0;
            st.gen += 1;
            // Unlock, then wake: a waiter woken under `st` would run
            // straight into it. `gen` moved under the lock, so no waiter
            // can have missed it.
            drop(st);
            self.cv.notify_all();
            return;
        }
        let gen = st.gen;
        while st.gen == gen {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Permanently withdraws one participant. If the current phase was
    /// only waiting on the resigner, it completes now.
    pub fn resign(&self) {
        let mut st = self.lock();
        st.resigned += 1;
        if st.arrived > 0 && st.arrived + st.resigned >= self.parties {
            st.arrived = 0;
            st.gen += 1;
            drop(st);
            self.cv.notify_all();
        }
    }
}

/// Host-side credit exchange between shard domains.
///
/// Domain drivers call [`Exchange::exchange`] once per epoch. The
/// implementation posts each outgoing credit to its destination domain
/// (routed by the shard map), meets every sibling at a [`PhaseGate`],
/// takes its own inbox, meets them again (so nobody posts epoch `e + 1`
/// credits into an inbox still being drained), and returns the inbox in
/// canonical `(source domain, outbox order)` order. Outbox order is
/// deterministic — each source outbox fills under its domain's token — so
/// the returned credit sequence is a pure function of `(seed, options)`.
///
/// A domain that stops serving early must [`resign`](StdExchange::resign)
/// so the survivors' gates shrink; [`run_sharded_server`] installs a drop
/// guard that does this on every domain exit path.
pub struct StdExchange {
    map: ShardMap,
    post: PhaseGate,
    take: PhaseGate,
    inboxes: Mutex<Vec<Vec<Posted>>>,
}

/// One posted credit: `(source domain, outbox seq, key, amount)`.
type Posted = (usize, usize, u64, u64);

impl StdExchange {
    /// An exchange for the map's domains.
    pub fn new(map: ShardMap) -> StdExchange {
        let n = map.shards() as usize;
        StdExchange {
            map,
            post: PhaseGate::new(n),
            take: PhaseGate::new(n),
            inboxes: Mutex::new(vec![Vec::new(); n]),
        }
    }

    /// Permanently withdraws one domain from both rendezvous gates.
    /// Called exactly once per domain, after its runtime can no longer
    /// call [`Exchange::exchange`].
    pub fn resign(&self) {
        self.post.resign();
        self.take.resign();
    }
}

impl Exchange for StdExchange {
    fn exchange(&self, domain: usize, _epoch: usize, outgoing: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        {
            let mut inboxes = self.inboxes.lock().unwrap_or_else(|e| e.into_inner());
            for (seq, (key, amount)) in outgoing.into_iter().enumerate() {
                let dst = self.map.index_of(key);
                inboxes[dst].push((domain, seq, key, amount));
            }
        }
        self.post.wait();
        let mut mine = {
            let mut inboxes = self.inboxes.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut inboxes[domain])
        };
        self.take.wait();
        mine.sort_unstable_by_key(|&(src, seq, _, _)| (src, seq));
        mine.into_iter().map(|(_, _, k, a)| (k, a)).collect()
    }
}

/// Per-domain instrumentation for [`run_sharded_server_hooked`].
///
/// `perturb` is indexed by domain and padded with off-handles, so the
/// empty default instruments nothing.
#[derive(Clone, Default)]
pub struct DomainHooks {
    /// Fault / panic injectors, one per domain (off when absent).
    pub perturb: Vec<PerturbHandle>,
    /// A sink every domain emits into, schedule and auxiliary events
    /// alike, each stamped with its domain, in place of the one
    /// [`ShardCfg::capture`] names. Shared, it hashes every domain into
    /// one digest: each domain's `run.schedule_hash` is the shared sink's
    /// hash when the domain finished, not the domain's. Its `run.events`
    /// and `run.counters` are the domain's own.
    pub sink: Option<Arc<dyn TraceSink>>,
    /// Tolerate injected losses: when a domain dies early (contained
    /// panic of its driver), skip the served-every-request assert and
    /// report [`ShardReport::complete`] `false` instead.
    pub tolerate_losses: bool,
}

/// Runs the deterministic server across `cfg.shards` token domains.
///
/// Each domain is a full Consequence runtime — its own clock table, token
/// and heap — running on its own OS thread, serving the requests whose
/// keys the shard map assigns it. Domains rendezvous through a
/// [`StdExchange`] between epochs; everything else is domain-local. The
/// per-domain schedules are bit-identical per `(seed, options)`, and the
/// combined store must always equal the sequential reference.
///
/// # Panics
///
/// Panics if a domain thread panics, if a domain serves a request it does
/// not own, or if the served request count disagrees with the spec.
pub fn run_sharded_server(cfg: &ShardCfg) -> ShardReport {
    run_sharded_server_hooked(cfg, &DomainHooks::default())
}

/// [`run_sharded_server`] with per-domain instrumentation attached: fault
/// injectors and panic plans ride into each domain's `CommonConfig`. This is the mixed-scenario matrix entry point — the
/// composition perturb × panic × shard × record runs through here.
pub fn run_sharded_server_hooked(cfg: &ShardCfg, hooks: &DomainHooks) -> ShardReport {
    let spec = ServerSpec::of(&cfg.params);
    let map = ShardMap::new(cfg.shards, cfg.map_seed);
    let plans = DomainPlan::build(&spec, cfg.shards as usize, &|k| map.index_of(k));
    let exchange: Arc<StdExchange> = Arc::new(StdExchange::new(map));

    let t0 = Instant::now();
    let handles: Vec<_> = plans
        .into_iter()
        .map(|plan| {
            let opts = cfg.opts.clone();
            let exchange = Arc::clone(&exchange);
            let capture = cfg.capture;
            let workers = cfg.workers;
            let hooks = hooks.clone();
            std::thread::spawn(move || {
                run_domain(spec, plan, workers, opts, capture, exchange, hooks)
            })
        })
        .collect();
    let domains: Vec<DomainReport> = handles
        .into_iter()
        .map(|h| h.join().expect("domain thread panicked"))
        .collect();
    let wall = t0.elapsed();

    let mut schedule = Fnv1a::new();
    let mut out = Fnv1a::new();
    let mut commits = Fnv1a::new();
    let mut kv: Vec<(u64, u64)> = Vec::with_capacity(spec.keys);
    for d in &domains {
        schedule.update(&u64::from(d.domain.0).to_le_bytes());
        schedule.update(&d.run.schedule_hash.to_le_bytes());
        out.update(&d.output_hash.to_le_bytes());
        commits.update(&d.run.commit_log_hash.to_le_bytes());
        kv.extend_from_slice(&d.kv);
    }
    kv.sort_unstable_by_key(|&(k, _)| k);

    let processed: u64 = domains.iter().map(|d| d.processed).sum();
    let complete = processed == spec.requests as u64;
    if !hooks.tolerate_losses {
        assert_eq!(
            processed, spec.requests as u64,
            "served {processed} of {} requests",
            spec.requests
        );
    }
    ShardReport {
        sync_ops: domains
            .iter()
            .map(|d| d.run.counters.token_acquisitions)
            .sum(),
        panics: domains.iter().map(|d| d.run.panics.len() as u64).sum(),
        schedule_hash: schedule.digest(),
        store_hash: store_fold(kv),
        output_hash: out.digest(),
        commit_hash: commits.digest(),
        requests: spec.requests as u64,
        processed,
        complete,
        wall,
        domains,
    }
}

/// Resigns a domain from the exchange on every exit path — normal
/// completion, contained early death, or a panic out of the report
/// harvesting — so siblings never hang on a gate the domain will not
/// attend. Resignation strictly follows the domain's last possible
/// [`Exchange::exchange`] call (the runtime has returned by then).
struct ResignOnExit(Arc<StdExchange>);

impl Drop for ResignOnExit {
    fn drop(&mut self) {
        self.0.resign();
    }
}

fn run_domain(
    spec: ServerSpec,
    plan: DomainPlan,
    workers: usize,
    opts: Options,
    capture: CaptureMode,
    exchange: Arc<StdExchange>,
    hooks: DomainHooks,
) -> DomainReport {
    let domain = DomainId(plan.domain as u32);
    let mem_sink = (capture == CaptureMode::Events).then(|| Arc::new(MemorySink::new(1 << 22)));
    let trace = match (hooks.sink, &mem_sink, capture) {
        (Some(s), ..) => TraceHandle::to_domain(s, domain),
        (None, Some(s), _) => TraceHandle::to_domain(s.clone(), domain),
        (None, None, CaptureMode::Hash) => {
            TraceHandle::to_domain(Arc::new(HashSink::new()), domain)
        }
        (None, None, _) => TraceHandle::off(),
    };
    let common = CommonConfig {
        heap_pages: DomainServer::heap_pages(&spec, plan.keys.len(), workers),
        max_threads: workers + 2,
        cost: CostModel::default(),
        gc_budget: usize::MAX,
        trace,
        perturb: hooks.perturb.get(plan.domain).cloned().unwrap_or_default(),
    };
    let mut rt = ConsequenceRuntime::new(common, opts);
    let resign = ResignOnExit(Arc::clone(&exchange));
    let (job, srv) = DomainServer::prepare(
        &mut rt,
        &spec,
        &plan,
        workers,
        exchange as Arc<dyn Exchange>,
    );
    let run = rt.run(job);
    drop(resign);

    let (events, dropped) = mem_sink
        .as_ref()
        .map_or((Vec::new(), 0), |s| s.take_domains());
    assert_eq!(dropped, 0, "domain {domain} event buffer overflowed");
    DomainReport {
        domain,
        run,
        events,
        processed: srv.processed(&rt),
        keys: plan.keys.len() as u64,
        kv: srv.final_kv(&rt),
        output_hash: srv.output_hash(&rt),
    }
}

impl ShardReport {
    /// The run's canonical `(domain, event)` stream: every domain's
    /// events concatenated in domain order. Deterministic per
    /// configuration (each domain's stream is token-ordered); requires
    /// [`CaptureMode::Events`].
    pub fn canonical_events(&self) -> Vec<(DomainId, Event)> {
        let mut all = Vec::new();
        for d in &self.domains {
            all.extend_from_slice(&d.events);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: u32) -> ShardCfg {
        let mut c = ShardCfg::new(shards, 3, Params::new(3, 1, 7));
        c.capture = CaptureMode::Hash;
        c
    }

    #[test]
    fn sharded_runs_serve_every_request_and_agree_on_the_store() {
        let r1 = run_sharded_server(&cfg(1));
        let r2 = run_sharded_server(&cfg(2));
        assert_eq!(r1.processed, r1.requests);
        assert_eq!(r2.processed, r2.requests);
        // The order-invariant store digest must not depend on sharding.
        assert_eq!(r1.store_hash, r2.store_hash);
        // The schedules are different partitions of the same traffic.
        assert_ne!(r1.schedule_hash, r2.schedule_hash);
        assert_eq!(r2.domains.len(), 2);
    }

    #[test]
    fn same_seed_same_schedule_every_time() {
        let a = run_sharded_server(&cfg(2));
        let b = run_sharded_server(&cfg(2));
        assert_eq!(a.schedule_hash, b.schedule_hash);
        assert_eq!(a.output_hash, b.output_hash);
        for (da, db) in a.domains.iter().zip(&b.domains) {
            assert_eq!(
                da.run.schedule_hash, db.run.schedule_hash,
                "domain {}",
                da.domain
            );
        }
    }

    #[test]
    fn phase_gate_absorbs_resignations() {
        let g = Arc::new(PhaseGate::new(3));
        g.resign();
        let g2 = Arc::clone(&g);
        let h = std::thread::spawn(move || {
            g2.wait();
            g2.wait();
        });
        g.wait();
        g.wait();
        h.join().unwrap();
        // A second resignation leaves one live party: waits return alone.
        g.resign();
        g.wait();
        g.wait();
    }

    #[test]
    fn dead_domain_resigns_and_survivors_complete_reproducibly() {
        let run = || {
            let mut c = cfg(2);
            // The dying domain's workers starve; a short watchdog turns
            // that into a prompt contained shutdown.
            c.opts.watchdog_stall_ms = Some(300);
            let hooks = DomainHooks {
                perturb: vec![
                    PerturbHandle::off(),
                    PerturbHandle::to(Arc::new(dmt_api::FixedPanic {
                        site: dmt_api::PanicSite::Commit,
                        victim: dmt_api::Tid(0),
                        nth: 1,
                        inner: PerturbHandle::off(),
                    })),
                ],
                tolerate_losses: true,
                ..DomainHooks::default()
            };
            run_sharded_server_hooked(&c, &hooks)
        };
        let a = run();
        // Domain 1's driver died: its tail of the request stream is lost,
        // but nobody hangs — the exchange gates shrank by resignation.
        assert!(!a.complete, "driver death must lose requests");
        assert!(a.processed < a.requests);
        assert!(a.panics >= 1);
        // The composition is reproducible: same death point, same
        // survivor schedule, same final store.
        let b = run();
        assert_eq!(a.schedule_hash, b.schedule_hash);
        assert_eq!(a.processed, b.processed);
        assert_eq!(a.store_hash, b.store_hash);
        assert_eq!(a.panics, b.panics);
    }
}
