//! The two kinds of measurement run: end-to-end (tracing off) and
//! per-layer (a traced run, the untraced run it is compared with, and the
//! pthreads baseline; the layer probes of `probes.rs` need no workload).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmt_api::{Breakdown, Tid};
use dmt_baselines::RuntimeKind;
use dmt_workloads::Params;

use crate::calib::{host_factor, PingPong};
use crate::stats::{iqr_share, least, median, tail};
use crate::timed_ctx::{Collected, Collector, Kind, Span, ThreadRecord};
use crate::workloads::{run_rep, Rep, Spec};

/// What to measure and for how long.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Time spent in measured repetitions (the warm-up comes on top).
    pub seconds: f64,
    /// Scale 1 and two repetitions: a quick functional check.
    pub smoke: bool,
    /// Keep every sync call of the first traced repetition as an
    /// individual span.
    pub keep_spans: bool,
}

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result of one measurement run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed repetition failed.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The spans of the first traced repetition, when the plan keeps them.
    pub spans: Vec<Span>,
}

/// Fewest measured repetitions of a non-smoke run, however short
/// `--seconds` is: below this a median means little.
const MIN_REPS: usize = 5;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Repetitions of one workload on one input, each checked against the
/// first and tallied.
struct Session<'a> {
    spec: &'a Spec,
    params: Params,
    trace_file: Option<std::path::PathBuf>,
    /// The discarded warm-up: a plain run (no sink, no decorator) whose
    /// commit log and output every later repetition must reproduce. The
    /// first repetitions of a fresh process run up to 1.7x slow.
    reference: Rep,
    /// The host's speed: one calibration before every repetition.
    cal: PingPong,
    cal_s: Vec<f64>,
    out: Outcome,
}

impl<'a> Session<'a> {
    fn start(spec: &'a Spec, plan: &Plan, tmp: &Path) -> Session<'a> {
        let params = spec.params(plan.seed, plan.smoke);
        let reference = run_rep(spec, &params, RuntimeKind::ConsequenceIc, None, None);
        let mut s = Session {
            spec,
            params,
            trace_file: spec
                .recorded
                .then(|| tmp.join(format!("{}.dmtrace", spec.name))),
            reference,
            cal: PingPong::start(),
            cal_s: Vec::new(),
            out: Outcome::default(),
        };
        let failure = s.reference.failure.clone();
        s.tally(failure);
        s
    }

    fn tally(&mut self, failure: Option<String>) {
        self.out.attempted += 1;
        if let Some(f) = failure {
            self.out.failed += 1;
            self.out.failures.push(f);
        }
    }

    fn rep(&mut self, tracer: Option<&Arc<Collector>>) -> Rep {
        self.cal_s.push(self.cal.time());
        let mut rep = run_rep(
            self.spec,
            &self.params,
            RuntimeKind::ConsequenceIc,
            self.trace_file.as_deref(),
            tracer,
        );
        rep.must_match(&self.reference, "warm-up");
        self.tally(rep.failure.clone());
        rep
    }

    /// Repeats `one`: exactly `smoke_reps` times in a smoke run, else at
    /// least `min` times and then until `budget` seconds have passed.
    fn repeat<T>(
        &mut self,
        plan: &Plan,
        smoke_reps: usize,
        min: usize,
        budget: f64,
        mut one: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let deadline = Instant::now() + Duration::from_secs_f64(budget);
        let mut reps = Vec::new();
        loop {
            let done = if plan.smoke {
                reps.len() >= smoke_reps
            } else {
                reps.len() >= min && Instant::now() >= deadline
            };
            if done {
                return reps;
            }
            reps.push(one(self));
        }
    }
}

fn column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The repetition whose wall time is the median one.
fn median_rep(reps: &[Rep]) -> &Rep {
    let mut by_wall: Vec<&Rep> = reps.iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    by_wall[by_wall.len() / 2]
}

/// End-to-end metrics of `spec`, tracing off.
pub fn end_to_end(spec: &Spec, plan: &Plan, tmp: &Path) -> Outcome {
    let mut s = Session::start(spec, plan, tmp);
    let reps = s.repeat(plan, 2, MIN_REPS, plan.seconds, |s| s.rep(None));

    // The times are those of the least disturbed repetition
    // (`stats::least`): a repetition's time has a floor that is the
    // program's and a tail that is the host's. What the host adds to every
    // repetition of a run alike is divided out (`calib`). The typical
    // repetition, as timed, is the per-layer `harness.wall_median_s`.
    let host = host_factor(&s.cal_s);
    let wall_s = least(&column(&reps, |r| r.wall_s)) / host;
    let cpu_s = least(&column(&reps, |r| r.cpu_s)) / host;
    let setup_s = least(&column(&reps, |r| r.setup_s)) / host;
    let ops = spec.ops(&s.params, &s.reference.report) as f64;
    let mut out = s.out;
    out.metrics = vec![
        metric("wall_s", wall_s, "s"),
        metric("ops_per_s", ops / wall_s, "1/s"),
        metric("cpu_s", cpu_s, "s"),
        metric("setup_s", setup_s, "s"),
    ];
    out
}

/// `api.*`: what the traced repetitions' threads did, per call kind.
/// Returns the mean empty span measured beside the sampled accesses (what
/// the timer itself contributed to each of those samples), in ns.
fn api_metrics(traced: &[(Rep, Collected)], untraced_wall_s: f64, m: &mut Vec<Metric>) -> f64 {
    let n = traced.len() as f64;
    let mut all = Collected::default();
    for (_, c) in traced {
        all.threads.extend(c.threads.iter().cloned());
    }
    let totals = all.totals();
    let thread_ns = all.thread_ns();
    for k in Kind::ALL {
        let a = &totals[k as usize];
        let ns = a.est_ns(k);
        let p = format!("api.{}", k.name());
        m.push(metric(format!("{p}.count"), a.count as f64 / n, "count"));
        m.push(metric(
            format!("{p}.ns_mean"),
            ratio(ns, a.count as f64),
            "ns",
        ));
        m.push(metric(format!("{p}.share"), ratio(ns, thread_ns), "ratio"));
        if k.blocking() {
            m.push(metric(format!("{p}.ns_p99"), a.quantile_ns(0.99), "ns"));
        }
    }
    let self_ns: f64 = all.threads.iter().map(ThreadRecord::self_ns).sum();
    m.push(metric("api.user.share", ratio(self_ns, thread_ns), "ratio"));
    m.push(metric("api.threads", all.threads.len() as f64 / n, "count"));

    // The main thread's span is the outside view of the whole run; what
    // it misses of `RunReport::wall` is runtime start-up and teardown.
    let residuals: Vec<f64> = traced
        .iter()
        .map(|(rep, c)| {
            let main = c
                .threads
                .iter()
                .find(|t| t.tid == Tid::MAIN.0)
                .map_or(0.0, |t| t.span_ns as f64 / 1e9);
            let wall = rep.report.wall.as_secs_f64();
            ratio((main - wall).abs(), wall)
        })
        .collect();
    m.push(metric(
        "api.accounting_residual",
        median(&residuals),
        "ratio",
    ));
    let traced_wall_s = least(&traced.iter().map(|(r, _)| r.wall_s).collect::<Vec<_>>());
    m.push(metric(
        "api.trace_overhead_ratio",
        ratio(traced_wall_s, untraced_wall_s),
        "ratio",
    ));
    let (empty_ns, samples) = Kind::ALL
        .iter()
        .filter(|k| k.strided())
        .map(|&k| &totals[k as usize])
        .fold((0, 0), |(e, n), a| (e + a.empty_ns, n + a.timed));
    ratio(empty_ns as f64, samples as f64)
}

/// `core.*`, `clock.*`, `vmem.*` counters and `trace.*` of one untraced
/// repetition: the runtime's own account of the work it did.
fn counter_metrics(rep: &Rep, m: &mut Vec<Metric>) {
    let c = &rep.report.counters;
    let b: &Breakdown = &rep.report.breakdown;
    let f = |x: u64| x as f64;
    let per = |a: u64, b: u64| ratio(a as f64, b as f64);
    let (events, bytes) = rep.recording.map_or((0, 0), |r| (r.events, r.file_bytes));
    let table: [(&str, f64, &'static str); 27] = [
        ("core.token_acquisitions", f(c.token_acquisitions), "count"),
        ("core.chunks", f(c.chunks), "count"),
        // `chunks` counts the chunks that ended in a commit; the ones
        // merged into their predecessor are counted only here.
        (
            "core.coarsened_share",
            per(c.coarsened_chunks, c.chunks + c.coarsened_chunks),
            "ratio",
        ),
        (
            "core.wakes_per_grant",
            per(c.token_wake_loops, c.token_acquisitions),
            "ratio",
        ),
        (
            "core.virtual_cycles",
            f(rep.report.virtual_cycles),
            "cycles",
        ),
        ("core.vt_share.chunk", per(b.chunk, b.total()), "ratio"),
        (
            "core.vt_share.determ_wait",
            per(b.determ_wait, b.total()),
            "ratio",
        ),
        (
            "core.vt_share.barrier_wait",
            per(b.barrier_wait, b.total()),
            "ratio",
        ),
        ("core.vt_share.commit", per(b.commit, b.total()), "ratio"),
        ("core.vt_share.update", per(b.update, b.total()), "ratio"),
        ("core.vt_share.fault", per(b.fault, b.total()), "ratio"),
        ("core.vt_share.lib", per(b.lib, b.total()), "ratio"),
        ("clock.publications", f(c.publications), "count"),
        (
            "clock.publications_per_token",
            per(c.publications, c.token_acquisitions),
            "ratio",
        ),
        ("vmem.commits", f(c.commits), "count"),
        ("vmem.pages_committed", f(c.pages_committed), "pages"),
        ("vmem.pages_merged", f(c.pages_merged), "pages"),
        (
            "vmem.merge_share",
            per(c.pages_merged, c.pages_committed),
            "ratio",
        ),
        ("vmem.pages_propagated", f(c.pages_propagated), "pages"),
        ("vmem.faults", f(c.faults), "count"),
        (
            "vmem.settle_pages_deferred",
            f(c.settle_pages_deferred),
            "pages",
        ),
        (
            "vmem.pretwin_hit_ratio",
            per(c.pretwin_hits, c.pretwin_hits + c.pretwin_misses),
            "ratio",
        ),
        // The report carries the recycle pool's hits but not its misses,
        // so the base is the CoW faults, each of which allocates one page.
        // Merges and pre-copied twins allocate too: this can pass 1.
        (
            "vmem.page_pool_hits_per_fault",
            per(c.page_pool_hits, c.faults),
            "ratio",
        ),
        (
            "vmem.gc_versions_dropped",
            f(c.gc_versions_dropped),
            "count",
        ),
        ("trace.events", f(events), "count"),
        ("trace.bytes_per_event", per(bytes, events), "B/event"),
        ("trace.file_bytes", f(bytes), "B"),
    ];
    m.extend(table.map(|(name, value, unit)| metric(name, value, unit)));
}

/// Per-layer metrics of `spec`: a traced run next to the untraced run it
/// must reproduce, and the pthreads baseline.
pub fn per_layer(spec: &Spec, plan: &Plan, tmp: &Path) -> Outcome {
    let mut s = Session::start(spec, plan, tmp);
    let untraced = s.repeat(plan, 2, 3, 0.3 * plan.seconds, |s| s.rep(None));
    let mut keep_spans = plan.keep_spans;
    let mut traced = s.repeat(plan, 1, 3, 0.3 * plan.seconds, |s| {
        let col = Collector::new(std::mem::take(&mut keep_spans));
        let rep = s.rep(Some(&col));
        (rep, col.take())
    });
    // The nondeterministic baseline: never part of `failed`, because a
    // pthreads run that misses the reference is the baseline's (or the
    // program's) race, not the system under test failing.
    let pthreads: Vec<Rep> = (0..if plan.smoke { 1 } else { 5 })
        .map(|_| run_rep(spec, &s.params, RuntimeKind::Pthreads, None, None))
        .collect();

    let walls = column(&untraced, |r| r.wall_s);
    // Ratios of walls compare like with like: least against least.
    let wall_s = least(&walls);
    let mut m = Vec::new();
    let timer_ns = api_metrics(&traced, wall_s, &mut m);
    let typical = median_rep(&untraced);
    counter_metrics(typical, &mut m);

    let pthreads_wall_s = least(&column(&pthreads, |r| r.wall_s));
    let invalid = pthreads.iter().filter(|r| r.failure.is_some()).count();
    let rest = [
        // The paper's Fig. 12 quantity. Not an end-to-end metric because
        // it does not repeat where it is small: `kv_server`'s repetitions
        // peak near 60, 75 or 105 pages, in streaks, depending on how far
        // the settle pool lags behind the commits.
        (
            "vmem.peak_pages",
            median(&column(&untraced, |r| r.report.peak_pages as f64)),
            "pages",
        ),
        ("baselines.pthreads_wall_s", pthreads_wall_s, "s"),
        (
            "baselines.slowdown_vs_pthreads",
            ratio(wall_s, pthreads_wall_s),
            "ratio",
        ),
        ("baselines.pthreads_invalid_runs", invalid as f64, "count"),
        (
            "workloads.ops",
            spec.ops(&s.params, &typical.report) as f64,
            "count",
        ),
        (
            "workloads.prepare_s",
            median(&column(&untraced, |r| r.prepare_s)),
            "s",
        ),
        (
            "workloads.validate_s",
            median(&column(&untraced, |r| r.validate_s)),
            "s",
        ),
        ("harness.reps", untraced.len() as f64, "count"),
        ("harness.timer_ns", timer_ns, "ns"),
        // What the end-to-end times were divided by, had this been an
        // end-to-end run (1 = the reference host undisturbed); every
        // per-layer time is as timed.
        ("harness.host_factor", host_factor(&s.cal_s), "ratio"),
        // What `wall_s` leaves out: the typical repetition, the host's
        // disturbances included.
        ("harness.wall_median_s", median(&walls), "s"),
        ("harness.wall_tail_s", tail(&walls), "s"),
        ("harness.wall_iqr_share", iqr_share(&walls), "ratio"),
    ];
    m.extend(rest.map(|(name, value, unit)| metric(name, value, unit)));

    let mut out = s.out;
    out.metrics = m;
    out.spans = std::mem::take(&mut traced[0].1.spans);
    out
}
