//! `bench sched`: microbenchmarks for the scheduler fast path.
//!
//! Two experiments, emitted together as `BENCH_sched.json` (see
//! `docs/PERF.md` for the schema and how to compare runs):
//!
//! * **publish throughput** — raw clock publication: the lock-free
//!   [`Slots::publish`] path against a reference-kind `Mutex<SchedTable>`
//!   path, with every thread publishing its own monotone clock stream
//!   concurrently. This isolates the global-lock cost the fast path removes
//!   from the §3.2 counter-overflow hot path.
//! * **token-handoff grid** — end-to-end lock churn through the full
//!   Consequence runtime across thread-count × lock-count cells, once under
//!   the fast scheduler (targeted parker wake-ups) and once under the
//!   reference scheduler (unpark-everyone herd + all-under-one-lock table).
//!   Each cell reports nanoseconds of wall time per token grant and
//!   wakeups-per-grant (wait-loop iterations per acquisition), and asserts
//!   the two schedulers produced **bit-identical schedule hashes** — the
//!   fast path must be a pure performance change.
//!
//! Wall-clock numbers are machine-dependent; the *ratios* (fast/reference
//! speedup, wakeups-per-grant) are the comparable part. Every timed cell
//! reports a [`Summary`] over repetitions so noise is visible.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use consequence::{ConsequenceRuntime, Options};
use det_clock::{OrderPolicy, SchedKind, SchedTable, Slots};
use dmt_api::trace::{Event, MemorySink};
use dmt_api::{CommonConfig, CostModel, Runtime, Tid, TraceHandle};

use crate::artifact::{cells, find, flag, is_full, mode_label, num, open, positive, Artifact};
use crate::stats::Summary;

/// Thread counts of both grids.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Lock counts of the token-handoff grid (1 = maximal contention).
pub const LOCKS: [usize; 2] = [1, 4];

/// Format version tag of the emitted document.
pub const SCHEMA: &str = "bench-sched/1";

crate::json_record! {
    /// One publish-throughput cell: lock-free slots vs mutex-wrapped reference
    /// table at a fixed publisher count.
    #[derive(Clone, Debug)]
    pub struct PublishCell {
        /// Concurrent publishing threads.
        pub threads: usize,
        /// Lock-free path, publications per second summed over threads.
        pub fast_pub_per_s: f64,
        /// Global-mutex reference path, publications per second.
        pub ref_pub_per_s: f64,
        /// `fast_pub_per_s / ref_pub_per_s`.
        pub speedup: f64,
        /// Per-rep spread of the fast path.
        pub fast_summary: Summary,
        /// Per-rep spread of the reference path.
        pub ref_summary: Summary,
    }
}

crate::json_record! {
    /// One token-handoff grid cell: the same deterministic lock-churn program
    /// under both schedulers.
    #[derive(Clone, Debug)]
    pub struct HandoffCell {
        /// Worker threads contending for the token.
        pub threads: usize,
        /// Distinct mutexes the workers cycle through.
        pub locks: usize,
        /// Token grants per run (identical across schedulers by construction).
        pub grants: u64,
        /// Fast scheduler: wall nanoseconds per token grant (best rep).
        pub fast_ns_per_handoff: f64,
        /// Reference scheduler: wall nanoseconds per token grant (best rep).
        pub ref_ns_per_handoff: f64,
        /// `ref_ns_per_handoff / fast_ns_per_handoff`.
        pub speedup: f64,
        /// Fast: wait-loop iterations per grant (~1 = each wake-up is useful).
        pub fast_wakeups_per_grant: f64,
        /// Reference: wait-loop iterations per grant (the thundering herd).
        pub ref_wakeups_per_grant: f64,
        /// Fast: targeted unparks requested.
        pub fast_targeted_wakes: u64,
        /// Reference: unpark-everyone broadcasts requested.
        pub ref_broadcast_wakes: u64,
        /// Schedule hashes and event counts agreed between the schedulers.
        pub schedules_match: bool,
        /// Per-rep spread of fast ns-per-handoff.
        pub fast_summary: Summary,
        /// Per-rep spread of reference ns-per-handoff.
        pub ref_summary: Summary,
    }
}

crate::json_record! {
    /// The complete `bench sched` artifact.
    #[derive(Clone, Debug)]
    pub struct SchedReport {
        /// Format tag ([`SCHEMA`]).
        pub schema: String,
        /// `"full"` or `"smoke"`.
        pub mode: String,
        /// Publish-throughput cells, one per count in [`THREADS`].
        pub publish: Vec<PublishCell>,
        /// Token-handoff cells, [`THREADS`] × [`LOCKS`].
        pub handoff: Vec<HandoffCell>,
    }
}

// ---------------------------------------------------- publish throughput

/// Times `iters` publications per thread through the lock-free slots.
fn time_fast_publish(threads: usize, iters: u64) -> f64 {
    let slots = Slots::new(threads);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let slots = Arc::clone(&slots);
            s.spawn(move || {
                let tid = Tid(t as u32);
                for i in 0..iters {
                    std::hint::black_box(slots.publish(tid, i + 1, i));
                }
            });
        }
    });
    (threads as u64 * iters) as f64 / start.elapsed().as_secs_f64()
}

/// Times the same publication stream through the reference table behind
/// one global mutex — the structure the fast path replaces.
fn time_ref_publish(threads: usize, iters: u64) -> f64 {
    let table = Mutex::new(SchedTable::new(
        SchedKind::Reference,
        OrderPolicy::InstructionCount,
        Slots::new(threads),
    ));
    {
        let mut t = table.lock().unwrap();
        for i in 0..threads {
            t.register(Tid(i as u32), 0, 0);
        }
    }
    let table = &table;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let tid = Tid(t as u32);
                for i in 0..iters {
                    std::hint::black_box(table.lock().unwrap().publish(tid, i + 1, i));
                }
            });
        }
    });
    (threads as u64 * iters) as f64 / start.elapsed().as_secs_f64()
}

/// Measures both publication paths at each count in [`THREADS`].
pub fn run_publish_bench(smoke: bool) -> Vec<PublishCell> {
    let reps = if smoke { 2 } else { 5 };
    let iters: u64 = if smoke { 5_000 } else { 100_000 };
    THREADS
        .iter()
        .map(|&threads| {
            // Warm-up rep for each path, then measured reps.
            let _ = time_fast_publish(threads, iters);
            let fast: Vec<f64> = (0..reps)
                .map(|_| time_fast_publish(threads, iters))
                .collect();
            let _ = time_ref_publish(threads, iters);
            let refr: Vec<f64> = (0..reps)
                .map(|_| time_ref_publish(threads, iters))
                .collect();
            let fast_s = Summary::of(&fast);
            let ref_s = Summary::of(&refr);
            PublishCell {
                threads,
                fast_pub_per_s: fast_s.mean,
                ref_pub_per_s: ref_s.mean,
                speedup: if ref_s.mean > 0.0 {
                    fast_s.mean / ref_s.mean
                } else {
                    0.0
                },
                fast_summary: fast_s,
                ref_summary: ref_s,
            }
        })
        .collect()
}

// ---------------------------------------------------- token-handoff grid

/// One measured churn run.
struct ChurnRun {
    wall_ns: f64,
    grants: u64,
    wake_loops: u64,
    targeted: u64,
    broadcast: u64,
    schedule_hash: u64,
    schedule: Vec<(Tid, u64)>,
}

/// Runs the deterministic lock-churn program: `threads` workers each
/// perform `iters` lock → compute → unlock rounds across `locks` mutexes.
/// Every round is a token acquisition, so grants scale with the grid and
/// the token hand-off path dominates wall time.
fn run_churn(threads: usize, locks: usize, iters: u64, opts: Options) -> ChurnRun {
    // Retains the whole schedule (a few events per grant) so the grant
    // order itself, not just its hash, can be compared across schedulers.
    let sink = Arc::new(MemorySink::new(1 << 22));
    let cfg = CommonConfig {
        heap_pages: 4,
        max_threads: threads + 1,
        cost: CostModel::default(),
        track_lrc: false,
        gc_budget: 4,
        trace: TraceHandle::to(sink.clone()),
        perturb: dmt_api::PerturbHandle::off(),
        witness: dmt_api::WitnessHandle::off(),
    };
    let mut opts = opts;
    // Coarsening retains the token across rounds, which is exactly the
    // hand-off path we want to measure — disable it so every round pays
    // a full release/acquire.
    opts.coarsening = false;
    let mut rt = ConsequenceRuntime::new(cfg, opts);
    let ms: Vec<_> = (0..locks).map(|_| rt.create_mutex()).collect();
    let start = Instant::now();
    let report = rt.run(Box::new(move |ctx| {
        let workers: Vec<Tid> = (0..threads)
            .map(|w| {
                let ms = ms.clone();
                ctx.spawn(Box::new(move |c| {
                    for i in 0..iters {
                        let m = ms[(w + i as usize) % ms.len()];
                        c.mutex_lock(m);
                        c.tick(64);
                        c.mutex_unlock(m);
                        c.tick(64);
                    }
                }))
            })
            .collect();
        for w in workers {
            ctx.join(w);
        }
    }));
    let wall_ns = start.elapsed().as_nanos() as f64;
    let (events, dropped) = sink.take();
    assert_eq!(dropped, 0, "ring must hold the whole schedule");
    let schedule = events
        .into_iter()
        .filter_map(|e| match e {
            Event::TokenAcquire { tid, clock } => Some((tid, clock)),
            _ => None,
        })
        .collect();
    ChurnRun {
        wall_ns,
        grants: report.counters.token_acquisitions,
        wake_loops: report.counters.token_wake_loops,
        targeted: report.counters.targeted_wakes,
        broadcast: report.counters.broadcast_wakes,
        schedule_hash: report.schedule_hash,
        schedule,
    }
}

/// Measures one handoff grid cell under both schedulers.
fn run_handoff_cell(threads: usize, locks: usize, smoke: bool) -> HandoffCell {
    let reps = if smoke { 2 } else { 4 };
    let iters: u64 = if smoke { 50 } else { 400 };
    let fast_opts = Options::consequence_ic();
    let ref_opts = Options::consequence_ic().without("fast_sched");

    let mut fast_ns = Vec::with_capacity(reps);
    let mut ref_ns = Vec::with_capacity(reps);
    let mut last_fast = None;
    let mut last_ref = None;
    let mut schedules_match = true;
    for _ in 0..reps {
        let f = run_churn(threads, locks, iters, fast_opts.clone());
        let r = run_churn(threads, locks, iters, ref_opts.clone());
        // The fast scheduler must be invisible in the schedule: identical
        // token orders, hence identical hashes, every single rep.
        schedules_match &= f.schedule_hash == r.schedule_hash && f.schedule == r.schedule;
        fast_ns.push(f.wall_ns / f.grants.max(1) as f64);
        ref_ns.push(r.wall_ns / r.grants.max(1) as f64);
        last_fast = Some(f);
        last_ref = Some(r);
    }
    let f = last_fast.expect("at least one rep");
    let r = last_ref.expect("at least one rep");
    let fast_summary = Summary::of(&fast_ns);
    let ref_summary = Summary::of(&ref_ns);
    // Best-of-reps latency: scheduling noise only ever adds time.
    let fast_best = fast_summary.min;
    let ref_best = ref_summary.min;
    HandoffCell {
        threads,
        locks,
        grants: f.grants,
        fast_ns_per_handoff: fast_best,
        ref_ns_per_handoff: ref_best,
        speedup: if fast_best > 0.0 {
            ref_best / fast_best
        } else {
            0.0
        },
        fast_wakeups_per_grant: f.wake_loops as f64 / f.grants.max(1) as f64,
        ref_wakeups_per_grant: r.wake_loops as f64 / r.grants.max(1) as f64,
        fast_targeted_wakes: f.targeted,
        ref_broadcast_wakes: r.broadcast,
        schedules_match,
        fast_summary,
        ref_summary,
    }
}

/// Runs the full [`THREADS`] × [`LOCKS`] handoff grid.
pub fn run_handoff_grid(smoke: bool) -> Vec<HandoffCell> {
    let mut out = Vec::new();
    for &t in &THREADS {
        for &l in &LOCKS {
            out.push(run_handoff_cell(t, l, smoke));
        }
    }
    out
}

impl Artifact for SchedReport {
    const NAME: &'static str = "sched";

    /// Runs every experiment and assembles the artifact.
    fn run(smoke: bool) -> SchedReport {
        SchedReport {
            schema: SCHEMA.to_string(),
            mode: mode_label(smoke),
            publish: run_publish_bench(smoke),
            handoff: run_handoff_grid(smoke),
        }
    }

    fn summary(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.publish {
            out.push(format!(
                "publish t={}: fast {:>11.0} pub/s  ref {:>11.0} pub/s  speedup {:.2}x",
                c.threads, c.fast_pub_per_s, c.ref_pub_per_s, c.speedup
            ));
        }
        for c in &self.handoff {
            out.push(format!(
                "handoff t={} locks={}: fast {:>8.0} ns/grant ({:.2} wakes)  \
                 ref {:>8.0} ns/grant ({:.2} wakes)  speedup {:.2}x  schedules {}",
                c.threads,
                c.locks,
                c.fast_ns_per_handoff,
                c.fast_wakeups_per_grant,
                c.ref_ns_per_handoff,
                c.ref_wakeups_per_grant,
                c.speedup,
                if c.schedules_match {
                    "match"
                } else {
                    "DIVERGED"
                }
            ));
        }
        out
    }

    /// An emitted `BENCH_sched.json` must parse, carry the current schema
    /// tag, contain every grid cell with positive numbers, and witness
    /// bit-identical schedules in every handoff cell. In `"full"` mode the
    /// fast path must additionally beat the reference scheduler on
    /// token-handoff latency at ≥ 4 threads with wakeups-per-grant ≤ 3 —
    /// the tentpole acceptance numbers.
    fn validate(text: &str) -> Result<(), String> {
        let v = open(text, SCHEMA)?;
        let publish = cells(&v, "publish")?;
        for &t in &THREADS {
            let cell = find(publish, "publish", &[("threads", t)])?;
            positive(
                cell,
                &format!("publish cell t={t}"),
                &["fast_pub_per_s", "ref_pub_per_s", "speedup"],
            )?;
        }
        let handoff = cells(&v, "handoff")?;
        for &t in &THREADS {
            for &l in &LOCKS {
                let cell = find(handoff, "handoff", &[("threads", t), ("locks", l)])?;
                let ctx = format!("handoff cell {t}/{l}");
                if !flag(cell, "schedules_match") {
                    return Err(format!("{ctx}: fast and reference schedules diverged"));
                }
                positive(cell, &ctx, &["fast_ns_per_handoff", "ref_ns_per_handoff"])?;
                if is_full(&v) && t >= 4 {
                    let speedup = num(cell, &ctx, "speedup")?;
                    if speedup <= 1.0 {
                        return Err(format!(
                            "{ctx}: fast path does not beat the reference scheduler \
                             (speedup {speedup:.3})"
                        ));
                    }
                    let wpg = num(cell, &ctx, "fast_wakeups_per_grant")?;
                    if wpg > 3.0 {
                        return Err(format!(
                            "{ctx}: fast wakeups-per-grant {wpg:.2} (expected ~1)"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn smoke_report_passes_its_own_validation() {
        let r = SchedReport::run(true);
        SchedReport::validate(&r.to_json()).expect("smoke artifact validates");
    }

    #[test]
    fn churn_schedules_are_bit_identical_across_schedulers() {
        // The cheapest end-to-end witness of the tentpole invariant,
        // independent of the stress harness.
        let c = run_handoff_cell(4, 1, true);
        assert!(c.schedules_match, "schedules diverged: {c:?}");
        assert!(c.grants > 0);
    }

    #[test]
    fn fast_scheduler_wakes_are_targeted() {
        let f = run_churn(4, 1, 50, Options::consequence_ic());
        assert!(f.targeted > 0, "no targeted wakes recorded");
        assert_eq!(f.broadcast, 0, "fast path must not broadcast");
        let r = run_churn(4, 1, 50, Options::consequence_ic().without("fast_sched"));
        assert!(r.broadcast > 0, "reference path must broadcast");
        assert_eq!(r.targeted, 0, "reference path must not target");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(SchedReport::validate("not json").is_err());
        assert!(SchedReport::validate("{}").is_err());
        assert!(SchedReport::validate(r#"{"schema":"bench-sched/1"}"#).is_err());
        let mut r = stub_report();
        r.handoff[0].schedules_match = false;
        assert!(SchedReport::validate(&r.to_json())
            .unwrap_err()
            .contains("diverged"));
        let mut r = stub_report();
        r.mode = "full".into();
        // Find a ≥4-thread cell and make the fast path lose.
        let cell = r.handoff.iter_mut().find(|c| c.threads >= 4).unwrap();
        cell.speedup = 0.9;
        assert!(SchedReport::validate(&r.to_json())
            .unwrap_err()
            .contains("does not beat"));
    }

    /// A structurally complete report with fabricated numbers (no timing),
    /// for validation tests that must stay fast.
    fn stub_report() -> SchedReport {
        let publish = THREADS
            .iter()
            .map(|&t| PublishCell {
                threads: t,
                fast_pub_per_s: 2.0,
                ref_pub_per_s: 1.0,
                speedup: 2.0,
                fast_summary: Summary::of(&[2.0]),
                ref_summary: Summary::of(&[1.0]),
            })
            .collect();
        let mut handoff = Vec::new();
        for &t in &THREADS {
            for &l in &LOCKS {
                handoff.push(HandoffCell {
                    threads: t,
                    locks: l,
                    grants: 100,
                    fast_ns_per_handoff: 1.0,
                    ref_ns_per_handoff: 2.0,
                    speedup: 2.0,
                    fast_wakeups_per_grant: 1.0,
                    ref_wakeups_per_grant: 4.0,
                    fast_targeted_wakes: 100,
                    ref_broadcast_wakes: 100,
                    schedules_match: true,
                    fast_summary: Summary::of(&[1.0]),
                    ref_summary: Summary::of(&[2.0]),
                });
            }
        }
        SchedReport {
            schema: SCHEMA.to_string(),
            mode: "stub".to_string(),
            publish,
            handoff,
        }
    }
}
