//! The token-grant schedule — the `TokenAcquire` events of a recorded
//! trace: a practical view of the deterministic total order, and the
//! strongest reproducibility witness.

use std::sync::Arc;

use consequence::{ConsequenceRuntime, Options};
use dmt_api::trace::{diagnose, Event, EventKind, HashSink, MemorySink, TraceHandle};
use dmt_api::{CommonConfig, CostModel, MemExt, Runtime, Tid};

fn cfg() -> CommonConfig {
    CommonConfig {
        heap_pages: 16,
        max_threads: 16,
        cost: CostModel::default(),
        gc_budget: usize::MAX,
        trace: dmt_api::TraceHandle::off(),
        perturb: dmt_api::PerturbHandle::off(),
    }
}

/// The `(thread, arrival clock)` of every token grant retained by `sink`,
/// in grant order.
fn grant_order(sink: &MemorySink) -> Vec<(Tid, u64)> {
    let (events, dropped) = sink.take();
    assert_eq!(dropped, 0, "ring must hold the whole trace");
    events
        .into_iter()
        .filter_map(|e| match e {
            Event::TokenAcquire { tid, clock } => Some((tid, clock)),
            _ => None,
        })
        .collect()
}

fn traced_run(opts: Options) -> Vec<(Tid, u64)> {
    let sink = Arc::new(MemorySink::new(1 << 16));
    let mut c = cfg();
    c.trace = TraceHandle::to(sink.clone());
    let mut rt = ConsequenceRuntime::new(c, opts);
    let m = rt.create_mutex();
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..3u64)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    for j in 0..10 {
                        c.tick(71 * (i + 1) + j);
                        c.mutex_lock(m);
                        c.fetch_add_u64(0, 1);
                        c.mutex_unlock(m);
                    }
                }))
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    }));
    grant_order(&sink)
}

#[test]
fn schedule_is_recorded_and_identical_across_runs() {
    let a = traced_run(Options::consequence_ic());
    let b = traced_run(Options::consequence_ic());
    assert!(!a.is_empty(), "schedule should be recorded");
    assert_eq!(a, b, "token-grant schedules must be bit-identical");
}

#[test]
fn schedule_grants_follow_clock_tid_order_locally() {
    // Under IC ordering, among grants that were *waiting simultaneously*
    // the lower (clock, tid) goes first. We can't reconstruct waiting sets
    // from the trace, but the schedule must at least be per-thread clock
    // monotone (a thread's own grants happen in its program order).
    let s = traced_run(Options::consequence_ic());
    let mut last: std::collections::HashMap<Tid, u64> = std::collections::HashMap::new();
    for (t, c) in s {
        if let Some(prev) = last.get(&t) {
            assert!(c >= *prev, "thread {t} clock went backwards: {prev} -> {c}");
        }
        last.insert(t, c);
    }
}

#[test]
fn rr_and_ic_schedules_differ_but_are_each_stable() {
    let ic = traced_run(Options::consequence_ic());
    let rr = traced_run(Options::consequence_rr());
    assert_eq!(rr, traced_run(Options::consequence_rr()));
    // Different policies produce different (deterministic) orders for this
    // skewed-rate program.
    assert_ne!(ic, rr, "IC and RR should schedule this program differently");
}

#[test]
fn schedule_off_by_default_costs_nothing() {
    // Tracing is off unless a sink is attached: the run reports no events
    // and a zero schedule hash.
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let r = rt.run(Box::new(|ctx| ctx.tick(100)));
    assert_eq!(r.events.get(EventKind::TokenAcquire), 0);
    assert_eq!(r.schedule_hash, 0);
}

/// The mixed-primitive program used by the event-trace tests below:
/// `skew` perturbs one thread's compute rate, which is enough to reorder
/// the deterministic schedule (and must do so *reproducibly*).
fn trace_program(trace: dmt_api::TraceHandle, opts: Options, skew: u64) -> dmt_api::RunReport {
    let mut c = cfg();
    c.trace = trace;
    let mut rt = ConsequenceRuntime::new(c, opts);
    let m = rt.create_mutex();
    let b = rt.create_barrier(4);
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..3u64)
            .map(|i| {
                ctx.spawn(Box::new(move |t| {
                    let rate = if i == 0 { 71 + skew } else { 71 * (i + 1) };
                    for j in 0..8 {
                        t.tick(rate + j);
                        t.mutex_lock(m);
                        t.fetch_add_u64(0, 1);
                        t.mutex_unlock(m);
                    }
                    t.barrier_wait(b);
                }))
            })
            .collect();
        ctx.tick(40);
        ctx.barrier_wait(b);
        for k in kids {
            ctx.join(k);
        }
    }))
}

#[test]
fn schedule_hash_identical_across_three_runs() {
    for opts in [Options::consequence_ic(), Options::consequence_rr()] {
        let hashes: Vec<u64> = (0..3)
            .map(|_| {
                let sink = Arc::new(HashSink::new());
                let r = trace_program(TraceHandle::to(sink), opts.clone(), 0);
                assert_ne!(r.schedule_hash, 0, "hash should cover events");
                r.schedule_hash
            })
            .collect();
        assert_eq!(hashes[0], hashes[1]);
        assert_eq!(hashes[1], hashes[2]);
    }
}

#[test]
fn report_event_counts_cover_all_primitives_used() {
    let sink = Arc::new(HashSink::new());
    let r = trace_program(TraceHandle::to(sink), Options::consequence_ic(), 0);
    for kind in [
        EventKind::TokenAcquire,
        EventKind::TokenRelease,
        EventKind::MutexLock,
        EventKind::MutexUnlock,
        EventKind::BarrierArrive,
        EventKind::BarrierOpen,
        EventKind::Commit,
        EventKind::Update,
        EventKind::Spawn,
        EventKind::Join,
        EventKind::Exit,
    ] {
        assert!(r.events.get(kind) > 0, "no {} events", kind.name());
    }
    // 4 parties, one generation each of arrive; exactly one open per gen.
    assert_eq!(r.events.get(EventKind::BarrierArrive), 4);
    assert_eq!(r.events.get(EventKind::BarrierOpen), 1);
    assert_eq!(r.events.get(EventKind::Spawn), 3);
    assert_eq!(r.events.get(EventKind::Exit), 4);
}

#[test]
fn perturbed_run_diverges_and_diagnoser_names_first_event() {
    let rec = |skew| {
        let sink = Arc::new(MemorySink::new(1 << 16));
        let r = trace_program(
            TraceHandle::to(sink.clone()),
            Options::consequence_ic(),
            skew,
        );
        let (events, dropped) = sink.take();
        assert_eq!(dropped, 0, "ring must hold the whole trace");
        (events, r.schedule_hash)
    };
    let (base, h_base) = rec(0);
    let (same, h_same) = rec(0);
    assert_eq!(h_base, h_same);
    assert!(diagnose(&base, &same).is_none(), "identical runs diverge?");

    // Skewing thread 0's compute rate changes its token-arrival clocks,
    // which IC ordering must translate into a *different* (but itself
    // deterministic) schedule.
    let (skewed, h_skewed) = rec(5_000);
    assert_ne!(h_base, h_skewed, "perturbation should change the schedule");
    let d = diagnose(&base, &skewed).expect("hashes differ but no divergence?");
    // The report names a concrete first event on at least one side...
    assert!(d.left.is_some() || d.right.is_some());
    // ...and the common prefix really is common.
    assert_eq!(&base[..d.index], &skewed[..d.index]);
    let msg = format!("{d}");
    assert!(
        msg.contains(&format!("diverge at event #{}", d.index)),
        "unhelpful report: {msg}"
    );
}

#[test]
fn memory_and_hash_sinks_agree_on_the_hash() {
    let mem = Arc::new(MemorySink::new(1 << 16));
    let r_mem = trace_program(TraceHandle::to(mem.clone()), Options::consequence_rr(), 0);
    let hash_sink = Arc::new(HashSink::new());
    let r_hash = trace_program(TraceHandle::to(hash_sink), Options::consequence_rr(), 0);
    assert_eq!(r_mem.schedule_hash, r_hash.schedule_hash);
    // Replaying the recorded events through a fresh hasher reproduces the
    // incremental hash: the ring buffer lost nothing.
    let (events, dropped) = mem.take();
    assert_eq!(dropped, 0);
    let replay = HashSink::new();
    for ev in &events {
        dmt_api::trace::TraceSink::emit(&replay, ev, true, dmt_api::DomainId::ROOT);
    }
    assert_eq!(
        dmt_api::trace::TraceSink::schedule_hash(&replay),
        r_mem.schedule_hash
    );
    // Sanity: the trace contains real scheduling content.
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::TokenAcquire { .. })));
}
