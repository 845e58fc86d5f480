//! The token-grant schedule — the `TokenAcquire` events of a recorded
//! trace: a practical view of the deterministic total order, and the
//! strongest reproducibility witness.

use std::sync::Arc;

use consequence::{ConsequenceRuntime, Options};
use dmt_api::sync::Mutex;
use dmt_api::trace::{
    diagnose, Event, EventKind, HashSink, MemorySink, TraceHandle, TraceSink, HOLD_LIMIT,
};
use dmt_api::{
    CommonConfig, CostModel, DomainId, FixedPanic, MemExt, PanicSite, PerturbHandle, Runtime, Tid,
};

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
    // Tracing is off unless a sink is attached: the run reports a zero
    // schedule hash, and the event counts the ledgers kept, exactly those
    // of the same run with a hashing sink attached.
    let off = trace_program(TraceHandle::off(), Options::consequence_ic(), 0);
    let hashed = trace_program(
        TraceHandle::to(Arc::new(HashSink::new())),
        Options::consequence_ic(),
        0,
    );
    assert_eq!(off.schedule_hash, 0);
    assert_ne!(hashed.schedule_hash, 0);
    assert!(off.events.get(EventKind::TokenAcquire) > 0);
    assert_eq!(off.events, hashed.events);
}

/// The mixed-primitive program used by the event-trace tests below:
/// `skew` perturbs one thread's compute rate, which is enough to reorder
/// the deterministic schedule (and must do so *reproducibly*).
fn trace_program(trace: dmt_api::TraceHandle, opts: Options, skew: u64) -> dmt_api::RunReport {
    run_program(CommonConfig { trace, ..cfg() }, opts, skew)
}

/// [`trace_program`] under a whole configuration.
fn run_program(c: CommonConfig, opts: Options, skew: u64) -> dmt_api::RunReport {
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

/// Events as a sink receives them, each with its `in_schedule` flag.
type Batch = Vec<(Event, bool)>;

/// Every call a sink saw: whether it came as one batch, and its events.
#[derive(Default)]
struct Calls(Mutex<Vec<(bool, Batch)>>);

impl TraceSink for Calls {
    fn emit(&self, ev: &Event, in_schedule: bool, _: DomainId) {
        self.0.lock().push((false, vec![(*ev, in_schedule)]));
    }

    fn emit_all(&self, evs: &[(Event, bool)], _: DomainId) {
        self.0.lock().push((true, evs.to_vec()));
    }
}

/// A sink that implements only `emit`: the order of event-by-event
/// emission.
#[derive(Default)]
struct OneByOne(Mutex<Vec<Event>>);

impl TraceSink for OneByOne {
    fn emit(&self, ev: &Event, in_schedule: bool, _: DomainId) {
        if in_schedule {
            self.0.lock().push(*ev);
        }
    }
}

/// [`trace_program`] into `sink`, with `victim` dying at its first
/// commit when given.
fn run_into(sink: Arc<dyn TraceSink>, victim: Option<Tid>) -> dmt_api::RunReport {
    let perturb = victim.map_or_else(PerturbHandle::off, |victim| {
        PerturbHandle::to(Arc::new(FixedPanic {
            site: PanicSite::Commit,
            victim,
            nth: 0,
            inner: PerturbHandle::off(),
        }))
    });
    let c = CommonConfig {
        trace: TraceHandle::to(sink),
        perturb,
        ..cfg()
    };
    run_program(c, Options::consequence_ic(), 0)
}

#[test]
fn a_tenure_reaches_the_sink_in_one_call_and_in_order() {
    for victim in [None, Some(Tid(2))] {
        let calls = Arc::new(Calls::default());
        let r = run_into(calls.clone(), victim);
        let one = Arc::new(OneByOne::default());
        run_into(one.clone(), victim);
        assert_eq!(r.panics.first().map(|(t, _)| *t), victim, "{:?}", r.panics);
        let calls = std::mem::take(&mut *calls.0.lock());

        // One call per grant, plus one per HOLD_LIMIT held events, each
        // one thread's tenure: from its grant (or a full batch) to its
        // release (or HOLD_LIMIT events).
        let batches: Vec<&[(Event, bool)]> = calls
            .iter()
            .filter(|(batched, _)| *batched)
            .map(|(_, evs)| &evs[..])
            .collect();
        let held: usize = batches.iter().map(|b| b.len()).sum();
        let grants = r.events.get(EventKind::TokenAcquire) as usize;
        assert!(
            batches.len() <= grants + held / HOLD_LIMIT,
            "{} calls for {grants} grants",
            batches.len()
        );
        for b in &batches {
            let (first, last) = (b[0].0, b[b.len() - 1].0);
            assert!(b.iter().all(|(ev, _)| ev.tid() == first.tid()), "{b:?}");
            assert!(matches!(first, Event::TokenAcquire { .. }) || b.len() == HOLD_LIMIT);
            assert!(matches!(last, Event::TokenRelease { .. }) || b.len() == HOLD_LIMIT);
        }

        // The schedule a sink sees is the one event-by-event emission
        // gives.
        let stream: Vec<Event> = calls
            .iter()
            .flat_map(|(_, evs)| evs.iter().filter(|(_, s)| *s).map(|(ev, _)| *ev))
            .collect();
        assert_eq!(stream, *one.0.lock());

        // A thread that dies mid-tenure hands over what it held, through
        // its ThreadPanic, before the next grant.
        if let Some(victim) = victim {
            let b = batches
                .iter()
                .find(|b| {
                    b.iter().any(
                        |(ev, _)| matches!(ev, Event::ThreadPanic { tid, .. } if *tid == victim),
                    )
                })
                .expect("the victim's tenure reached the sink");
            assert_eq!(b[0].0.tid(), victim);
            assert!(matches!(b[b.len() - 1].0, Event::TokenRelease { tid, .. } if tid == victim));
        }
    }
}
