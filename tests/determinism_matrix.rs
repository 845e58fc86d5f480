//! Cross-crate determinism matrix: every deterministic runtime must
//! reproduce outputs, commit logs and (for Consequence with fixed overflow)
//! virtual times bit-for-bit, and all five runtimes must agree on the
//! results of race-free programs.

use consequence_repro::consequence::{ConsequenceRuntime, Options};
use consequence_repro::dmt_api::trace::EventKind;
use consequence_repro::dmt_api::{
    Breakdown, Class, CommonConfig, CostModel, Counters, MemExt, RunReport, Runtime, RuntimeMemExt,
    Tid,
};
use consequence_repro::dmt_baselines::{make_runtime, RuntimeKind};
use consequence_repro::dmt_workloads::{workload_by_name, Params};

fn cfg(pages: usize) -> CommonConfig {
    CommonConfig {
        heap_pages: pages,
        max_threads: 32,
        cost: CostModel::default(),
        gc_budget: usize::MAX,
        trace: dmt_api::TraceHandle::off(),
        perturb: dmt_api::PerturbHandle::off(),
    }
}

/// A mixed-primitive program: locks, a condvar hand-off, a barrier, racy
/// byte-level writes, and nested spawning.
fn mixed_program(rt: &mut dyn Runtime) -> (u64, consequence_repro::dmt_api::RunReport) {
    let m = rt.create_mutex();
    let flag_lock = rt.create_mutex();
    let c = rt.create_cond();
    let b = rt.create_barrier(3);
    rt.init_u64(0, 0);
    let report = rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..3u64)
            .map(|i| {
                ctx.spawn(Box::new(move |t| {
                    // Racy single-byte writes to one shared page.
                    t.write_bytes(512 + (i as usize % 2), &[i as u8 + 1]);
                    t.tick(100 * (i + 1));
                    // Locked reduction.
                    t.mutex_lock(m);
                    let v = t.ld_u64(0);
                    t.st_u64(0, v + i + 1);
                    t.mutex_unlock(m);
                    t.barrier_wait(b);
                    // Condvar: wait for the main thread's go signal.
                    t.mutex_lock(flag_lock);
                    while t.ld_u64(8) == 0 {
                        t.cond_wait(c, flag_lock);
                    }
                    t.mutex_unlock(flag_lock);
                    t.fetch_add_u64(16 + 8 * i as usize, i + 7);
                }))
            })
            .collect();
        ctx.tick(5_000);
        ctx.mutex_lock(flag_lock);
        ctx.st_u64(8, 1);
        ctx.cond_broadcast(c);
        ctx.mutex_unlock(flag_lock);
        for k in kids {
            ctx.join(k);
        }
    }));
    (rt.final_hash(0, 4096), report)
}

#[test]
fn deterministic_runtimes_reproduce_mixed_program() {
    for kind in [
        RuntimeKind::DThreads,
        RuntimeKind::Dwc,
        RuntimeKind::ConsequenceRr,
        RuntimeKind::ConsequenceIc,
    ] {
        let run = || {
            let mut rt = make_runtime(kind, cfg(64));
            let (h, report) = mixed_program(rt.as_mut());
            (h, report.commit_log_hash)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{} not deterministic", kind.label());
    }
}

#[test]
fn race_free_outputs_agree_across_all_runtimes() {
    // The locked counter and the post-condvar cells are race-free: every
    // runtime (pthreads included) must produce the same values there.
    let mut expected: Option<(u64, Vec<u64>)> = None;
    for kind in RuntimeKind::ALL {
        let mut rt = make_runtime(kind, cfg(64));
        mixed_program(rt.as_mut());
        let counter = rt.final_u64(0);
        let cells: Vec<u64> = (0..3).map(|i| rt.final_u64(16 + 8 * i)).collect();
        assert_eq!(counter, 1 + 2 + 3, "{}", kind.label());
        match &expected {
            None => expected = Some((counter, cells)),
            Some((ec, es)) => {
                assert_eq!((counter, &cells), (*ec, es), "{}", kind.label());
            }
        }
    }
}

/// Consequence-IC with fixed overflow must reproduce its *virtual time*
/// exactly — the strongest determinism witness this workspace offers.
#[test]
fn virtual_time_reproducible_for_fixed_overflow_ic() {
    let run = || {
        let mut opts = Options::consequence_ic();
        opts.adaptive_overflow = false;
        let mut rt = ConsequenceRuntime::new(cfg(64), opts);
        let m = rt.create_mutex();
        let report = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..4u64)
                .map(|i| {
                    ctx.spawn(Box::new(move |t| {
                        for j in 0..20 {
                            t.tick(137 * (i + 1) + j);
                            t.mutex_lock(m);
                            t.fetch_add_u64(0, 1);
                            t.mutex_unlock(m);
                        }
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        (report.virtual_cycles, report.commit_log_hash)
    };
    assert_eq!(run(), run());
}

/// Workload kernels reproduce bit-identically under Consequence-IC across
/// five consecutive runs (catching low-probability races).
#[test]
fn repeated_kernel_runs_are_identical() {
    let p = Params::new(3, 1, 99);
    for name in ["canneal", "ferret"] {
        let w = workload_by_name(name).unwrap();
        let mut seen = None;
        for run in 0..3 {
            let mut rt = make_runtime(RuntimeKind::ConsequenceIc, cfg(w.heap_pages(&p)));
            let prepared = w.prepare(rt.as_mut(), &p);
            let report = rt.run(prepared.job);
            let v = (prepared.validate)(rt.as_ref());
            assert!(v.matches_reference, "{name} run {run}");
            let sig = (v.output_hash, report.commit_log_hash);
            match &seen {
                None => seen = Some(sig),
                Some(s) => assert_eq!(*s, sig, "{name} diverged on run {run}"),
            }
        }
    }
}

/// Every [`Class::Det`] value of a report's `Counters` and `Breakdown`,
/// by name, then each event kind's count.
fn det_values(r: &RunReport) -> Vec<(&'static str, u64)> {
    let counters = Counters::FIELDS.iter().zip(r.counters.values());
    let breakdown = Breakdown::FIELDS.iter().zip(r.breakdown.values());
    let kinds = EventKind::ALL.iter().map(|k| (k.name(), r.events.get(*k)));
    counters
        .chain(breakdown)
        .filter(|((_, class), _)| *class == Class::Det)
        .map(|((name, _), v)| (*name, v))
        .chain(kinds)
        .collect()
}

/// The metrics table's classes hold: every row classed `Det`, and every
/// event kind's count, auxiliary kinds included, is equal across three
/// runs of a lock kernel, a barrier kernel and the server under each
/// deterministic configuration (Consequence-IC with a fixed publication
/// interval, as `GOLDEN_VTIME` runs it, and the other three deterministic
/// runtimes). The runs attach no sink: the ledgers count the events.
#[test]
fn deterministic_metrics_reproduce() {
    let p = Params::new(4, 1, 42);
    // `None` is Consequence-IC with a fixed publication interval.
    let kinds = [
        None,
        Some(RuntimeKind::ConsequenceRr),
        Some(RuntimeKind::Dwc),
        Some(RuntimeKind::DThreads),
    ];
    for name in ["ferret", "ocean_cp", "dmt_server"] {
        let w = workload_by_name(name).unwrap();
        for kind in kinds {
            let label = kind.map_or("consequence-ic (fixed publication)", RuntimeKind::label);
            let run = || {
                let c = cfg(w.heap_pages(&p));
                let mut rt: Box<dyn Runtime> = match kind {
                    Some(k) => make_runtime(k, c),
                    None => Box::new(ConsequenceRuntime::new(
                        c,
                        Options {
                            adaptive_overflow: false,
                            ..Options::consequence_ic()
                        },
                    )),
                };
                let prepared = w.prepare(rt.as_mut(), &p);
                let report = rt.run(prepared.job);
                assert!((prepared.validate)(rt.as_ref()).matches_reference);
                det_values(&report)
            };
            let first = run();
            for i in 1..3 {
                let again = run();
                let moved: Vec<_> = first.iter().zip(&again).filter(|(a, b)| a != b).collect();
                assert!(moved.is_empty(), "{name} {label} run {i}: {moved:?}");
            }
        }
    }
}

/// Every deterministic runtime's event-trace schedule hash is
/// bit-identical across three consecutive runs of the mixed program —
/// the paper's reproducibility claim, witnessed at event granularity
/// rather than only at final memory state.
#[test]
fn schedule_hashes_reproduce_for_deterministic_runtimes() {
    use consequence_repro::dmt_api::trace::HashSink;
    use consequence_repro::dmt_api::TraceHandle;
    use std::sync::Arc;
    for kind in [
        RuntimeKind::DThreads,
        RuntimeKind::Dwc,
        RuntimeKind::ConsequenceRr,
        RuntimeKind::ConsequenceIc,
    ] {
        let run = || {
            let mut c = cfg(64);
            c.trace = TraceHandle::to(Arc::new(HashSink::new()));
            let mut rt = make_runtime(kind, c);
            let (_, report) = mixed_program(rt.as_mut());
            (report.schedule_hash, report.events.total())
        };
        let (h0, n0) = run();
        assert_ne!(h0, 0, "{}: empty schedule hash", kind.label());
        assert!(n0 > 0, "{}: no events traced", kind.label());
        for i in 1..3 {
            let (h, n) = run();
            assert_eq!(h, h0, "{} hash diverged on run {i}", kind.label());
            // Counts include *auxiliary* events (overflow publications),
            // whose number is legitimately wall-clock-dependent — so only
            // the hash, which covers exactly the schedule events, is
            // asserted bit-identical.
            assert!(n > 0, "{}: no events traced on run {i}", kind.label());
        }
    }
}

/// pthreads is the negative control: it *emits* the same event
/// vocabulary, so its counts are populated, but its grant order is
/// whatever the OS scheduler produced — nothing may assert its hash
/// stable. Here we only check the instrumentation is live.
#[test]
fn pthreads_negative_control_emits_events() {
    use consequence_repro::dmt_api::trace::HashSink;
    use consequence_repro::dmt_api::TraceHandle;
    use std::sync::Arc;
    let mut c = cfg(64);
    c.trace = TraceHandle::to(Arc::new(HashSink::new()));
    let mut rt = make_runtime(RuntimeKind::Pthreads, c);
    let (_, report) = mixed_program(rt.as_mut());
    assert!(report.events.get(EventKind::MutexLock) > 0);
    assert!(report.events.get(EventKind::BarrierOpen) > 0);
    assert!(report.events.get(EventKind::Exit) > 0);
    assert_ne!(report.schedule_hash, 0);
}

/// Perturbing the program (one thread computes longer before each lock)
/// must change Consequence's schedule, and the diagnoser must pinpoint
/// the first divergent event between the recorded traces.
#[test]
fn diagnoser_pinpoints_perturbed_schedule() {
    use consequence_repro::dmt_api::trace::{diagnose, MemorySink};
    use consequence_repro::dmt_api::TraceHandle;
    use std::sync::Arc;
    let rec = |extra: u64| {
        let sink = Arc::new(MemorySink::new(1 << 16));
        let mut c = cfg(64);
        c.trace = TraceHandle::to(sink.clone());
        let mut rt = ConsequenceRuntime::new(c, Options::consequence_ic());
        let m = rt.create_mutex();
        rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..3u64)
                .map(|i| {
                    ctx.spawn(Box::new(move |t| {
                        let rate = 97 * (i + 1) + if i == 1 { extra } else { 0 };
                        for _ in 0..12 {
                            t.tick(rate);
                            t.mutex_lock(m);
                            t.fetch_add_u64(0, 1);
                            t.mutex_unlock(m);
                        }
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        let (events, dropped) = sink.take();
        assert_eq!(dropped, 0);
        events
    };
    let base = rec(0);
    assert!(diagnose(&base, &rec(0)).is_none(), "same program diverged");
    let skewed = rec(10_000);
    let d = diagnose(&base, &skewed).expect("perturbation left schedule intact");
    assert_eq!(&base[..d.index], &skewed[..d.index], "prefix not common");
    assert!(
        d.left.is_some() || d.right.is_some(),
        "diagnosis names no event"
    );
}

/// Thread ids are assigned deterministically even with nested spawns.
#[test]
fn nested_spawn_tids_are_deterministic() {
    let run = || {
        let mut rt = ConsequenceRuntime::new(cfg(16), Options::consequence_ic());
        let mut tids = Vec::new();
        let report = rt.run(Box::new(|ctx| {
            let a = ctx.spawn(Box::new(|t| {
                let inner = t.spawn(Box::new(|u| u.tick(10)));
                t.join(inner);
                t.st_u64(0, inner.0 as u64);
            }));
            let b = ctx.spawn(Box::new(|t| t.tick(1_000)));
            ctx.join(a);
            ctx.join(b);
        }));
        tids.push(report.threads);
        (rt.final_u64(0), report.threads)
    };
    assert_eq!(run(), run());
}
