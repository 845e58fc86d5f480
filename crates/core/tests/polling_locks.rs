//! The §4.1 lock-design comparison: Kendo-style polling locks must be
//! correct and deterministic, and the paper's blocking design must beat
//! them under contention.

use consequence::{ConsequenceRuntime, Options};
use dmt_api::{CommonConfig, CostModel, MemExt, Runtime, RuntimeMemExt, Tid};

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

fn contended_counter(opts: Options) -> (u64, u64, u64) {
    let mut rt = ConsequenceRuntime::new(cfg(), opts);
    let m = rt.create_mutex();
    let report = rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..4u64)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    for _ in 0..25 {
                        c.mutex_lock(m);
                        c.fetch_add_u64(0, 1);
                        c.tick(40);
                        c.mutex_unlock(m);
                        c.tick(60 * (i + 1));
                    }
                }))
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    }));
    (
        rt.final_u64(0),
        report.virtual_cycles,
        report.counters.token_acquisitions,
    )
}

/// Both designs compared without coarsening (§4.1 is about the base lock
/// protocol, and coarsening's token retention hides contention) and with
/// fixed overflow intervals (adaptive notification timing is wall-clock
/// dependent by design, §3.2, and these tests assert exact virtual times).
fn blocking() -> Options {
    Options::consequence_ic()
        .without("coarsening")
        .without("adaptive_overflow")
}

fn polling(increment: u64) -> Options {
    let mut o = blocking();
    o.polling_locks = true;
    o.polling_increment = increment;
    o
}

#[test]
fn polling_locks_are_correct_and_deterministic() {
    for inc in [100, 1_000, 10_000] {
        let a = contended_counter(polling(inc));
        assert_eq!(a.0, 100, "mutual exclusion must hold at increment {inc}");
        let b = contended_counter(polling(inc));
        assert_eq!(a, b, "polling must stay deterministic at increment {inc}");
    }
}

#[test]
fn blocking_beats_polling_under_contention() {
    let (count, blocking_v, blocking_tokens) = contended_counter(blocking());
    assert_eq!(count, 100);
    // A poorly tuned (small) increment is the paper's complaint: many
    // futile token round trips.
    let (count_p, polling_v, polling_tokens) = contended_counter(polling(100));
    assert_eq!(count_p, 100);
    assert!(
        polling_tokens > blocking_tokens,
        "polling must burn more token acquisitions \
         ({polling_tokens} vs {blocking_tokens})"
    );
    assert!(
        polling_v > blocking_v,
        "blocking design should win under contention \
         (blocking {blocking_v} vs polling {polling_v})"
    );
}

#[test]
fn polling_increment_is_the_papers_tuning_problem() {
    // Different increments give different (all-correct) performance —
    // exactly the "program-specific tuning" the paper's blocking design
    // removes.
    let runs: Vec<u64> = [100u64, 1_000, 10_000]
        .iter()
        .map(|&inc| contended_counter(polling(inc)).1)
        .collect();
    let min = *runs.iter().min().expect("nonempty");
    let max = *runs.iter().max().expect("nonempty");
    assert!(
        max as f64 / min as f64 > 1.05,
        "increments should visibly matter: {runs:?}"
    );
}
