//! The §5.3 LRC estimator exercised through the live runtime: lock-chain
//! programs should show point-to-point savings, barrier programs none.

use consequence::{ConsequenceRuntime, Options};
use dmt_api::{CommonConfig, CostModel, MemExt, RunReport, Runtime, Tid};

fn cfg() -> CommonConfig {
    CommonConfig {
        heap_pages: 32,
        max_threads: 16,
        cost: CostModel::default(),
        track_lrc: true,
        gc_budget: usize::MAX,
        trace: dmt_api::TraceHandle::off(),
        perturb: dmt_api::PerturbHandle::off(),
    }
}

fn lock_partitioned_program() -> RunReport {
    // Two disjoint producer/consumer pairs, each through its own lock:
    // under LRC, pair A's pages never flow to pair B.
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let locks = [rt.create_mutex(), rt.create_mutex()];
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..4u64)
            .map(|i| {
                let pair = (i / 2) as usize;
                ctx.spawn(Box::new(move |c| {
                    // Each pair works on its own page.
                    let base = 4096 * (1 + pair);
                    for j in 0..12 {
                        c.tick(200);
                        c.mutex_lock(locks[pair]);
                        c.fetch_add_u64(base, i + j);
                        c.mutex_unlock(locks[pair]);
                    }
                }))
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    }))
}

fn barrier_program() -> RunReport {
    // Everyone writes a private page then meets at a barrier, repeatedly:
    // under LRC the barrier broadcasts everything anyway.
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let b = rt.create_barrier(4);
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (1..4)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    for j in 0..8u64 {
                        c.st_u64(4096 * i, j);
                        c.tick(500);
                        c.barrier_wait(b);
                    }
                }))
            })
            .collect();
        for j in 0..8u64 {
            ctx.st_u64(0, j);
            ctx.tick(500);
            ctx.barrier_wait(b);
        }
        for k in kids {
            ctx.join(k);
        }
    }))
}

#[test]
fn lrc_bounded_by_tso_in_live_runs() {
    for report in [lock_partitioned_program(), barrier_program()] {
        assert!(report.counters.pages_propagated > 0);
        assert!(
            report.counters.lrc_pages_propagated <= report.counters.pages_propagated,
            "LRC {} must not exceed TSO {}",
            report.counters.lrc_pages_propagated,
            report.counters.pages_propagated
        );
    }
}

/// The paper's Figure 16 contrast: point-to-point locks benefit from LRC,
/// barriers do not.
#[test]
fn lrc_saves_on_locks_not_on_barriers() {
    let locks = lock_partitioned_program();
    let bars = barrier_program();
    let reduction = |r: &RunReport| {
        1.0 - r.counters.lrc_pages_propagated as f64 / r.counters.pages_propagated as f64
    };
    let lock_red = reduction(&locks);
    let bar_red = reduction(&bars);
    assert!(
        lock_red > bar_red + 0.1,
        "partitioned locks should save clearly more than barriers \
         (lock {lock_red:.2} vs barrier {bar_red:.2})"
    );
    assert!(
        bar_red < 0.15,
        "barrier broadcast should leave little for LRC to save ({bar_red:.2})"
    );
}

/// LRC tracking must not perturb execution: results match a non-tracking
/// run bit-for-bit.
#[test]
fn lrc_tracking_is_observation_only() {
    let run = |track: bool| {
        let mut c = cfg();
        c.track_lrc = track;
        let mut rt = ConsequenceRuntime::new(c, Options::consequence_ic());
        let m = rt.create_mutex();
        let report = rt.run(Box::new(move |ctx| {
            let t = ctx.spawn(Box::new(move |c| {
                for _ in 0..10 {
                    c.mutex_lock(m);
                    c.fetch_add_u64(0, 3);
                    c.mutex_unlock(m);
                    c.tick(100);
                }
            }));
            ctx.join(t);
        }));
        (report.commit_log_hash, report.virtual_cycles)
    };
    assert_eq!(run(true), run(false));
}
