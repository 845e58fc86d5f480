//! Behavioural tests for the baseline runtimes: pthreads (nondeterministic)
//! and DThreads (synchronous deterministic), plus cross-runtime agreement.

use dmt_api::{CommonConfig, CostModel, MemExt, Runtime, RuntimeMemExt, Tid};
use dmt_baselines::{make_runtime, DThreadsRuntime, PthreadsRuntime, RuntimeKind};

fn cfg() -> CommonConfig {
    CommonConfig {
        heap_pages: 64,
        max_threads: 16,
        cost: CostModel::default(),
        gc_budget: usize::MAX,
        trace: dmt_api::TraceHandle::off(),
        perturb: dmt_api::PerturbHandle::off(),
    }
}

/// A race-free reduction program usable under every runtime.
fn reduction_program(rt: &mut dyn Runtime, threads: u64, iters: u64) -> u64 {
    let m = rt.create_mutex();
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..threads)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    for j in 0..iters {
                        c.tick(40);
                        c.mutex_lock(m);
                        let v = c.ld_u64(0);
                        c.st_u64(0, v + i * 1000 + j);
                        c.mutex_unlock(m);
                    }
                }))
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    }));
    rt.final_u64(0)
}

fn expected(threads: u64, iters: u64) -> u64 {
    (0..threads)
        .flat_map(|i| (0..iters).map(move |j| i * 1000 + j))
        .sum()
}

#[test]
fn pthreads_runs_reduction_correctly() {
    let mut rt = PthreadsRuntime::new(cfg());
    assert_eq!(reduction_program(&mut rt, 4, 10), expected(4, 10));
}

#[test]
fn dthreads_runs_reduction_correctly() {
    let mut rt = DThreadsRuntime::new(cfg());
    assert_eq!(reduction_program(&mut rt, 4, 10), expected(4, 10));
}

#[test]
fn all_five_runtimes_agree_on_race_free_output() {
    for kind in RuntimeKind::ALL {
        let mut rt = make_runtime(kind, cfg());
        assert_eq!(
            reduction_program(rt.as_mut(), 3, 8),
            expected(3, 8),
            "runtime {}",
            kind.label()
        );
    }
}

#[test]
fn dthreads_is_deterministic_including_virtual_time() {
    let run = || {
        let mut rt = DThreadsRuntime::new(cfg());
        let m = rt.create_mutex();
        let r = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..3)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        for j in 0..6u64 {
                            // Racy write plus locked work.
                            c.st_u64(128 + 8 * (i as usize % 2), i * 7 + j);
                            c.tick(100 * (i + 1));
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
        (r.virtual_cycles, r.commit_log_hash, rt.final_hash(0, 4096))
    };
    assert_eq!(run(), run());
}

#[test]
fn dthreads_barrier_and_condvar_work() {
    let mut rt = DThreadsRuntime::new(cfg());
    let b = rt.create_barrier(3);
    let m = rt.create_mutex();
    let c = rt.create_cond();
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (1..3)
            .map(|i| {
                ctx.spawn(Box::new(move |t| {
                    t.st_u64(i * 8, i as u64);
                    t.barrier_wait(b);
                    let sum = t.ld_u64(0) + t.ld_u64(8) + t.ld_u64(16);
                    t.st_u64(64 + i * 8, sum);
                    // Condvar: wait for the main thread's flag.
                    t.mutex_lock(m);
                    while t.ld_u64(256) == 0 {
                        t.cond_wait(c, m);
                    }
                    t.mutex_unlock(m);
                    t.st_u64(512 + i * 8, 1);
                }))
            })
            .collect();
        ctx.st_u64(0, 10);
        ctx.barrier_wait(b);
        ctx.tick(10_000);
        ctx.mutex_lock(m);
        ctx.st_u64(256, 1);
        ctx.cond_broadcast(c);
        ctx.mutex_unlock(m);
        for k in kids {
            ctx.join(k);
        }
    }));
    assert_eq!(rt.final_u64(64 + 8), 13);
    assert_eq!(rt.final_u64(64 + 16), 13);
    assert_eq!(rt.final_u64(512 + 8), 1);
    assert_eq!(rt.final_u64(512 + 16), 1);
}

/// The Figure 1b pathology: a thread that rarely synchronizes makes
/// frequently synchronizing threads wait under DThreads' rendezvous.
/// Consequence-IC does not suffer this.
#[test]
fn dthreads_shows_sync_rate_mismatch_penalty() {
    let program = |rt: &mut dyn Runtime| {
        let m = rt.create_mutex();
        let r = rt.run(Box::new(move |ctx| {
            // Slow thread: one long chunk, then a single sync op.
            let slow = ctx.spawn(Box::new(move |c| {
                c.tick(2_000_000);
                c.mutex_lock(m);
                c.mutex_unlock(m);
            }));
            // Fast thread: many short chunks with sync ops.
            let fast = ctx.spawn(Box::new(move |c| {
                for _ in 0..50 {
                    c.tick(1_000);
                    c.mutex_lock(m);
                    c.mutex_unlock(m);
                }
            }));
            ctx.join(slow);
            ctx.join(fast);
        }));
        r.virtual_cycles
    };
    let mut dt = DThreadsRuntime::new(cfg());
    let dt_v = program(&mut dt);
    let mut ic = make_runtime(RuntimeKind::ConsequenceIc, cfg());
    let ic_v = program(ic.as_mut());
    // Under DThreads the fast thread's 50 fences each wait for the slow
    // thread; under IC ordering the fast thread runs ahead. The paper's
    // point is exactly this gap.
    assert!(
        dt_v > ic_v,
        "expected DThreads ({dt_v}) slower than Consequence-IC ({ic_v})"
    );
}

#[test]
fn pthreads_reports_no_determinism_metadata() {
    let mut rt = PthreadsRuntime::new(cfg());
    let r = rt.run(Box::new(|ctx| {
        ctx.st_u64(0, 1);
        ctx.tick(10);
    }));
    assert_eq!(r.commit_log_hash, 0);
    assert_eq!(r.peak_pages, 0);
    assert!(!rt.is_deterministic());
    assert!(r.virtual_cycles >= 10);
}

#[test]
fn dwc_and_rr_presets_run_barrier_programs() {
    for kind in [RuntimeKind::Dwc, RuntimeKind::ConsequenceRr] {
        let mut rt = make_runtime(kind, cfg());
        let b = rt.create_barrier(2);
        rt.run(Box::new(move |ctx| {
            let k = ctx.spawn(Box::new(move |c| {
                c.st_u64(8, 2);
                c.barrier_wait(b);
                let s = c.ld_u64(0) + c.ld_u64(8);
                c.st_u64(16, s);
            }));
            ctx.st_u64(0, 1);
            ctx.barrier_wait(b);
            ctx.join(k);
        }));
        assert_eq!(rt.final_u64(16), 3, "runtime {}", kind.label());
    }
}
