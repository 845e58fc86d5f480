//! TSO consistency properties of the deterministic runtime, checked as
//! litmus tests: store buffering may be relaxed, but program order, lock
//! release→acquire visibility, and write coherence must hold.

use consequence_repro::consequence::{ConsequenceRuntime, Options};
use consequence_repro::dmt_api::{CommonConfig, CostModel, Runtime, RuntimeMemExt, Tid};

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

fn variants() -> Vec<(&'static str, Options)> {
    vec![
        ("ic", Options::consequence_ic()),
        (
            "ic-nocoarsen",
            Options::consequence_ic().without("coarsening"),
        ),
        ("rr", Options::consequence_rr()),
        ("dwc", Options::dwc()),
    ]
}

/// Store buffering (SB): `r1 = r2 = 0` is TSO-legal; `r1 = r2 = 1` would
/// require reading both stores before either committed — impossible here.
/// Whatever the outcome, it must repeat exactly.
#[test]
fn store_buffering_is_tso_legal_and_deterministic() {
    for (name, opts) in variants() {
        let run = |opts: Options| {
            let mut rt = ConsequenceRuntime::new(cfg(), opts);
            rt.run(Box::new(|ctx| {
                let t1 = ctx.spawn(Box::new(|c| {
                    c.st_u64(0, 1); // X
                    let r1 = c.ld_u64(4096); // Y
                    c.st_u64(8192, r1);
                }));
                let t2 = ctx.spawn(Box::new(|c| {
                    c.st_u64(4096, 1); // Y
                    let r2 = c.ld_u64(0); // X
                    c.st_u64(8200, r2);
                }));
                ctx.join(t1);
                ctx.join(t2);
            }));
            (rt.final_u64(8192), rt.final_u64(8200))
        };
        let (r1, r2) = run(opts.clone());
        // No out-of-thin-air values; both-see-both is impossible because
        // neither store can be visible before its thread's first commit.
        assert!(r1 <= 1 && r2 <= 1, "{name}: thin-air value");
        assert!(!(r1 == 1 && r2 == 1), "{name}: impossible SB outcome");
        let again = run(opts);
        assert_eq!((r1, r2), again, "{name}: nondeterministic litmus");
    }
}

/// Message passing through a mutex: after acquiring the lock that the
/// writer released, the reader must see both the data and the flag.
#[test]
fn release_acquire_visibility_through_mutex() {
    for (name, opts) in variants() {
        let mut rt = ConsequenceRuntime::new(cfg(), opts);
        let m = rt.create_mutex();
        rt.run(Box::new(move |ctx| {
            let w = ctx.spawn(Box::new(move |c| {
                c.st_u64(0, 41); // data
                c.mutex_lock(m);
                c.st_u64(8, 1); // flag, inside the critical section
                c.mutex_unlock(m);
            }));
            let r = ctx.spawn(Box::new(move |c| {
                loop {
                    c.mutex_lock(m);
                    let flag = c.ld_u64(8);
                    let data = c.ld_u64(0);
                    c.mutex_unlock(m);
                    if flag == 1 {
                        // Release→acquire: data must be visible with flag.
                        c.st_u64(16, data);
                        break;
                    }
                    c.tick(500);
                }
            }));
            ctx.join(w);
            ctx.join(r);
        }));
        assert_eq!(rt.final_u64(16), 41, "{name}: lost release→acquire edge");
    }
}

/// Write coherence: a thread's two stores to one location are never seen
/// out of order — the final value is always the later store.
#[test]
fn same_location_stores_keep_program_order() {
    for (name, opts) in variants() {
        let mut rt = ConsequenceRuntime::new(cfg(), opts);
        let m = rt.create_mutex();
        rt.run(Box::new(move |ctx| {
            let w = ctx.spawn(Box::new(move |c| {
                c.st_u64(0, 1);
                c.tick(100);
                c.st_u64(0, 2);
                c.mutex_lock(m);
                c.mutex_unlock(m);
            }));
            ctx.join(w);
        }));
        assert_eq!(rt.final_u64(0), 2, "{name}: stores reordered");
    }
}

/// Total store order: all threads agree on the order of two writers'
/// committed values. Observed (value-at-read) sequences from two observers
/// must be consistent with a single interleaving — in particular, they
/// cannot disagree on which write was last.
#[test]
fn observers_agree_on_final_write_order() {
    for (name, opts) in variants() {
        let run = |opts: Options| {
            let mut rt = ConsequenceRuntime::new(cfg(), opts);
            let m = rt.create_mutex();
            rt.run(Box::new(move |ctx| {
                let kids: Vec<Tid> = (0..2u64)
                    .map(|i| {
                        ctx.spawn(Box::new(move |c| {
                            c.tick(50 + i * 13);
                            c.mutex_lock(m);
                            c.st_u64(0, i + 1);
                            c.mutex_unlock(m);
                        }))
                    })
                    .collect();
                let obs: Vec<Tid> = (0..2)
                    .map(|o| {
                        ctx.spawn(Box::new(move |c| {
                            c.mutex_lock(m);
                            let v = c.ld_u64(0);
                            c.mutex_unlock(m);
                            c.st_u64(64 + 8 * o, v);
                        }))
                    })
                    .collect();
                for k in kids.into_iter().chain(obs) {
                    ctx.join(k);
                }
            }));
            (rt.final_u64(0), rt.final_u64(64), rt.final_u64(72))
        };
        let a = run(opts.clone());
        let b = run(opts);
        assert_eq!(a, b, "{name}: nondeterministic TSO outcome");
        assert!(a.0 == 1 || a.0 == 2, "{name}: invalid final value");
    }
}

/// Coarsening may defer visibility but must never *reorder* or lose a
/// thread's writes (delaying commits is TSO-legal; the final heap matches
/// the non-coarsened run for lock-ordered programs with commutative data).
#[test]
fn coarsening_preserves_lock_ordered_results() {
    let result = |opts: Options| {
        let mut rt = ConsequenceRuntime::new(cfg(), opts);
        let m = rt.create_mutex();
        rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..4u64)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        for j in 0..25 {
                            c.mutex_lock(m);
                            let v = c.ld_u64(0);
                            c.st_u64(0, v + i * 1_000 + j);
                            c.mutex_unlock(m);
                            c.tick(30);
                        }
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        rt.final_u64(0)
    };
    let expected: u64 = (0..4u64)
        .flat_map(|i| (0..25u64).map(move |j| i * 1_000 + j))
        .sum();
    assert_eq!(result(Options::consequence_ic()), expected);
    assert_eq!(
        result(Options::consequence_ic().without("coarsening")),
        expected
    );
}
