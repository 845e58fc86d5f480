//! Behavioural tests for the Consequence runtime: determinism, mutual
//! exclusion, condition variables, barriers, thread lifecycle, coarsening
//! and the ad-hoc chunk limit.

use std::sync::Arc;

use consequence::{ConsequenceRuntime, Options};
use dmt_api::{
    Breakdown, CommonConfig, CostModel, HashSink, Job, MemExt, RunReport, Runtime, RuntimeMemExt,
    ThreadCtx, Tid, TraceHandle,
};

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

fn run_with(opts: Options, main: impl Fn() -> Job) -> (RunReport, ConsequenceRuntime) {
    let mut rt = ConsequenceRuntime::new(cfg(), opts);
    let r = rt.run(main());
    (r, rt)
}

#[test]
fn single_thread_read_write() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    rt.init_u64(8, 5);
    let report = rt.run(Box::new(|ctx| {
        let v = ctx.ld_u64(8);
        ctx.st_u64(16, v * 3);
        ctx.tick(100);
    }));
    assert_eq!(rt.final_u64(16), 15);
    assert!(report.virtual_cycles >= 100);
    assert_eq!(report.threads, 1);
    assert_eq!(report.counters.faults, 1);
}

#[test]
fn spawn_join_propagates_memory() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let report = rt.run(Box::new(|ctx| {
        let t = ctx.spawn(Box::new(|c| {
            c.tick(50);
            c.st_u64(0, 7);
        }));
        assert_eq!(t, Tid(1));
        ctx.join(t);
        let v = ctx.ld_u64(0);
        ctx.st_u64(8, v + 1);
    }));
    assert_eq!(rt.final_u64(0), 7);
    assert_eq!(rt.final_u64(8), 8);
    assert_eq!(report.threads, 2);
    assert_eq!(report.counters.spawns, 1);
}

/// Two threads increment a shared counter under a mutex; the result must be
/// exact (mutual exclusion) on every run.
#[test]
fn mutex_provides_mutual_exclusion() {
    for _ in 0..3 {
        let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
        let m = rt.create_mutex();
        let report = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..4)
                .map(|_| {
                    ctx.spawn(Box::new(move |c| {
                        for _ in 0..25 {
                            c.mutex_lock(m);
                            let v = c.ld_u64(0);
                            c.tick(20);
                            c.st_u64(0, v + 1);
                            c.mutex_unlock(m);
                            c.tick(100);
                        }
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        assert_eq!(rt.final_u64(0), 100);
        assert!(report.counters.lock_acquires >= 100);
    }
}

/// A racy (unsynchronized) increment loses updates, but must lose them
/// DETERMINISTICALLY: same final value and same commit log on every run.
#[test]
fn racy_increments_are_deterministic() {
    let run = || {
        let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
        let m = rt.create_mutex();
        let report = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..4)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        for j in 0..10 {
                            // Unsynchronized read-modify-write on address 0.
                            let v = c.ld_u64(0);
                            c.tick((i as u64 + 1) * 13 + j);
                            c.st_u64(0, v + 1);
                            // Periodic sync op to force commits.
                            c.mutex_lock(m);
                            c.mutex_unlock(m);
                        }
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        (rt.final_u64(0), report.commit_log_hash)
    };
    let a = run();
    let b = run();
    let c = run();
    assert_eq!(a, b);
    assert_eq!(b, c);
}

/// Virtual time must also be deterministic when adaptive overflow
/// notification is disabled (fixed publication points).
#[test]
fn virtual_time_is_deterministic_with_fixed_overflow() {
    let opts = || Options::consequence_ic().without("adaptive_overflow");
    let run = || {
        let (r, rt) = run_with(opts(), || {
            Box::new(|ctx: &mut dyn ThreadCtx| {
                let a = ctx.spawn(Box::new(|c| {
                    for _ in 0..50 {
                        c.tick(997);
                        c.fetch_add_u64(64, 1);
                    }
                }));
                let b = ctx.spawn(Box::new(|c| {
                    for _ in 0..80 {
                        c.tick(311);
                        c.fetch_add_u64(128, 1);
                    }
                }));
                ctx.join(a);
                ctx.join(b);
            })
        });
        (r.virtual_cycles, r.commit_log_hash, rt.final_hash(0, 4096))
    };
    assert_eq!(run(), run());
}

#[test]
fn barrier_releases_all_parties_with_consistent_memory() {
    for &parallel in &[true, false] {
        let mut opts = Options::consequence_ic();
        opts.parallel_barrier = parallel;
        let mut rt = ConsequenceRuntime::new(cfg(), opts);
        let b = rt.create_barrier(4);
        let report = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (1..4)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        c.st_u64(i * 8, i as u64 + 10);
                        c.barrier_wait(b);
                        // After the barrier, everyone sees everyone's write.
                        let mut sum = 0;
                        for j in 0..4 {
                            sum += c.ld_u64(j * 8);
                        }
                        c.st_u64(4096 + i * 8, sum);
                    }))
                })
                .collect();
            ctx.st_u64(0, 10);
            ctx.barrier_wait(b);
            let mut sum = 0;
            for j in 0..4usize {
                sum += ctx.ld_u64(j * 8);
            }
            ctx.st_u64(4096, sum);
            for k in kids {
                ctx.join(k);
            }
        }));
        let expect = 10 + 11 + 12 + 13;
        for i in 0..4usize {
            assert_eq!(
                rt.final_u64(4096 + i * 8),
                expect,
                "parallel={parallel}, thread {i}"
            );
        }
        assert_eq!(report.counters.barrier_waits, 4);
    }
}

#[test]
fn barrier_reusable_across_generations() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let b = rt.create_barrier(2);
    rt.run(Box::new(move |ctx| {
        let k = ctx.spawn(Box::new(move |c| {
            for i in 0..5u64 {
                c.fetch_add_u64(0, i);
                c.barrier_wait(b);
                c.barrier_wait(b);
            }
        }));
        for _ in 0..5 {
            ctx.barrier_wait(b);
            ctx.barrier_wait(b);
        }
        ctx.join(k);
    }));
    assert_eq!(rt.final_u64(0), 1 + 2 + 3 + 4);
}

/// The parallel barrier's installer runs the collector as the serial
/// commit does. `main` waits in `join`, pinning an early base, while two
/// workers rewrite the same four pages for `rounds` barrier generations:
/// only squashing can reclaim the superseded copies, and nearly every
/// commit is a barrier install.
#[test]
fn barrier_installs_collect_superseded_pages() {
    let run = |gc_budget: usize, rounds: u64| {
        let mut rt = ConsequenceRuntime::new(
            CommonConfig { gc_budget, ..cfg() },
            Options::consequence_ic().without("adaptive_overflow"),
        );
        let b = rt.create_barrier(2);
        let report = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..2usize)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        for r in 0..rounds {
                            for p in 0..4 {
                                c.st_u64(p * 4096 + i * 8, r);
                            }
                            c.tick(100);
                            c.barrier_wait(b);
                        }
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        assert_eq!(rt.final_u64(3 * 4096 + 8), rounds - 1);
        report
    };
    let heap = cfg().heap_pages;
    for rounds in [20, 80] {
        let r = run(4, rounds);
        assert!(
            r.peak_pages < 2 * heap,
            "{rounds} rounds: peak {} pages over a {heap}-page heap",
            r.peak_pages
        );
        assert!(r.counters.gc_versions_squashed > 0);
        assert_eq!(r.virtual_cycles, run(4, rounds).virtual_cycles);
    }
    let (short, long) = (run(0, 20).peak_pages, run(0, 80).peak_pages);
    assert!(
        long > short + 60 * 2,
        "a starved collector: {short} pages after 20 rounds, {long} after 80"
    );
}

#[test]
fn condvar_signal_wakes_waiter() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let m = rt.create_mutex();
    let c = rt.create_cond();
    rt.run(Box::new(move |ctx| {
        let consumer = ctx.spawn(Box::new(move |t| {
            t.mutex_lock(m);
            while t.ld_u64(0) == 0 {
                t.cond_wait(c, m);
            }
            let v = t.ld_u64(0);
            t.st_u64(8, v * 2);
            t.mutex_unlock(m);
        }));
        ctx.tick(10_000);
        ctx.mutex_lock(m);
        ctx.st_u64(0, 21);
        ctx.cond_signal(c);
        ctx.mutex_unlock(m);
        ctx.join(consumer);
    }));
    assert_eq!(rt.final_u64(8), 42);
}

#[test]
fn cond_broadcast_wakes_all() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let m = rt.create_mutex();
    let c = rt.create_cond();
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (1..4)
            .map(|i| {
                ctx.spawn(Box::new(move |t| {
                    t.mutex_lock(m);
                    while t.ld_u64(0) == 0 {
                        t.cond_wait(c, m);
                    }
                    t.mutex_unlock(m);
                    t.st_u64(i * 8, 1);
                }))
            })
            .collect();
        ctx.tick(50_000);
        ctx.mutex_lock(m);
        ctx.st_u64(0, 1);
        ctx.cond_broadcast(c);
        ctx.mutex_unlock(m);
        for k in kids {
            ctx.join(k);
        }
    }));
    for i in 1..4usize {
        assert_eq!(rt.final_u64(i * 8), 1, "waiter {i} not woken");
    }
}

/// The paper's §2.7 scenario: a thread spins on a flag that another thread
/// sets. Without a chunk limit the spinner would never see the update; with
/// one, it must terminate — and the forced commits fall exactly where they
/// did before `Ctx::advance` was split into an inlined test and an
/// out-of-line loop. Nothing else runs with a limit set, so this is what
/// fails if that test ever skips a forced commit or fires one a word late.
#[test]
fn chunk_limit_supports_ad_hoc_synchronization() {
    // (schedule hash, commit-log hash, commits, chunks) under
    // `consequence-ic` and `consequence-rr`, captured at the parent commit.
    // The commit-log column alone was re-captured when the log's per-page
    // term became the page's write set (`conversion::merge::record_term`)
    // in place of a digest of all 4 KiB; the other three reproduced.
    type Pin = (u64, u64, u64, u64);
    const PINS: [(u64, [Pin; 2]); 3] = [
        (
            1,
            [
                (0xa387_4136_6156_d581, 0x8e5b_3d8e_eeb9_f250, 5467, 5467),
                (0x96dd_2e75_1e9c_94cb, 0x8e5b_3d8e_eeb9_f250, 13, 13),
            ],
        ),
        (
            7,
            [
                (0x3af2_744c_18d3_4153, 0xf635_0dc4_0be7_08a9, 2734, 2734),
                (0x690a_bc5a_7736_c393, 0xf635_0dc4_0be7_08a9, 8, 8),
            ],
        ),
        (
            10_000,
            [
                (0x64b5_9226_2083_cbe3, 0xf635_0dc4_0be7_08a9, 9, 9),
                (0x34cb_90be_8076_fb8b, 0xf635_0dc4_0be7_08a9, 7, 7),
            ],
        ),
    ];
    for (limit, pins) in PINS {
        let runtimes = [Options::consequence_ic(), Options::consequence_rr()];
        for (mut opts, pin) in runtimes.into_iter().zip(pins) {
            let order = opts.order;
            opts.chunk_limit = Some(limit);
            let mut cfg = cfg();
            cfg.trace = TraceHandle::to(Arc::new(HashSink::new()));
            let mut rt = ConsequenceRuntime::new(cfg, opts);
            let r = rt.run(Box::new(move |ctx| {
                let spinner = ctx.spawn(Box::new(|c| {
                    // Ad-hoc spin on address 0 with no explicit synchronization.
                    while c.ld_u64(0) == 0 {
                        c.tick(10);
                    }
                    // Three words in one call, then a page-straddling store.
                    c.write_bytes(16, &[7; 24]);
                    c.st_u64(dmt_api::PAGE_SIZE - 4, 5);
                    c.st_u64(8, 99);
                }));
                ctx.tick(30_000);
                ctx.st_u64(0, 1);
                // The setter must also commit; its own chunk limit forces that.
                ctx.join(spinner);
            }));
            assert_eq!(rt.final_u64(8), 99);
            let c = &r.counters;
            let got = (r.schedule_hash, r.commit_log_hash, c.commits, c.chunks);
            assert_eq!(got, pin, "chunk limit {limit}, {order:?}");
        }
    }
}

/// One thread's loads and stores under a chunk limit that the publication
/// interval does not divide, so the two thresholds of `Ctx::advance`
/// alternate as the nearer one: every publication, forced commit, fault and
/// virtual cycle falls where it did while `Ctx::advance_within` tested
/// each threshold in turn (values captured then).
#[test]
fn one_bound_fires_both_thresholds_where_each_fired() {
    let mut opts = Options::consequence_ic();
    opts.chunk_limit = Some(1_000);
    opts.adaptive_overflow = false;
    opts.base_overflow = 300;
    let mut rt = ConsequenceRuntime::new(cfg(), opts);
    let m = rt.create_mutex();
    let r = rt.run(Box::new(move |ctx| {
        let page = dmt_api::PAGE_SIZE;
        for i in 0..5_000usize {
            let a = i * 8 % (4 * page);
            let v = ctx.ld_u64(a);
            ctx.st_u64((a + page) % (4 * page), v + i as u64);
            ctx.tick((i % 7) as u64);
            if i % 512 == 0 {
                // A retained token defers the publications it passes.
                ctx.mutex_lock(m);
                ctx.tick(400);
                ctx.mutex_unlock(m);
            }
        }
    }));
    let c = &r.counters;
    let got = (c.publications, c.commits, c.faults, r.virtual_cycles);
    assert_eq!(got, (103, 31, 40, 502_595));
    let want = Breakdown {
        chunk: 28_995,
        commit: 105_300,
        update: 18_600,
        fault: 120_000,
        lib: 229_700,
        ..Breakdown::default()
    };
    assert_eq!(r.per_thread, [(Tid(0), want)]);
}

/// Thread-pool reuse: sequentially spawned threads should hit the pool.
#[test]
fn thread_pool_reuses_workers() {
    let (report, rt) = run_with(Options::consequence_ic(), || {
        Box::new(|ctx: &mut dyn ThreadCtx| {
            for i in 0..6u64 {
                let t = ctx.spawn(Box::new(move |c| {
                    c.fetch_add_u64(0, i);
                }));
                ctx.join(t);
            }
        })
    });
    assert_eq!(rt.final_u64(0), 15);
    assert!(
        report.counters.pool_hits >= 4,
        "expected pool reuse, got {} hits",
        report.counters.pool_hits
    );

    // With the pool disabled, every spawn forks.
    let (report2, _) = run_with(Options::consequence_ic().without("thread_pool"), || {
        Box::new(|ctx: &mut dyn ThreadCtx| {
            for i in 0..6u64 {
                let t = ctx.spawn(Box::new(move |c| {
                    c.fetch_add_u64(0, i);
                }));
                ctx.join(t);
            }
        })
    });
    assert_eq!(report2.counters.pool_hits, 0);
}

/// Fine-grained locks must actually allow disjoint critical sections; two
/// threads on different locks must both make progress and the outcome must
/// be deterministic.
#[test]
fn distinct_locks_do_not_alias() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let m0 = rt.create_mutex();
    let m1 = rt.create_mutex();
    rt.run(Box::new(move |ctx| {
        let a = ctx.spawn(Box::new(move |c| {
            for _ in 0..20 {
                c.mutex_lock(m0);
                c.fetch_add_u64(0, 1);
                c.mutex_unlock(m0);
            }
        }));
        let b = ctx.spawn(Box::new(move |c| {
            for _ in 0..20 {
                c.mutex_lock(m1);
                c.fetch_add_u64(8, 1);
                c.mutex_unlock(m1);
            }
        }));
        ctx.join(a);
        ctx.join(b);
    }));
    assert_eq!(rt.final_u64(0), 20);
    assert_eq!(rt.final_u64(8), 20);
}

/// Under the DWC preset all mutexes alias one global lock, yet the program
/// result must be identical.
#[test]
fn dwc_single_global_lock_still_correct() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::dwc());
    assert_eq!(rt.name(), "dwc");
    let m0 = rt.create_mutex();
    let m1 = rt.create_mutex();
    rt.run(Box::new(move |ctx| {
        let a = ctx.spawn(Box::new(move |c| {
            for _ in 0..10 {
                c.mutex_lock(m0);
                c.fetch_add_u64(0, 1);
                c.mutex_unlock(m0);
            }
        }));
        let b = ctx.spawn(Box::new(move |c| {
            for _ in 0..10 {
                c.mutex_lock(m1);
                c.fetch_add_u64(8, 1);
                c.mutex_unlock(m1);
            }
        }));
        ctx.join(a);
        ctx.join(b);
    }));
    assert_eq!(rt.final_u64(0), 10);
    assert_eq!(rt.final_u64(8), 10);
}

/// Consequence-RR must produce the same program results as Consequence-IC
/// for race-free programs (the schedules differ, the outcome must not).
#[test]
fn rr_and_ic_agree_on_race_free_output() {
    let program = |rt: &mut ConsequenceRuntime| {
        let m = rt.create_mutex();
        rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..3)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        for _ in 0..10 {
                            c.tick(100 * (i + 1));
                            c.mutex_lock(m);
                            let v = c.ld_u64(0);
                            c.st_u64(0, v + i + 1);
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
    };
    let mut ic = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let mut rr = ConsequenceRuntime::new(cfg(), Options::consequence_rr());
    assert_eq!(program(&mut ic), 10 * (1 + 2 + 3));
    assert_eq!(program(&mut rr), 10 * (1 + 2 + 3));
}

/// Coarsening changes the deterministic schedule (that is the point), but
/// it must preserve program correctness: a commutative reduction under a
/// mutex gives the same total with coarsening on or off, and each
/// configuration is individually deterministic across runs.
#[test]
fn coarsening_is_semantically_transparent() {
    let result = |coarsen: bool| {
        let opts = if coarsen {
            Options::consequence_ic()
        } else {
            Options::consequence_ic().without("coarsening")
        };
        let mut rt = ConsequenceRuntime::new(cfg(), opts);
        let m = rt.create_mutex();
        rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..3)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        for j in 0..30u64 {
                            c.mutex_lock(m);
                            let v = c.ld_u64(0);
                            c.tick(5);
                            c.st_u64(0, v + i * 100 + j);
                            c.mutex_unlock(m);
                            c.tick(50);
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
    let expected: u64 = (0..3u64)
        .flat_map(|i| (0..30u64).map(move |j| i * 100 + j))
        .sum();
    assert_eq!(result(true), expected);
    assert_eq!(result(false), expected);
}

/// With short critical sections and gaps, adaptive coarsening should
/// actually fire.
#[test]
fn coarsening_fires_on_fine_grained_locking() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let m = rt.create_mutex();
    let report = rt.run(Box::new(move |ctx| {
        for _ in 0..200 {
            ctx.mutex_lock(m);
            ctx.tick(10);
            ctx.mutex_unlock(m);
            ctx.tick(20);
        }
    }));
    // Single-threaded fine-grained locking: nearly every op coalesces.
    assert!(
        report.counters.coarsened_chunks > 100,
        "coarsening barely fired: {}",
        report.counters.coarsened_chunks
    );
}

/// A coarsened tenure adds a bounded number of entries to its thread's
/// clock history, however many operations it merges. Main waits in `join`,
/// departed at its spawn clock, so the pruning watermark stays there and
/// the two workers' histories are never pruned: each grant may add its
/// arrival, one resume and its release, and nothing may grow with the
/// operations inside it. (When every coarsened operation resumed, two
/// workers of 1M pairs read 2,002,444 entries for 4,886 grants.)
#[test]
fn the_clock_history_grows_with_grants_not_with_coarsened_operations() {
    let peak_per_grant = |pairs: u64| {
        let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
        let ms = [rt.create_mutex(), rt.create_mutex()];
        let report = rt.run(Box::new(move |ctx| {
            let workers = ms.map(|m| {
                ctx.spawn(Box::new(move |c| {
                    for _ in 0..pairs {
                        c.mutex_lock(m);
                        c.tick(10);
                        c.mutex_unlock(m);
                        c.tick(20);
                    }
                }))
            });
            workers.into_iter().for_each(|w| ctx.join(w));
        }));
        let grants = report.counters.token_acquisitions;
        assert!(
            report.counters.coarsened_chunks > 3 * pairs,
            "the loops coarsened: {:?}",
            report.counters
        );
        // Three entries a grant, and the 64 a history keeps unpruned.
        assert!(
            report.peak_clock_history as u64 <= 3 * grants + 64,
            "{pairs} pairs a worker: {} entries for {grants} grants",
            report.peak_clock_history
        );
        report.peak_clock_history as f64 / grants as f64
    };
    let (short, long) = (peak_per_grant(2_000), peak_per_grant(100_000));
    assert!(long <= short + 1.0, "{short:.2} → {long:.2} a grant");
}

/// Lock sections a mutex operation takes, counted by the `dmt_api::sync`
/// shim (debug builds only; a release run checks nothing). Every shim
/// mutex counts: the runtime lock and the segment's. A coarsened lock and a
/// coarsened unlock once took 3 each; ending inside the caller's section
/// took one from each. The clock table's history then
/// had a mutex of its own, taken by every transition; with the history
/// under the runtime lock a coarsened pair was (1, 1), down from (2, 2).
/// Now the mutexes travel with the token and a tenure resumes in the clock
/// table once, so a coarsened pair takes none, and a lock or unlock that
/// reads its mutex no longer locks to do it: every other count below fell
/// with it (its values before are beside it, newest first).
#[test]
fn a_coarsened_mutex_operation_takes_no_lock_section() {
    if !cfg!(debug_assertions) {
        return;
    }
    use dmt_api::sync::{acquired, slept};
    use std::collections::BTreeMap;
    type Sections = BTreeMap<(u64, u64), usize>;
    // (lock, unlock) sections of 1,000 pairs on one mutex, tallied.
    let pairs = |opts: Options| -> Sections {
        let mut rt = ConsequenceRuntime::new(cfg(), opts);
        let m = rt.create_mutex();
        let out = Arc::new(std::sync::Mutex::new(Sections::new()));
        let tally = Arc::clone(&out);
        rt.run(Box::new(move |ctx| {
            let mut tally = tally.lock().unwrap();
            for _ in 0..1_000 {
                let a = acquired();
                ctx.mutex_lock(m);
                let b = acquired();
                ctx.tick(10);
                ctx.mutex_unlock(m);
                *tally.entry((b - a, acquired() - b)).or_default() += 1;
                ctx.tick(20);
            }
        }));
        let tally = out.lock().unwrap().clone();
        tally
    };
    // Two grants: the first pair's lock and the unlock after the one lock
    // whose chunk outgrew the budget are fresh; the rest are coarsened.
    // Before: {(1, 1): 998, (5, 6): 1, (6, 1): 1}, and before that
    // {(2, 2): 998, (6, 8): 1, (8, 2): 1}.
    let coarsened = Sections::from([((0, 0), 998), ((4, 5), 1), ((5, 0), 1)]);
    assert_eq!(pairs(Options::consequence_ic()), coarsened);
    // Before: {(9, 6): 998, (9, 7): 2}, and before that
    // {(11, 8): 998, (11, 9): 2}.
    let fresh = Sections::from([((8, 5), 998), ((8, 6), 2)]);
    let no_coarsening = Options::consequence_ic().without("coarsening");
    assert_eq!(pairs(no_coarsening), fresh);

    // Main holds `m` and the token (coarsened on `m2`) when it unlocks
    // `m` to its queued waiter: 5 sections (5, and 7 before). The child's
    // contended lock takes 13 sections and one more for each sleep: 14
    // with the one park it cannot avoid (16, and 22 before). How often it
    // yields or finds a stale permit is the host's timing, so its sleeps
    // are counted, not bounded.
    for _ in 0..10 {
        let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
        let (m, m2) = (rt.create_mutex(), rt.create_mutex());
        let out = Arc::new(std::sync::Mutex::new((0, (0, 0))));
        let (waking, waiting) = (Arc::clone(&out), Arc::clone(&out));
        rt.run(Box::new(move |ctx| {
            ctx.mutex_lock(m);
            let child = ctx.spawn(Box::new(move |c| {
                let (a, s) = (acquired(), slept());
                c.mutex_lock(m);
                waiting.lock().unwrap().1 = (acquired() - a, slept() - s);
                c.mutex_unlock(m);
            }));
            ctx.tick(100_000);
            ctx.mutex_lock(m2);
            let a = acquired();
            ctx.mutex_unlock(m);
            waking.lock().unwrap().0 = acquired() - a;
            ctx.mutex_unlock(m2);
            ctx.join(child);
        }));
        let (waking, (sections, sleeps)) = *out.lock().unwrap();
        assert_eq!(waking, 5, "an unlock that wakes its waiter");
        assert_eq!(sections - sleeps, 13, "a contended lock, {sleeps} sleeps");
    }
}

#[test]
fn report_breakdown_accounts_all_threads() {
    let (report, _) = run_with(Options::consequence_ic(), || {
        Box::new(|ctx: &mut dyn ThreadCtx| {
            let t = ctx.spawn(Box::new(|c| c.tick(1_000)));
            ctx.tick(500);
            ctx.join(t);
        })
    });
    assert_eq!(report.per_thread.len(), 2);
    assert!(report.breakdown.chunk >= 1_500);
    assert!(report.virtual_cycles >= 1_000);
    assert!(report.peak_pages > 0);
}

#[test]
fn unlock_without_lock_is_contained() {
    // API misuse panics inside the workload; containment turns it into a
    // recorded panic on the report instead of crossing `run()`.
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let m = rt.create_mutex();
    let report = rt.run(Box::new(move |ctx| {
        ctx.mutex_unlock(m);
    }));
    assert_eq!(report.panics.len(), 1);
    assert!(
        report.panics[0].1.contains("unlocking"),
        "panic message should name the misuse: {:?}",
        report.panics[0].1
    );
}

/// The sleep counters see a contended run: threads that queue for the
/// token or a held mutex sleep (yield or park) and are woken, and every
/// iteration of the token wait loop follows a return from a sleep. A wait
/// yields before it parks, so a contended run may never really park.
#[test]
fn contended_run_counts_its_parks() {
    let p = dmt_workloads::Params::new(4, 1, 42);
    let w = dmt_workloads::workload_by_name("dmt_server").expect("registered");
    let mut rt = ConsequenceRuntime::new(
        CommonConfig {
            heap_pages: w.heap_pages(&p),
            ..cfg()
        },
        Options::consequence_ic(),
    );
    let prepared = w.prepare(&mut rt, &p);
    let c = rt.run(prepared.job).counters;
    assert!((prepared.validate)(&rt).matches_reference);
    assert!(c.parks + c.yields > 0 && c.unparks > 0, "{c:?}");
    assert!(c.token_wake_loops <= c.parks + c.yields, "{c:?}");
}
