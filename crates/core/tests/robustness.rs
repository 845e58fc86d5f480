//! Robustness tests: panic containment, deterministic poisoning and the
//! watchdog.
//!
//! The containment contract under test: a panicking workload thread
//! departs the deterministic schedule like any other exit — clock
//! departure, token release, poison delivery and joiner wake-ups all
//! happen under the token, so a run that panics is exactly as
//! reproducible as one that does not.

use std::sync::Arc;

use consequence::{ConsequenceRuntime, Options};
use dmt_api::{
    CommonConfig, CondId, CostModel, DmtError, FixedPanic, HashSink, Job, PanicSite, PerturbHandle,
    PerturbPlan, PerturbSite, PlanPerturber, RunReport, Runtime, RuntimeMemExt, ThreadCtx, Tid,
    TraceHandle,
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

fn hashed_cfg() -> CommonConfig {
    CommonConfig {
        trace: TraceHandle::to(Arc::new(HashSink::new())),
        ..cfg()
    }
}

fn run_with(
    c: CommonConfig,
    opts: Options,
    main: impl Fn() -> Job,
) -> (RunReport, ConsequenceRuntime) {
    let mut rt = ConsequenceRuntime::new(c, opts);
    let r = rt.run(main());
    (r, rt)
}

#[test]
fn child_panic_is_contained_and_join_reports() {
    let (report, _) = run_with(cfg(), Options::consequence_ic(), || {
        Box::new(|ctx: &mut dyn ThreadCtx| {
            let t = ctx.spawn(Box::new(|c| {
                c.tick(100);
                panic!("boom");
            }));
            match ctx.try_join(t) {
                Err(DmtError::ThreadPanicked { tid, msg }) => {
                    assert_eq!(tid, t);
                    assert!(msg.contains("boom"), "msg: {msg}");
                }
                other => panic!("expected ThreadPanicked, got {other:?}"),
            }
            ctx.st_u64(0, 1); // survivor keeps running
        })
    });
    assert_eq!(report.panics.len(), 1);
    assert!(report.panics[0].1.contains("boom"));
    assert!(report.fault.is_none());
    assert!(!report.degraded);
}

/// The acceptance scenario from the issue: a thread panics while holding
/// the global token (it is mid-synchronization when it dies). The run
/// must terminate, the token must be reclaimed, and the survivor must
/// observe a poisoned mutex — not a hang.
#[test]
fn panic_while_holding_mutex_poisons_deterministically() {
    let (report, rt) = {
        let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
        let m = rt.create_mutex();
        let r = rt.run(Box::new(move |ctx| {
            let t = ctx.spawn(Box::new(move |c| {
                c.mutex_lock(m);
                c.tick(10);
                panic!("died holding the lock");
            }));
            ctx.tick(50_000); // let the child acquire first
            match ctx.try_mutex_lock(m) {
                Err(DmtError::MutexPoisoned { mutex, by }) => {
                    assert_eq!(mutex, m);
                    assert_eq!(by, t);
                }
                other => panic!("expected MutexPoisoned, got {other:?}"),
            }
            let _ = ctx.try_join(t);
            ctx.st_u64(0, 7);
        }));
        (r, rt)
    };
    assert_eq!(report.panics.len(), 1);
    assert_eq!(rt.final_u64(0), 7);
}

/// Three waiters queue on a mutex whose owner dies. Poison must be
/// delivered to every waiter, in deterministic (FIFO, token-grant) order,
/// and the whole run — panic included — must hash identically on rerun.
#[test]
fn poison_delivery_order_is_deterministic() {
    let run_once = |opts: Options| {
        let mut rt = ConsequenceRuntime::new(hashed_cfg(), opts);
        let m = rt.create_mutex();
        let r = rt.run(Box::new(move |ctx| {
            let owner = ctx.spawn(Box::new(move |c| {
                c.mutex_lock(m);
                c.tick(200_000);
                panic!("owner dies");
            }));
            let waiters: Vec<Tid> = (0..3)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        c.tick(10_000 * (i + 1));
                        match c.try_mutex_lock(m) {
                            Err(DmtError::MutexPoisoned { .. }) => {
                                // Record delivery order in shared memory.
                                let slot = c.atomic_fetch_add_u64(0, 1) as usize;
                                c.st_u64(8 + slot * 8, u64::from(c.tid().0));
                            }
                            other => panic!("expected poison, got {other:?}"),
                        }
                    }))
                })
                .collect();
            let _ = ctx.try_join(owner);
            for w in waiters {
                ctx.join(w);
            }
        }));
        let order: Vec<u64> = (0..3).map(|i| rt.final_u64(8 + i * 8)).collect();
        (r.schedule_hash, order, r.panics.len())
    };

    let (h1, o1, p1) = run_once(Options::consequence_ic());
    let (h2, o2, p2) = run_once(Options::consequence_ic());
    assert_eq!(p1, 1);
    assert_eq!(p1, p2);
    assert_eq!(o1, o2, "poison delivery order must be reproducible");
    // FIFO queue order: waiters arrived in clock order t2, t3, t4.
    assert_eq!(o1, vec![2, 3, 4]);
    assert_eq!(h1, h2, "schedule hash must survive a contained panic");
}

#[test]
fn cond_waiter_is_woken_with_owner_died() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let m = rt.create_mutex();
    let c_id = rt.create_cond();
    let report = rt.run(Box::new(move |ctx| {
        let waiter = ctx.spawn(Box::new(move |c| {
            c.mutex_lock(m);
            match c.try_cond_wait(c_id, m) {
                Err(DmtError::CondOwnerDied { cond, mutex, .. }) => {
                    assert_eq!(cond, c_id);
                    assert_eq!(mutex, m);
                    // The mutex is poisoned and NOT re-acquired.
                    c.st_u64(0, 11);
                }
                other => panic!("expected CondOwnerDied, got {other:?}"),
            }
        }));
        let killer = ctx.spawn(Box::new(move |c| {
            c.tick(100_000); // after the waiter is parked on the condvar
            c.mutex_lock(m);
            panic!("owner dies holding m");
        }));
        let _ = ctx.try_join(killer);
        ctx.join(waiter);
    }));
    assert_eq!(report.panics.len(), 1);
    assert_eq!(rt.final_u64(0), 11);
}

/// A three-party barrier where one thread dies leaves only two live
/// threads: the barrier can never fill, so the arrived waiter must
/// observe a broken barrier (delivered as a contained panic through the
/// infallible API), not wait forever.
#[test]
fn barrier_breaks_when_a_party_dies() {
    let mut rt = ConsequenceRuntime::new(cfg(), Options::consequence_ic());
    let b = rt.create_barrier(3);
    let report = rt.run(Box::new(move |ctx| {
        let waiter = ctx.spawn(Box::new(move |c| {
            c.barrier_wait(b); // blocks; the partner never comes
            c.st_u64(0, 99); // must NOT run
        }));
        let dier = ctx.spawn(Box::new(move |c| {
            c.tick(100_000);
            panic!("partner dies before arriving");
        }));
        let _ = ctx.try_join(dier);
        match ctx.try_join(waiter) {
            Err(DmtError::ThreadPanicked { msg, .. }) => {
                assert!(msg.contains("barrier"), "msg: {msg}");
            }
            other => panic!("expected waiter to die of BarrierBroken, got {other:?}"),
        }
    }));
    assert_eq!(report.panics.len(), 2);
    assert_eq!(rt.final_u64(0), 0);
}

#[test]
fn non_string_panic_payload_is_contained() {
    let (report, _) = run_with(cfg(), Options::consequence_ic(), || {
        Box::new(|ctx: &mut dyn ThreadCtx| {
            let t = ctx.spawn(Box::new(|_| {
                std::panic::resume_unwind(Box::new(42_i32));
            }));
            assert!(ctx.try_join(t).is_err());
        })
    });
    assert_eq!(report.panics.len(), 1);
    assert!(report.panics[0].1.contains("non-string"));
}

/// ABBA deadlock: with supervision enabled the run must *end*, carrying a
/// watchdog diagnosis, instead of hanging forever. A barrier rendezvous
/// forces both threads to hold their first lock before trying the second
/// (otherwise adaptive coarsening can serialize the two critical sections
/// and — deterministically — dodge the deadlock).
#[test]
fn watchdog_diagnoses_deadlock_instead_of_hanging() {
    let mut opts = Options::consequence_ic();
    opts.watchdog_stall_ms = Some(300);
    let mut rt = ConsequenceRuntime::new(cfg(), opts);
    let a = rt.create_mutex();
    let b = rt.create_mutex();
    let br = rt.create_barrier(2);
    let report = rt.run(Box::new(move |ctx| {
        let t1 = ctx.spawn(Box::new(move |c| {
            c.mutex_lock(a);
            c.barrier_wait(br);
            c.mutex_lock(b); // deadlock
            c.mutex_unlock(b);
            c.mutex_unlock(a);
        }));
        let t2 = ctx.spawn(Box::new(move |c| {
            c.tick(10_000);
            c.mutex_lock(b);
            c.barrier_wait(br);
            c.mutex_lock(a); // deadlock
            c.mutex_unlock(a);
            c.mutex_unlock(b);
        }));
        ctx.join(t1);
        ctx.join(t2);
    }));
    let fault = report.fault.expect("watchdog must report a fault");
    assert!(fault.contains("watchdog"), "fault: {fault}");
    assert!(fault.contains("deadlock"), "fault: {fault}");
    // The census names the cycle: both mutexes and their owners/waiters.
    assert!(fault.contains("mutex 0"), "fault: {fault}");
    assert!(fault.contains("mutex 1"), "fault: {fault}");
    // ...and the clock table's view of it: all three threads departed
    // (two on the mutexes, main in join), nobody left to take the token.
    assert!(fault.contains("departed)=(0, 0, 3)"), "fault: {fault}");
    assert!(
        fault.contains("t1: state=Departed published="),
        "fault: {fault}"
    );
}

/// The wake a crossing publication must not lose, from both sides. Round
/// after round `waiter` sits at its sync point behind two running threads
/// that cross its key in steps of seeded length — so either may be the last
/// to — while `holder`, ordered before it, keeps taking the token for
/// coarsened runs of short critical sections. Whoever comes last under the
/// runtime lock — the crossing publication or the holder's release — has
/// to wake the waiter: a lost wake is a stall the watchdog reports as a
/// fault. And none of it is an input: a rerun is the same schedule.
#[test]
fn publishers_crossing_a_head_waiter_under_a_held_token_lose_no_wake() {
    const ROUNDS: u64 = 20;
    const ROUND: u64 = 5_000;
    let run = |seed: u64| {
        let opts = Options {
            watchdog_stall_ms: Some(300),
            ..Options::consequence_ic()
        };
        let mut rt = ConsequenceRuntime::new(hashed_cfg(), opts);
        let (held, waited) = (rt.create_mutex(), rt.create_mutex());
        let mut lcg = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut step = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            1 + (lcg >> 33) % 4
        };
        let steps = [step(), step()];
        let report = rt.run(Box::new(move |ctx| {
            let waiter = ctx.spawn(Box::new(move |c| {
                for _ in 0..ROUNDS {
                    c.tick(ROUND);
                    c.mutex_lock(waited);
                    c.mutex_unlock(waited);
                }
            }));
            let holder = ctx.spawn(Box::new(move |c| {
                for _ in 0..ROUNDS * ROUND / 20 {
                    c.mutex_lock(held);
                    c.tick(20);
                    c.mutex_unlock(held);
                }
            }));
            let publishers = steps.map(|step| {
                ctx.spawn(Box::new(move |c| {
                    // Small steps: real time passes between two keys.
                    (0..ROUNDS * ROUND / step).for_each(|_| c.tick(step));
                }))
            });
            for t in [waiter, holder].into_iter().chain(publishers) {
                ctx.join(t);
            }
        }));
        let cell = format!("seed {seed} steps {steps:?}");
        assert!(report.fault.is_none(), "{cell}: {:?}", report.fault);
        assert!(!report.degraded, "{cell}");
        report.schedule_hash
    };
    for seed in 0..8 {
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
}

/// Seeded panic injection: the same (site, tid, nth) trigger produces the
/// same contained death at the same schedule point — identical schedule
/// hash, identical poison fallout — on every rerun.
#[test]
fn injected_panic_reproduces_schedule_hash() {
    let run_once = || {
        let die = FixedPanic {
            site: PanicSite::Lock,
            victim: Tid(2),
            nth: 3,
            inner: PerturbHandle::off(),
        };
        let c = CommonConfig {
            perturb: PerturbHandle::to(Arc::new(die)),
            ..hashed_cfg()
        };
        let mut rt = ConsequenceRuntime::new(c, Options::consequence_ic());
        let m = rt.create_mutex();
        let r = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..3)
                .map(|_| {
                    ctx.spawn(Box::new(move |c| {
                        for _ in 0..10 {
                            c.mutex_lock(m);
                            let v = c.ld_u64(0);
                            c.tick(10);
                            c.st_u64(0, v + 1);
                            c.mutex_unlock(m);
                            c.tick(200);
                        }
                    }))
                })
                .collect();
            for t in kids {
                let _ = ctx.try_join(t);
            }
        }));
        (r.schedule_hash, r.panics.clone(), rt.final_u64(0))
    };
    let (h1, p1, v1) = run_once();
    let (h2, p2, v2) = run_once();
    assert_eq!(p1.len(), 1, "exactly the injected death");
    assert_eq!(p1[0].0, Tid(2));
    assert!(p1[0].1.contains("injected panic at lock #3"), "{}", p1[0].1);
    assert_eq!(p1, p2);
    assert_eq!(h1, h2, "injected death must not perturb determinism");
    assert_eq!(v1, v2);
}

/// A reader dies inside its hold with a writer queued behind it. Read
/// holds are attributed per thread, so containment drops the dead
/// reader's hold and hands the lock to the writer — no poison (a reader
/// cannot have torn the data), no leaked count, no watchdog.
#[test]
fn dying_reader_releases_its_hold_to_the_queued_writer() {
    use dmt_api::trace::{Event, MemorySink};

    let run_once = || {
        let sink = Arc::new(MemorySink::new(1 << 12));
        let c = CommonConfig {
            trace: TraceHandle::to(sink.clone()),
            ..cfg()
        };
        let opts = Options {
            watchdog_stall_ms: Some(1_000),
            ..Options::consequence_ic()
        };
        let mut rt = ConsequenceRuntime::new(c, opts);
        let l = rt.create_rwlock();
        let r = rt.run(Box::new(move |ctx| {
            let reader = ctx.spawn(Box::new(move |c| {
                c.rw_read_lock(l);
                c.tick(20_000);
                panic!("reader died inside its hold");
            }));
            let writer = ctx.spawn(Box::new(move |c| {
                c.tick(1_000);
                c.rw_write_lock(l);
                c.st_u64(0, 9);
                c.rw_write_unlock(l);
            }));
            assert!(matches!(
                ctx.try_join(reader),
                Err(DmtError::ThreadPanicked { .. })
            ));
            ctx.join(writer);
        }));
        let (events, dropped) = sink.take();
        assert_eq!(dropped, 0);
        (r, rt.final_u64(0), events)
    };
    let (r1, v1, events) = run_once();
    let (r2, v2, _) = run_once();
    assert_eq!(r1.panics.len(), 1, "one contained panic: {:?}", r1.panics);
    assert!(r1.fault.is_none(), "watchdog fired: {:?}", r1.fault);
    assert_eq!((v1, v2), (9, 9), "the writer was never granted");
    assert_eq!(r1.schedule_hash, r2.schedule_hash);
    assert_eq!(r1.panics, r2.panics);
    // The writer really was queued: its grant is an effect of the
    // reader's containment, not of an ordinary unlock.
    let at = |pred: &dyn Fn(&Event) -> bool| events.iter().position(pred).expect("event");
    let died = at(&|e| matches!(e, Event::ThreadPanic { tid, .. } if *tid == Tid(1)));
    let granted =
        at(&|e| matches!(e, Event::RwAcquire { tid, writer: true, .. } if *tid == Tid(2)));
    assert!(died < granted, "writer granted before the reader died");
}

/// A thread that leaves quietly while another carries the synchronization
/// objects. The waiter queues on a mutex main took in an earlier tenure;
/// main takes the token again and stays in one coarsened tenure past the
/// watchdog's stall, so the waiter leaves through the shutdown while main
/// carries the objects. Its purge waits for main, which applies it before
/// its unlock pops the queue: the unlock wakes nobody, and the census
/// names main as the carrier.
#[test]
fn a_quiet_exit_while_the_holder_carries_the_objects_is_not_woken() {
    use dmt_api::trace::{Event, MemorySink};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Raised when the waiter's job unwinds, just before its quiet exit.
    struct Unwound(Arc<AtomicBool>);
    impl Drop for Unwound {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    let sink = Arc::new(MemorySink::new(1 << 12));
    let c = CommonConfig {
        trace: TraceHandle::to(sink.clone()),
        ..cfg()
    };
    let opts = Options {
        watchdog_stall_ms: Some(200),
        // Every operation may retain the token: main's tenure lasts until
        // it gives the token up.
        static_coarsen: Some(u64::MAX),
        // A worker that left quietly never returns to the pool, and the
        // teardown would wait out its grace period for it.
        thread_pool: false,
        ..Options::consequence_ic()
    };
    let mut rt = ConsequenceRuntime::new(c, opts);
    let (m, m2) = (rt.create_mutex(), rt.create_mutex());
    let unwound = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&unwound);
    let report = rt.run(Box::new(move |ctx| {
        ctx.mutex_lock(m);
        // Spawning ends the first tenure with `m` held.
        let flag = Arc::clone(&flag);
        ctx.spawn(Box::new(move |c| {
            let _unwound = Unwound(flag);
            c.mutex_lock(m);
            unreachable!("the waiter was granted a mutex its owner kept");
        }));
        ctx.tick(100_000);
        // The waiter, at a lower clock, queues on `m` first; then main
        // takes the token again and keeps it.
        ctx.mutex_lock(m2);
        while !unwound.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        // The waiter's quiet exit follows its unwind at once.
        std::thread::sleep(Duration::from_millis(100));
        ctx.mutex_unlock(m);
        ctx.mutex_unlock(m2);
    }));
    let fault = report.fault.expect("the watchdog ended the run");
    assert!(fault.contains("no logical progress"), "fault: {fault}");
    assert!(
        fault.contains("sync objects carried by t0"),
        "fault: {fault}"
    );
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    let (events, dropped) = sink.take();
    assert_eq!(dropped, 0);
    assert!(events.contains(&Event::MutexBlock {
        tid: Tid(1),
        mutex: m
    }));
    let unlocks: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::MutexUnlock { mutex, woke, .. } if *mutex == m => Some(*woke),
            _ => None,
        })
        .collect();
    assert_eq!(unlocks, [None], "the unlock woke the dead waiter");
}

/// Runs `body(ctx, worker index)` on `threads` spawned workers; the main
/// thread only blocks in `join`.
fn fork_join(
    threads: usize,
    body: impl Fn(&mut dyn ThreadCtx, usize) + Send + Sync + 'static,
) -> Job {
    let body = Arc::new(body);
    Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..threads)
            .map(|w| {
                let body = Arc::clone(&body);
                ctx.spawn(Box::new(move |c| body(c, w)))
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    })
}

/// The four `core.*` probe programs of the end-to-end benchmark
/// (`e2e/src/probes.rs`), sized for a debug build: each spends its time
/// in one kind of sleep and hand-off.
fn probe_program(name: &str, rt: &mut ConsequenceRuntime, threads: usize) -> Job {
    match name {
        // Every acquisition a real token hand-off to a parked waiter.
        "lock_churn" => {
            let m = rt.create_mutex();
            fork_join(threads, move |c, _| {
                for _ in 0..40 {
                    c.mutex_lock(m);
                    let v = c.ld_u64(0);
                    c.st_u64(0, v + 1);
                    c.mutex_unlock(m);
                    c.tick(40_000);
                }
            })
        }
        // The turn passes round a ring of condition variables: every wait
        // is a wake flag raised by a token holder (rule 2).
        "cond_ping_pong" => {
            let m = rt.create_mutex();
            let cv: Vec<CondId> = (0..threads).map(|_| rt.create_cond()).collect();
            fork_join(threads, move |c, w| {
                for _ in 0..20 {
                    c.mutex_lock(m);
                    while c.ld_u64(0) as usize % threads != w {
                        c.cond_wait(cv[w], m);
                    }
                    let turn = c.ld_u64(0);
                    c.st_u64(0, turn + 1);
                    c.cond_signal(cv[(w + 1) % threads]);
                    c.mutex_unlock(m);
                }
            })
        }
        // Barrier phases: sleeps that wait for neither token nor flag.
        "barrier_loop" => {
            let b = rt.create_barrier(threads);
            fork_join(threads, move |c, w| {
                for i in 0..30 {
                    c.tick(1_000 * (w as u64 + 1));
                    c.st_u64(8 * (w + 1), i);
                    c.barrier_wait(b);
                }
            })
        }
        // Joiners, exits and pooled workers re-registering under new ids.
        "spawn_join" => Box::new(move |c| {
            for _ in 0..24 / threads {
                let kids: Vec<Tid> = (0..threads)
                    .map(|_| c.spawn(Box::new(|c| c.tick(1))))
                    .collect();
                for k in kids {
                    c.join(k);
                }
            }
        }),
        other => panic!("no probe program {other}"),
    }
}

/// Wake timing is not an input. Each probe program runs twice clean and
/// twice with spurious wakes injected at every sleep site at the highest
/// intensity: no run faults, and the four schedules and commit logs of a
/// program are one schedule and one commit log.
#[test]
fn probe_programs_agree_with_and_without_spurious_wakes() {
    let spurious = || {
        let mut plan = PerturbPlan::only(0x5eed, &[PerturbSite::CondWake]);
        plan.entries[0].intensity = 3;
        PerturbHandle::to(Arc::new(PlanPerturber::new(plan)))
    };
    for name in ["lock_churn", "cond_ping_pong", "barrier_loop", "spawn_join"] {
        for threads in [2, 4] {
            let mut hashes = Vec::new();
            for perturb in [PerturbHandle::off, spurious, PerturbHandle::off, spurious] {
                let c = CommonConfig {
                    max_threads: 32,
                    perturb: perturb(),
                    ..hashed_cfg()
                };
                let opts = Options {
                    watchdog_stall_ms: Some(100),
                    ..Options::consequence_ic()
                };
                let mut rt = ConsequenceRuntime::new(c, opts);
                let job = probe_program(name, &mut rt, threads);
                let r = rt.run(job);
                let cell = format!("{name} x{threads} run {}", hashes.len());
                assert!(r.fault.is_none(), "{cell}: {:?}", r.fault);
                assert!(r.panics.is_empty(), "{cell}: {:?}", r.panics);
                assert!(!r.degraded, "{cell}");
                hashes.push((r.schedule_hash, r.commit_log_hash));
            }
            assert!(
                hashes.iter().all(|h| *h == hashes[0]),
                "{name} x{threads}: {hashes:x?}"
            );
        }
    }
}

/// Wakes pending when an error unwinds are still delivered. The late
/// arriver at a broken barrier holds the token and has just named its
/// successor when it raises `BarrierBroken`; the waiters a dying lock
/// owner drained raise `MutexPoisoned` with their own successors pending.
/// Nobody is left asleep: every survivor finishes, without the watchdog.
#[test]
fn wakes_pending_at_a_raise_are_delivered() {
    let opts = Options {
        watchdog_stall_ms: Some(2_000),
        ..Options::consequence_ic()
    };
    let mut rt = ConsequenceRuntime::new(cfg(), opts);
    // Five threads, four parties: broken by the second death.
    let b = rt.create_barrier(4);
    let m = rt.create_mutex();
    let report = rt.run(Box::new(move |ctx| {
        let owner = ctx.spawn(Box::new(move |c| {
            c.mutex_lock(m);
            c.tick(100_000);
            panic!("dies holding the lock, before the barrier");
        }));
        let raisers: Vec<Tid> = (0..3)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    c.tick(1_000 * (i + 1));
                    if i == 0 {
                        c.mutex_lock(m); // queued, then drained: MutexPoisoned
                    } else {
                        c.tick(200_000);
                        c.barrier_wait(b); // broken by then: BarrierBroken
                    }
                    c.st_u64(8, 99); // must NOT run
                }))
            })
            .collect();
        ctx.tick(150_000);
        // Waits for the token behind the raisers: one of the wakes that
        // must not be lost.
        ctx.st_u64(0, 7);
        let _ = ctx.try_join(owner);
        for t in raisers {
            assert!(matches!(
                ctx.try_join(t),
                Err(DmtError::ThreadPanicked { .. })
            ));
        }
    }));
    assert!(report.fault.is_none(), "watchdog fired: {:?}", report.fault);
    assert_eq!(report.panics.len(), 4, "{:?}", report.panics);
    assert_eq!((rt.final_u64(0), rt.final_u64(8)), (7, 0));
}
