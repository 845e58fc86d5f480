//! The §5.3 LRC estimate folded from live runs: lock-chain programs show
//! point-to-point savings, barrier programs none, and attaching the fold
//! moves nothing. The fold over hand-written event sequences is tested in
//! `src/lrc.rs`.

use std::sync::Arc;

use consequence::{ConsequenceRuntime, Options};
use dmt_api::trace::{Event, TraceSink};
use dmt_api::{
    CommonConfig, DomainId, HashSink, Job, MemExt, RunReport, Runtime, ThreadCtx, Tid, TraceHandle,
};
use dmt_bench::LrcFold;

const MAX_THREADS: usize = 16;

/// A program: its sync objects are made on the runtime, then it runs.
type Program = fn(&mut ConsequenceRuntime) -> Job;

/// Runs `program` under Consequence-IC with `sink` as the trace.
fn run_with(program: Program, sink: Arc<dyn TraceSink>) -> RunReport {
    let cfg = CommonConfig {
        heap_pages: 32,
        max_threads: MAX_THREADS,
        gc_budget: usize::MAX,
        trace: TraceHandle::to(sink),
        ..CommonConfig::default()
    };
    let mut rt = ConsequenceRuntime::new(cfg, Options::consequence_ic());
    let job = program(&mut rt);
    rt.run(job)
}

/// The run's TSO page count and the fold's LRC estimate.
fn tso_and_lrc(program: Program) -> (u64, u64) {
    let fold = Arc::new(LrcFold::new(MAX_THREADS));
    let report = run_with(program, fold.clone());
    (report.counters.pages_propagated, fold.pages_propagated())
}

fn lock_partitioned(rt: &mut ConsequenceRuntime) -> Job {
    // Two disjoint producer/consumer pairs, each through its own lock:
    // under LRC, pair A's pages never flow to pair B.
    let locks = [rt.create_mutex(), rt.create_mutex()];
    Box::new(move |ctx| {
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
    })
}

fn barrier_rounds(rt: &mut ConsequenceRuntime) -> Job {
    // Everyone writes a private page then meets at a barrier, repeatedly:
    // under LRC the barrier broadcasts everything anyway.
    let b = rt.create_barrier(4);
    Box::new(move |ctx| {
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
    })
}

#[test]
fn lrc_bounded_by_tso_in_live_runs() {
    for program in [lock_partitioned as Program, barrier_rounds] {
        let (tso, lrc) = tso_and_lrc(program);
        assert!(tso > 0);
        assert!(lrc <= tso, "LRC {lrc} must not exceed TSO {tso}");
    }
}

/// The paper's Figure 16 contrast: point-to-point locks benefit from LRC,
/// barriers do not.
#[test]
fn lrc_saves_on_locks_not_on_barriers() {
    let reduction = |program| {
        let (tso, lrc) = tso_and_lrc(program);
        1.0 - lrc as f64 / tso as f64
    };
    let lock_red = reduction(lock_partitioned);
    let bar_red = reduction(barrier_rounds);
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

/// Forwards only schedule events: what the fold would see if the parallel
/// barrier's installer emitted no auxiliary `Commit`s.
struct ScheduleOnly(Arc<LrcFold>);

impl TraceSink for ScheduleOnly {
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
        if in_schedule {
            self.0.emit(ev, in_schedule, domain);
        }
    }
}

/// Four threads each write their own page, then meet at the parallel
/// barrier twice. The first generation's pages are committed only by its
/// installer; the second generation's open carries them to the three
/// other participants.
fn installed_only(rt: &mut ConsequenceRuntime) -> Job {
    let b = rt.create_barrier(4);
    Box::new(move |ctx| {
        let phase = move |c: &mut dyn ThreadCtx, page: usize| {
            c.st_u64(4096 * page, 1);
            c.barrier_wait(b);
            c.barrier_wait(b);
        };
        let kids: Vec<Tid> = (1..4)
            .map(|i| ctx.spawn(Box::new(move |c| phase(c, i))))
            .collect();
        phase(ctx, 0);
        for k in kids {
            ctx.join(k);
        }
    })
}

#[test]
fn the_installers_commits_carry_a_parallel_barriers_pages() {
    let (_, lrc) = tso_and_lrc(installed_only);
    assert_eq!(
        lrc,
        4 * 3,
        "each participant receives the other three pages"
    );
    let fold = Arc::new(LrcFold::new(MAX_THREADS));
    run_with(installed_only, Arc::new(ScheduleOnly(fold.clone())));
    assert_eq!(
        fold.pages_propagated(),
        0,
        "no schedule event commits a page"
    );
}

/// Attaching the fold must not perturb execution: the run equals one
/// under a hashing sink bit for bit.
#[test]
fn lrc_tracking_is_observation_only() {
    let run = |sink: Arc<dyn TraceSink>| {
        let report = run_with(lock_partitioned, sink);
        (report.commit_log_hash, report.virtual_cycles)
    };
    assert_eq!(
        run(Arc::new(LrcFold::new(MAX_THREADS))),
        run(Arc::new(HashSink::new()))
    );
}
