//! Layer probes: micro-programs that time calls into one crate's public
//! functions, so a per-layer number exists that no workload's schedule can
//! blur. Every probe repeats [`REPS`] times after a warm-up and reports
//! the median; inputs are fixed, not seeded, because a probe measures the
//! layer and not an input.
//!
//! The probes call only this surface (README.md lists it for whoever
//! refactors a layer): `Runtime`/`ThreadCtx` through
//! `make_runtime(ConsequenceIc)`, `conversion::{Segment, Workspace,
//! merge::merge_into}`, `det_clock::{SchedTable, Slots}`,
//! `dmt_trace::DiskSink` (as a `TraceSink`), `dmt_shard::{PhaseGate,
//! ShardCfg, CaptureMode, run_sharded_server}`.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use consequence::Options;
use conversion::{merge, Segment, Workspace, PAGE_SIZE};
use det_clock::{SchedTable, Slots};
use dmt_api::{
    BarrierId, CommonConfig, DomainId, Event, Job, MutexId, RunReport, Runtime, ThreadCtx, Tid,
    TraceSink,
};
use dmt_baselines::{make_runtime, RuntimeKind};
use dmt_shard::{run_sharded_server, CaptureMode, PhaseGate, ShardCfg};
use dmt_trace::DiskSink;
use dmt_workloads::Params;

use crate::measure::{metric, Metric};
use crate::stats::median;
use crate::workloads::THREADS;

/// Measured repetitions of every probe.
const REPS: usize = 5;

/// One probe result: metric name, value, unit.
type Probed = (&'static str, f64, &'static str);

/// Median of [`REPS`] runs of `one` after a discarded warm-up run.
fn med(mut one: impl FnMut() -> f64) -> f64 {
    one();
    median(&(0..REPS).map(|_| one()).collect::<Vec<_>>())
}

/// Nanoseconds per operation of `ops` operations done by `f`.
fn ns_per(ops: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops as f64
}

// ------------------------------------------------------------------ core

/// Runs a micro-program under `consequence-ic` with default options.
/// `build` creates the sync objects and returns the main job.
fn run_program(build: impl FnOnce(&mut dyn Runtime) -> Job) -> RunReport {
    let cfg = CommonConfig {
        heap_pages: 1,
        ..CommonConfig::default()
    };
    let mut rt = make_runtime(RuntimeKind::ConsequenceIc, cfg);
    let job = build(rt.as_mut());
    let report = rt.run(job);
    assert!(
        report.fault.is_none() && report.panics.is_empty(),
        "probe program failed: {:?} {:?}",
        report.fault,
        report.panics
    );
    report
}

/// Main job that runs `body(ctx, worker index)` on [`THREADS`] spawned
/// workers and only blocks in `join` itself, like the workloads.
fn fork_join(body: impl Fn(&mut dyn ThreadCtx, usize) + Send + Sync + 'static) -> Job {
    let body = Arc::new(body);
    Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..THREADS)
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

fn wall_ns(r: &RunReport) -> f64 {
    r.wall.as_nanos() as f64
}

fn core_probes(out: &mut Vec<Probed>) {
    const LOCKS: usize = 20_000;
    let uncontended = med(|| {
        let r = run_program(|rt| {
            let m = rt.create_mutex();
            Box::new(move |c| {
                for _ in 0..LOCKS {
                    c.mutex_lock(m);
                    c.mutex_unlock(m);
                }
            })
        });
        wall_ns(&r) / LOCKS as f64
    });
    out.push(("core.lock_uncontended_ns", uncontended, "ns"));

    // Two threads alternating on one mutex. The work between two
    // acquisitions is longer than the coarsening budget can grow under
    // contention, so every acquisition is a real token hand-off; the
    // divisor is the grants the runtime counted, not the locks asked for.
    const HANDOFFS: usize = 300;
    let handoff = med(|| {
        let r = run_program(|rt| {
            let m: MutexId = rt.create_mutex();
            fork_join(move |c, _| {
                for _ in 0..HANDOFFS {
                    c.mutex_lock(m);
                    c.tick(100);
                    c.mutex_unlock(m);
                    c.tick(40_000);
                }
            })
        });
        wall_ns(&r) / r.counters.token_acquisitions.max(1) as f64
    });
    out.push(("core.lock_handoff_ns", handoff, "ns"));

    const BARRIERS: usize = 300;
    let barrier = med(|| {
        let r = run_program(|rt| {
            let b: BarrierId = rt.create_barrier(THREADS);
            fork_join(move |c, _| {
                for _ in 0..BARRIERS {
                    c.tick(1_000);
                    c.barrier_wait(b);
                }
            })
        });
        wall_ns(&r) / BARRIERS as f64
    });
    out.push(("core.barrier_ns", barrier, "ns"));

    // Ping-pong on two condition variables. The turn lives in one heap
    // cell (a lost signal would deadlock without a predicate), so each
    // half trip also commits one page: that is what a condition wait
    // costs a real program.
    const TRIPS: usize = 200;
    let cond = med(|| {
        let r = run_program(|rt| {
            let m = rt.create_mutex();
            let cv = [rt.create_cond(), rt.create_cond()];
            fork_join(move |c, w| {
                for _ in 0..TRIPS {
                    c.mutex_lock(m);
                    while c.ld_u64(0) as usize % 2 != w {
                        c.cond_wait(cv[w], m);
                    }
                    let turn = c.ld_u64(0);
                    c.st_u64(0, turn + 1);
                    c.cond_signal(cv[1 - w]);
                    c.mutex_unlock(m);
                }
            })
        });
        wall_ns(&r) / TRIPS as f64
    });
    out.push(("core.cond_roundtrip_ns", cond, "ns"));

    // Thread ids are never reused and the default configuration allows 64.
    const SPAWNS: usize = 60;
    let spawn = med(|| {
        let r = run_program(|_| {
            Box::new(|c| {
                for _ in 0..SPAWNS {
                    let t = c.spawn(Box::new(|c| c.tick(1)));
                    c.join(t);
                }
            })
        });
        wall_ns(&r) / SPAWNS as f64
    });
    out.push(("core.spawn_join_ns", spawn, "ns"));
}

// ----------------------------------------------------------------- clock

/// A table as the runtime builds it for `consequence-ic`, with the two
/// worker threads registered and running.
fn sched_table() -> SchedTable {
    let opts = Options::consequence_ic();
    let mut t = SchedTable::new(opts.sched, opts.order, Slots::new(THREADS));
    for i in 0..THREADS {
        t.register(Tid(i as u32), 0, 0);
    }
    t
}

fn clock_probes(out: &mut Vec<Probed>) {
    const OPS: usize = 50_000;
    // One synchronization operation as the table sees it: arrive with an
    // exact clock, then resume running.
    let arrive = med(|| {
        let mut t = sched_table();
        ns_per(OPS, || {
            for i in 1..=OPS as u64 {
                t.arrive_sync(Tid(0), 10 * i, i);
                t.resume(Tid(0), 10 * i, i);
            }
            black_box(&t);
        })
    });
    out.push(("clock.arrive_ns", arrive, "ns"));

    let publish = med(|| {
        let mut t = sched_table();
        ns_per(OPS, || {
            for i in 1..=OPS as u64 {
                black_box(t.publish(Tid(0), 10 * i, i));
            }
        })
    });
    out.push(("clock.publish_ns", publish, "ns"));

    // Who gets the token next: thread 1 waits at a clock thread 0 has
    // already passed, so every query finds an eligible head waiter.
    let successor = med(|| {
        let mut t = sched_table();
        t.arrive_sync(Tid(1), 50, 1);
        t.publish(Tid(0), 60, 2);
        ns_per(OPS, || {
            for _ in 0..OPS {
                assert_eq!(black_box(t.successor()), Some(Tid(1)));
            }
        })
    });
    out.push(("clock.successor_ns", successor, "ns"));
}

// ------------------------------------------------------------------ vmem

/// Pages a commit/update/fault probe touches per repetition.
const PAGES: usize = 256;

/// A pipelined segment, as the runtime builds it, with two workspaces.
fn segment() -> (Segment, Workspace, Workspace) {
    let opts = Options::consequence_ic();
    let mut seg = Segment::new(PAGES, THREADS);
    if opts.pipeline_commit {
        seg.enable_pipeline(opts.pipeline_workers);
    }
    let (a, _) = seg.new_workspace(Tid(0));
    let (b, _) = seg.new_workspace(Tid(1));
    (seg, a, b)
}

/// Writes one word at offset `off` of every page.
fn touch_all(ws: &mut Workspace, off: usize, v: u64) {
    for p in 0..PAGES {
        ws.st_u64(p * PAGE_SIZE + off, v);
    }
}

/// Publishes `ws` and brings it to the latest version, as the runtime
/// does at every chunk boundary.
fn commit_update(seg: &Segment, ws: &mut Workspace) {
    seg.commit(ws, None);
    seg.update(ws);
}

fn vmem_probes(out: &mut Vec<Probed>) {
    const ACCESSES: usize = 200_000;
    const CELLS: usize = PAGE_SIZE / 8;
    let read = med(|| {
        let (_seg, a, _b) = segment();
        ns_per(ACCESSES, || {
            let mut sum = 0u64;
            for i in 0..ACCESSES {
                sum = sum.wrapping_add(a.ld_u64(8 * (i % CELLS)));
            }
            black_box(sum);
        })
    });
    out.push(("vmem.read_ns", read, "ns"));

    let write = med(|| {
        let (_seg, mut a, _b) = segment();
        a.st_u64(0, 1); // fault the page in: the probe is the warm path
        ns_per(ACCESSES, || {
            for i in 0..ACCESSES {
                a.st_u64(8 * (i % CELLS), i as u64);
            }
            black_box(&a);
        })
    });
    out.push(("vmem.write_ns", write, "ns"));

    // First write to a clean page: a 4 KiB twin copy. A fresh segment has
    // committed nothing, so no pre-copied twin can serve the fault.
    let fault = med(|| {
        let (_seg, mut a, _b) = segment();
        ns_per(PAGES, || touch_all(&mut a, 0, 1))
    });
    out.push(("vmem.fault_ns", fault, "ns"));

    let commit_clean = med(|| {
        let (seg, mut a, _b) = segment();
        touch_all(&mut a, 0, 1);
        let ns = ns_per(PAGES, || {
            black_box(seg.commit(&mut a, None));
        });
        seg.flush_pipeline();
        ns
    });
    out.push(("vmem.commit_clean_ns_per_page", commit_clean, "ns/page"));

    // Both workspaces wrote different words of the same pages from the
    // same base; the second to commit conflicts on every page.
    let commit_merge = med(|| {
        let (seg, mut a, mut b) = segment();
        touch_all(&mut a, 0, 1);
        touch_all(&mut b, 64, 2);
        commit_update(&seg, &mut a);
        ns_per(PAGES, || {
            let r = seg.commit(&mut b, None);
            seg.flush_pipeline();
            assert_eq!(r.merged as usize, PAGES);
        })
    });
    out.push(("vmem.commit_merge_ns_per_page", commit_merge, "ns/page"));

    let update = med(|| {
        let (seg, mut a, mut b) = segment();
        touch_all(&mut a, 0, 1);
        commit_update(&seg, &mut a);
        seg.flush_pipeline();
        ns_per(PAGES, || {
            assert_eq!(seg.update(&mut b).pages_propagated as usize, PAGES);
        })
    });
    out.push(("vmem.update_ns_per_page", update, "ns/page"));

    // The merge kernel alone: 10 % of the committer's bytes dirty, a few
    // remote bytes changed underneath.
    const MERGES: usize = 4_000;
    let merge = med(|| {
        let mut twin = Box::new([0u8; PAGE_SIZE]);
        for (i, b) in twin.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let mut work = twin.clone();
        for i in (0..PAGE_SIZE).step_by(10) {
            work[i] = work[i].wrapping_add(1);
        }
        let mut latest = twin.clone();
        for i in (5..PAGE_SIZE).step_by(512) {
            latest[i] = latest[i].wrapping_add(3);
        }
        let mut merged = Box::new([0u8; PAGE_SIZE]);
        ns_per(MERGES, || {
            for _ in 0..MERGES {
                black_box(merge::merge_into(
                    black_box(&twin),
                    black_box(&work),
                    black_box(&latest),
                    &mut merged,
                ));
            }
        })
    });
    out.push(("vmem.merge_ns_per_page", merge, "ns/page"));

    // One writer commits a chain of one-page versions while the other
    // workspace lags; once it catches up the whole chain is garbage.
    const VERSIONS: usize = 1_000;
    let gc = med(|| {
        let (seg, mut a, mut b) = segment();
        for i in 0..VERSIONS {
            a.st_u64((i % PAGES) * PAGE_SIZE, i as u64 + 1);
            commit_update(&seg, &mut a);
        }
        seg.update(&mut b);
        seg.flush_pipeline();
        let mut dropped = 0;
        let ns = ns_per(1, || {
            dropped = seg.gc(usize::MAX).dropped;
            seg.flush_pipeline();
        });
        ns / dropped.max(1) as f64
    });
    out.push(("vmem.gc_ns_per_version", gc, "ns/version"));
}

// ----------------------------------------------------------------- trace

fn trace_probes(tmp: &Path, out: &mut Vec<Probed>) {
    const EVENTS: usize = 50_000;
    let path = tmp.join("probe.dmtrace");
    let push = med(|| {
        let sink = DiskSink::create(&path).expect("create probe trace file");
        let ns = ns_per(EVENTS, || {
            for i in 0..EVENTS as u64 {
                let tid = Tid((i % 2) as u32);
                let ev = if i % 2 == 0 {
                    Event::TokenAcquire {
                        tid,
                        clock: 100 * i,
                    }
                } else {
                    Event::MutexLock {
                        tid,
                        mutex: MutexId((i % 16) as u32),
                        ticket: i,
                    }
                };
                sink.emit(&ev, true, DomainId::ROOT);
            }
        });
        assert!(sink.fault().is_none(), "probe trace write failed");
        ns
    });
    let _ = std::fs::remove_file(&path);
    out.push(("trace.push_ns_per_event", push, "ns/event"));
}

// ----------------------------------------------------------------- shard

fn shard_probes(out: &mut Vec<Probed>) {
    const WAITS: usize = 2_000;
    let gate_wait = med(|| {
        let gate = PhaseGate::new(THREADS);
        ns_per(WAITS, || {
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for _ in 0..WAITS {
                            gate.wait();
                        }
                    });
                }
            })
        })
    });
    out.push(("shard.gate_wait_ns", gate_wait, "ns"));

    for (name, shards) in [("shard.sync_ops_per_s_1", 1), ("shard.sync_ops_per_s_2", 2)] {
        let rate = med(|| {
            let mut cfg = ShardCfg::new(shards, THREADS, Params::new(THREADS, 1, 42));
            cfg.capture = CaptureMode::Off;
            let r = run_sharded_server(&cfg);
            assert!(r.complete && r.panics == 0, "sharded probe run failed");
            r.sync_ops as f64 / r.wall.as_secs_f64()
        });
        out.push((name, rate, "1/s"));
    }
}

/// Runs every probe. `tmp` holds the trace probe's file.
pub fn run_all(tmp: &Path) -> Vec<Metric> {
    let mut out = Vec::new();
    core_probes(&mut out);
    clock_probes(&mut out);
    vmem_probes(&mut out);
    trace_probes(tmp, &mut out);
    shard_probes(&mut out);
    out.into_iter()
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect()
}
