//! Unit-level behaviour of the pthreads baseline: real concurrency,
//! correct synchronization semantics, plausible virtual-time accounting.

use dmt_api::{CommonConfig, CostModel, MemExt, Runtime, RuntimeMemExt, Tid};
use dmt_baselines::PthreadsRuntime;

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

#[test]
fn memory_round_trips_all_access_widths() {
    let mut rt = PthreadsRuntime::new(cfg());
    rt.init_u64(0, 0x1122_3344_5566_7788);
    rt.run(Box::new(|ctx| {
        assert_eq!(ctx.ld_u64(0), 0x1122_3344_5566_7788);
        // Unaligned byte-level access over word boundaries.
        ctx.write_bytes(6, &[0xaa, 0xbb, 0xcc, 0xdd]);
        let mut b = [0u8; 4];
        ctx.read_bytes(6, &mut b);
        assert_eq!(b, [0xaa, 0xbb, 0xcc, 0xdd]);
        // Unaligned u64.
        ctx.st_u64(13, 0xfeed_face_dead_beef);
        assert_eq!(ctx.ld_u64(13), 0xfeed_face_dead_beef);
        ctx.st_f64(64, 3.25);
        assert_eq!(ctx.ld_f64(64), 3.25);
    }));
}

#[test]
fn barrier_synchronizes_for_real() {
    let mut rt = PthreadsRuntime::new(cfg());
    let b = rt.create_barrier(4);
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..3usize)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    c.atomic_fetch_add_u64(0, 1);
                    c.barrier_wait(b);
                    // Everyone's pre-barrier increment must be visible.
                    let v = c.ld_u64(0);
                    c.st_u64(64 + 8 * i, v);
                }))
            })
            .collect();
        ctx.atomic_fetch_add_u64(0, 1);
        ctx.barrier_wait(b);
        for k in kids {
            ctx.join(k);
        }
    }));
    for i in 0..3usize {
        assert_eq!(rt.final_u64(64 + 8 * i), 4);
    }
}

#[test]
fn condvar_handoff_works() {
    let mut rt = PthreadsRuntime::new(cfg());
    let m = rt.create_mutex();
    let c = rt.create_cond();
    rt.run(Box::new(move |ctx| {
        let consumer = ctx.spawn(Box::new(move |t| {
            t.mutex_lock(m);
            while t.ld_u64(0) == 0 {
                t.cond_wait(c, m);
            }
            let v = t.ld_u64(0);
            t.mutex_unlock(m);
            t.st_u64(8, v + 1);
        }));
        ctx.mutex_lock(m);
        ctx.st_u64(0, 10);
        ctx.cond_signal(c);
        ctx.mutex_unlock(m);
        ctx.join(consumer);
    }));
    assert_eq!(rt.final_u64(8), 11);
}

#[test]
fn join_chains_virtual_time() {
    let mut rt = PthreadsRuntime::new(cfg());
    let report = rt.run(Box::new(|ctx| {
        let t = ctx.spawn(Box::new(|c| c.tick(1_000_000)));
        ctx.tick(10);
        ctx.join(t);
    }));
    // The run's critical path includes the child's million cycles.
    assert!(report.virtual_cycles >= 1_000_000);
}

#[test]
fn virtual_time_reflects_parallel_slack() {
    // Two independent children: critical path ≈ max, not sum.
    let mut rt = PthreadsRuntime::new(cfg());
    let report = rt.run(Box::new(|ctx| {
        let a = ctx.spawn(Box::new(|c| c.tick(1_000_000)));
        let b = ctx.spawn(Box::new(|c| c.tick(900_000)));
        ctx.join(a);
        ctx.join(b);
    }));
    assert!(report.virtual_cycles >= 1_000_000);
    assert!(
        report.virtual_cycles < 1_500_000,
        "independent work must overlap in virtual time, got {}",
        report.virtual_cycles
    );
}

#[test]
fn unjoined_threads_are_still_collected() {
    let mut rt = PthreadsRuntime::new(cfg());
    let report = rt.run(Box::new(|ctx| {
        // Fire-and-forget: run() must still wait for it.
        ctx.spawn(Box::new(|c| {
            c.tick(50_000);
            c.st_u64(0, 7);
        }));
    }));
    assert_eq!(rt.final_u64(0), 7);
    assert_eq!(report.threads, 2);
    assert_eq!(report.per_thread.len(), 2);
}

#[test]
#[should_panic(expected = "not locked")]
fn unlocking_free_mutex_panics() {
    let mut rt = PthreadsRuntime::new(cfg());
    let m = rt.create_mutex();
    rt.run(Box::new(move |ctx| ctx.mutex_unlock(m)));
}
