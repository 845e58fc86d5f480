//! The shared-memory pipeline queue under live runtimes, and kernel
//! scale-parameter checks.

use dmt_api::{CommonConfig, CostModel, MemExt, RuntimeMemExt, Tid};
use dmt_baselines::{make_runtime, RuntimeKind};
use dmt_workloads::layout::Layout;
use dmt_workloads::queue::{ShmQueue, PILL};
use dmt_workloads::{workload_by_name, Params};

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

/// MPMC: two producers, two consumers, tiny capacity (forcing both
/// not-full and not-empty waits). Every item is consumed exactly once.
#[test]
fn queue_is_mpmc_safe_under_all_runtimes() {
    for kind in RuntimeKind::ALL {
        let mut rt = make_runtime(kind, cfg(16));
        let mut l = Layout::new();
        let q = ShmQueue::create(rt.as_mut(), &mut l, 3);
        let out = l.cells_page_aligned(4);
        let done_lock = rt.create_mutex();
        q.init(rt.as_mut());
        rt.run(Box::new(move |ctx| {
            let producers: Vec<Tid> = (0..2u64)
                .map(|p| {
                    ctx.spawn(Box::new(move |c| {
                        for i in 0..20u64 {
                            c.tick(30);
                            q.push(c, p * 1_000 + i + 1);
                        }
                        // One pill once both producers are done.
                        c.mutex_lock(done_lock);
                        let d = c.fetch_add_u64(out + 16, 1);
                        c.mutex_unlock(done_lock);
                        if d == 2 {
                            q.push(c, PILL);
                        }
                    }))
                })
                .collect();
            let consumers: Vec<Tid> = (0..2usize)
                .map(|ci| {
                    ctx.spawn(Box::new(move |c| {
                        let mut sum = 0u64;
                        let mut n = 0u64;
                        loop {
                            let v = q.pop(c);
                            if v == PILL {
                                break;
                            }
                            sum = sum.wrapping_add(v);
                            n += 1;
                            c.tick(120);
                        }
                        c.st_u64(out + 32 + 16 * ci, sum);
                        c.st_u64(out + 40 + 16 * ci, n);
                    }))
                })
                .collect();
            for k in producers.into_iter().chain(consumers) {
                ctx.join(k);
            }
        }));
        let sum = rt.final_u64(out + 32) + rt.final_u64(out + 48);
        let n = rt.final_u64(out + 40) + rt.final_u64(out + 56);
        let expect: u64 =
            (0..20u64).map(|i| i + 1).sum::<u64>() + (0..20u64).map(|i| 1_000 + i + 1).sum::<u64>();
        assert_eq!(n, 40, "{}: items lost or duplicated", kind.label());
        assert_eq!(sum, expect, "{}: payload corrupted", kind.label());
    }
}

/// `scale` actually grows the problem: virtual runtime increases and the
/// result still validates.
#[test]
fn scale_parameter_grows_work_and_stays_correct() {
    for name in ["histogram", "canneal"] {
        let w = workload_by_name(name).unwrap();
        let mut cycles = Vec::new();
        for scale in [1u32, 2] {
            let p = Params::new(2, scale, 3);
            let mut rt = make_runtime(RuntimeKind::ConsequenceIc, cfg(w.heap_pages(&p)));
            let prep = w.prepare(rt.as_mut(), &p);
            let report = rt.run(prep.job);
            let v = (prep.validate)(rt.as_ref());
            assert!(v.matches_reference, "{name} scale {scale}");
            cycles.push(report.virtual_cycles);
        }
        assert!(
            cycles[1] > cycles[0] * 3 / 2,
            "{name}: scale=2 should be substantially more work ({cycles:?})"
        );
    }
}

/// Different seeds give different inputs (and outputs), same seed repeats.
#[test]
fn seeds_control_inputs() {
    let w = workload_by_name("word_count").unwrap();
    let run = |seed: u64| {
        let p = Params::new(2, 1, seed);
        let mut rt = make_runtime(RuntimeKind::ConsequenceIc, cfg(w.heap_pages(&p)));
        let prep = w.prepare(rt.as_mut(), &p);
        rt.run(prep.job);
        (prep.validate)(rt.as_ref()).output_hash
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}
