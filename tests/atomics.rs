//! The §2.7 atomic-operation extension: deterministic runtimes restore
//! atomicity by performing the RMW under the global token with an
//! immediate commit. Lock-free counters and CAS loops must therefore be
//! exact under every runtime — and reproducible under the deterministic
//! ones.

use consequence_repro::dmt_api::{CommonConfig, CostModel, MemExt, Runtime, RuntimeMemExt, Tid};
use consequence_repro::dmt_baselines::{make_runtime, RuntimeKind};

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

fn atomic_counter_program(rt: &mut dyn Runtime, threads: u64, iters: u64) -> u64 {
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..threads)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    for _ in 0..iters {
                        c.atomic_fetch_add_u64(0, 1);
                        c.tick(37 * (i + 1));
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

/// A lock-free counter loses no increments under any runtime — this is the
/// scenario §2.7 says plain stores would corrupt under isolation.
#[test]
fn atomic_counter_is_exact_under_all_runtimes() {
    for kind in RuntimeKind::ALL {
        let mut rt = make_runtime(kind, cfg());
        let got = atomic_counter_program(rt.as_mut(), 4, 25);
        assert_eq!(got, 100, "lost atomic increments under {}", kind.label());
    }
}

/// Deterministic runtimes also reproduce the *order* of atomic operations:
/// a ticket sequence recorded via fetch-add is identical across runs.
#[test]
fn atomic_ticket_order_is_deterministic() {
    for kind in [
        RuntimeKind::DThreads,
        RuntimeKind::Dwc,
        RuntimeKind::ConsequenceRr,
        RuntimeKind::ConsequenceIc,
    ] {
        let run = || {
            let mut rt = make_runtime(kind, cfg());
            rt.run(Box::new(move |ctx| {
                let kids: Vec<Tid> = (0..3u64)
                    .map(|i| {
                        ctx.spawn(Box::new(move |c| {
                            for _ in 0..8 {
                                c.tick(61 * (i + 1));
                                let ticket = c.atomic_fetch_add_u64(0, 1);
                                // Record who drew each ticket.
                                c.atomic_cas_u64(64 + 8 * ticket as usize, 0, i + 1);
                            }
                        }))
                    })
                    .collect();
                for k in kids {
                    ctx.join(k);
                }
            }));
            rt.final_hash(64, 8 * 24)
        };
        assert_eq!(run(), run(), "{} ticket order varies", kind.label());
    }
}

/// CAS loops implement a lock-free stack push counter: success/failure
/// results must be coherent (every success claims a unique value).
#[test]
fn cas_loop_claims_unique_slots() {
    for kind in [RuntimeKind::Pthreads, RuntimeKind::ConsequenceIc] {
        let mut rt = make_runtime(kind, cfg());
        rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..4u64)
                .map(|i| {
                    ctx.spawn(Box::new(move |c| {
                        for _ in 0..10 {
                            // Claim the next slot index via CAS loop.
                            loop {
                                let cur = c.ld_u64(0);
                                if c.atomic_cas_u64(0, cur, cur + 1) == cur {
                                    // Record ownership in the claimed slot.
                                    c.atomic_cas_u64(128 + 8 * cur as usize, 0, i + 1);
                                    break;
                                }
                                c.tick(10);
                            }
                            c.tick(100);
                        }
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        assert_eq!(rt.final_u64(0), 40, "{}", kind.label());
        for slot in 0..40usize {
            let owner = rt.final_u64(128 + 8 * slot);
            assert!(
                (1..=4).contains(&owner),
                "{}: slot {slot} has owner {owner}",
                kind.label()
            );
        }
    }
}

/// Atomics interact correctly with coarsening: a thread mid-coarsened-run
/// performing an atomic must still see and publish current values.
#[test]
fn atomics_compose_with_locks_and_coarsening() {
    let mut rt = make_runtime(RuntimeKind::ConsequenceIc, cfg());
    let m = rt.create_mutex();
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..3u64)
            .map(|_| {
                ctx.spawn(Box::new(move |c| {
                    for _ in 0..10 {
                        c.mutex_lock(m);
                        c.fetch_add_u64(8, 1); // plain locked counter
                        c.mutex_unlock(m);
                        c.atomic_fetch_add_u64(0, 1); // atomic counter
                        c.tick(25);
                    }
                }))
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    }));
    assert_eq!(rt.final_u64(0), 30);
    assert_eq!(rt.final_u64(8), 30);
}
