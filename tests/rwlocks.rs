//! Deterministic read-write locks across the runtimes: shared readers,
//! exclusive writers, deterministic outcomes.

use consequence_repro::dmt_api::{CommonConfig, CostModel, Runtime, RuntimeMemExt, Tid};
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

/// Readers sum a table that writers mutate under the write lock; every
/// read must observe a consistent (fully-applied) state.
fn reader_writer_program(rt: &mut dyn Runtime) -> (u64, u64) {
    let l = rt.create_rwlock();
    // Invariant: cells 0 and 8 always sum to 100.
    rt.init_u64(0, 60);
    rt.init_u64(8, 40);
    rt.run(Box::new(move |ctx| {
        let writers: Vec<Tid> = (0..2u64)
            .map(|i| {
                ctx.spawn(Box::new(move |c| {
                    for j in 0..15 {
                        c.rw_write_lock(l);
                        let a = c.ld_u64(0);
                        let delta = (i * 5 + j) % 17 + 1;
                        let moved = delta.min(a);
                        c.st_u64(0, a - moved);
                        let b = c.ld_u64(8);
                        c.st_u64(8, b + moved);
                        c.rw_write_unlock(l);
                        c.tick(300);
                    }
                }))
            })
            .collect();
        let readers: Vec<Tid> = (0..3usize)
            .map(|r| {
                ctx.spawn(Box::new(move |c| {
                    let mut violations = 0u64;
                    for _ in 0..20 {
                        c.rw_read_lock(l);
                        let sum = c.ld_u64(0) + c.ld_u64(8);
                        c.rw_read_unlock(l);
                        if sum != 100 {
                            violations += 1;
                        }
                        c.tick(150);
                    }
                    c.st_u64(64 + 8 * r, violations);
                }))
            })
            .collect();
        for k in writers.into_iter().chain(readers) {
            ctx.join(k);
        }
    }));
    let violations: u64 = (0..3).map(|r| rt.final_u64(64 + 8 * r)).sum();
    (rt.final_u64(0) + rt.final_u64(8), violations)
}

#[test]
fn rwlock_preserves_invariants_under_all_runtimes() {
    for kind in RuntimeKind::ALL {
        let mut rt = make_runtime(kind, cfg());
        let (total, violations) = reader_writer_program(rt.as_mut());
        assert_eq!(
            total,
            100,
            "{}: money moved out of the system",
            kind.label()
        );
        assert_eq!(
            violations,
            0,
            "{}: readers saw torn writer state",
            kind.label()
        );
    }
}

#[test]
fn rwlock_outcomes_are_deterministic() {
    for kind in [
        RuntimeKind::ConsequenceIc,
        RuntimeKind::Dwc,
        RuntimeKind::DThreads,
    ] {
        let run = || {
            let mut rt = make_runtime(kind, cfg());
            reader_writer_program(rt.as_mut());
            rt.final_hash(0, 1024)
        };
        assert_eq!(run(), run(), "{}", kind.label());
    }
}

/// Readers genuinely share under Consequence: two readers inside the lock
/// overlap in virtual time (unlike DThreads' exclusive alias).
#[test]
fn readers_share_under_consequence() {
    let run = |kind: RuntimeKind| {
        let mut rt = make_runtime(kind, cfg());
        let l = rt.create_rwlock();
        let report = rt.run(Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..4u64)
                .map(|_| {
                    ctx.spawn(Box::new(move |c| {
                        c.rw_read_lock(l);
                        c.tick(1_000_000); // long shared read section
                        c.rw_read_unlock(l);
                    }))
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }));
        report.virtual_cycles
    };
    let shared = run(RuntimeKind::ConsequenceIc);
    let exclusive = run(RuntimeKind::DThreads);
    assert!(
        shared < 2_500_000,
        "four 1M-cycle read sections must overlap (got {shared})"
    );
    assert!(
        exclusive > 3_900_000,
        "DThreads' exclusive alias serializes them (got {exclusive})"
    );
}

#[test]
fn read_unlock_without_lock_is_contained() {
    // API misuse unwinds the offending thread, but the containment layer
    // turns that into a reported panic instead of crashing the process.
    let mut rt = make_runtime(RuntimeKind::ConsequenceIc, cfg());
    let l = rt.create_rwlock();
    let report = rt.run(Box::new(move |ctx| ctx.rw_read_unlock(l)));
    assert_eq!(
        report.panics.len(),
        1,
        "misuse must be contained: {report:?}"
    );
    assert!(
        report.panics[0].1.contains("read-unlocking"),
        "unexpected panic message: {:?}",
        report.panics[0]
    );
}
