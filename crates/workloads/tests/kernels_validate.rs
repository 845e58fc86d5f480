//! Every kernel must produce its sequential-reference result under the
//! deterministic runtimes, and be bit-reproducible across runs.

use dmt_api::{CommonConfig, CostModel};
use dmt_baselines::{make_runtime, RuntimeKind};
use dmt_workloads::{all_workloads, workload_by_name, Params, Workload};

fn cfg(pages: usize) -> CommonConfig {
    CommonConfig {
        heap_pages: pages,
        max_threads: 64,
        cost: CostModel::default(),
        gc_budget: usize::MAX,
        trace: dmt_api::TraceHandle::off(),
        perturb: dmt_api::PerturbHandle::off(),
    }
}

fn run_once(w: &dyn Workload, kind: RuntimeKind, p: &Params) -> (u64, u64, bool) {
    let mut rt = make_runtime(kind, cfg(w.heap_pages(p)));
    let prepared = w.prepare(rt.as_mut(), p);
    let report = rt.run(prepared.job);
    let v = (prepared.validate)(rt.as_ref());
    (v.output_hash, report.commit_log_hash, v.matches_reference)
}

/// Each workload, under Consequence-IC with 3 threads, matches its
/// sequential reference.
#[test]
fn all_kernels_validate_under_consequence_ic() {
    let p = Params::new(3, 1, 7);
    for w in all_workloads() {
        let (_, _, ok) = run_once(w.as_ref(), RuntimeKind::ConsequenceIc, &p);
        assert!(ok, "{} failed validation under consequence-ic", w.name());
    }
}

/// Each workload also validates under plain pthreads (the kernels are
/// race-free, so even nondeterministic scheduling must reproduce the
/// reference).
#[test]
fn all_kernels_validate_under_pthreads() {
    let p = Params::new(3, 1, 7);
    for w in all_workloads() {
        let (_, _, ok) = run_once(w.as_ref(), RuntimeKind::Pthreads, &p);
        assert!(ok, "{} failed validation under pthreads", w.name());
    }
}

/// A representative subset validates under every runtime, including the
/// synchronous DThreads model and the RR presets.
#[test]
fn representative_kernels_validate_under_all_runtimes() {
    let p = Params::new(3, 1, 11);
    for name in ["histogram", "reverse_index", "ocean_cp", "ferret", "kmeans"] {
        let w = workload_by_name(name).unwrap();
        for kind in RuntimeKind::ALL {
            let (_, _, ok) = run_once(w.as_ref(), kind, &p);
            assert!(ok, "{} failed under {}", name, kind.label());
        }
    }
}

/// Deterministic runtimes reproduce output AND commit logs across runs.
#[test]
fn kernels_are_bit_reproducible_under_dmt() {
    let p = Params::new(3, 1, 13);
    for name in ["word_count", "radix", "dedup", "water_nsquared"] {
        let w = workload_by_name(name).unwrap();
        for kind in [
            RuntimeKind::DThreads,
            RuntimeKind::Dwc,
            RuntimeKind::ConsequenceIc,
        ] {
            let a = run_once(w.as_ref(), kind, &p);
            let b = run_once(w.as_ref(), kind, &p);
            assert_eq!(a, b, "{} not reproducible under {}", name, kind.label());
        }
    }
}

/// Thread-count sweep: results stay correct from 1 to 8 workers.
#[test]
fn kernels_validate_across_thread_counts() {
    for threads in [1, 2, 8] {
        let p = Params::new(threads, 1, 5);
        for name in ["lu_ncb", "streamcluster", "water_spatial"] {
            let w = workload_by_name(name).unwrap();
            let (_, _, ok) = run_once(w.as_ref(), RuntimeKind::ConsequenceIc, &p);
            assert!(ok, "{} failed with {} threads", name, threads);
        }
    }
}
