//! End-to-end harness tests: the matrix holds on correct runtimes, the
//! report is self-describing, and the injected bug is caught and shrunk.

use dmt_baselines::RuntimeKind;
use dmt_stress::{plan_handle, run_inject_bug, run_matrix, StressConfig};

use dmt_api::{PerturbHandle, PerturbPlan};

fn tiny_matrix(runtimes: Vec<RuntimeKind>, seeds: u64) -> StressConfig {
    StressConfig {
        workloads: vec!["histogram".to_string()],
        runtimes,
        seeds,
        base_seed: 0x5EED,
        threads: 2,
        scale: 1,
        input_seed: 42,
    }
}

#[test]
fn deterministic_cells_are_hash_invariant_under_perturbation() {
    let cfg = tiny_matrix(vec![RuntimeKind::ConsequenceIc, RuntimeKind::DThreads], 2);
    let report = run_matrix(&cfg, |_| {});
    assert!(report.passed, "violations: {:?}", report.extra.violations);
    assert_eq!(report.total_runs, 2 * 3);
    for cell in &report.cells {
        assert_eq!(
            cell.distinct_hashes, 1,
            "{} under {} was not invariant",
            cell.workload, cell.runtime
        );
        assert!(cell.validated);
    }
}

#[test]
fn reports_are_self_describing() {
    let cfg = tiny_matrix(vec![], 0);
    let ic = RuntimeKind::ConsequenceIc;
    let plan = PerturbPlan::full(5);
    let run = cfg.cell("histogram", ic, plan_handle(&plan)).run();
    assert_eq!(run.report.perturb_seed, 5);
    assert_eq!(run.report.perturb_plan, plan.digest());
    assert!(run.validation.matches_reference);

    let off = cfg.cell("histogram", ic, PerturbHandle::off()).run();
    assert_eq!(off.report.perturb_seed, 0);
    assert_eq!(off.report.perturb_plan, 0);
    assert_eq!(off.report.schedule_hash, run.report.schedule_hash);
}

#[test]
fn injected_bug_is_caught_shrunk_and_diagnosed() {
    // Divergence under the bug depends on physical timing; a couple of
    // attempts keep this deterministic-enough for CI without weakening the
    // assertion (each attempt sweeps 8 seeds of full-strength plans).
    let mut out = run_inject_bug(8, 4, 400);
    for _ in 0..2 {
        if out.caught {
            break;
        }
        out = run_inject_bug(8, 4, 400);
    }
    assert!(out.caught, "injected eligibility bug was never detected");
    assert_ne!(out.baseline_hash, out.observed_hash);
    let diagnosis = out.diagnosis.expect("a divergence trace must be captured");
    assert!(
        diagnosis.contains("diverge at event"),
        "diagnosis does not name the first divergent event: {diagnosis}"
    );
}
