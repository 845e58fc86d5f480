//! What the harness covers, pinned.
//!
//! Every grid mode plus the shard differential and the mixed-scenario
//! matrix run at a tiny configuration, and the fields of their reports that
//! are pure functions of the seed derivation and the cell runner's
//! configuration — cell lists, run counts, every hash, panic-inject's hit
//! and panic counts — are compared against literals captured at commit
//! 4531316. A harness refactor that drops a cell, reorders the grid,
//! changes a salt or builds a runtime with different `max_threads` /
//! `gc_budget` moves one of these lines.
//!
//! Reports are compared as typed values rendered to text, never through
//! `jsonparse`: its numbers are `f64`, and these hashes exceed 2^53.

use dmt_baselines::RuntimeKind;
use dmt_stress::{
    mix64, run_matrix, run_mixed_matrix, run_option_diff, run_panic_inject, run_shard_diff,
    OptionDiff, StressConfig, SCHED_DIFF,
};

fn tiny() -> StressConfig {
    StressConfig {
        workloads: vec!["reverse_index".to_string()],
        runtimes: vec![
            RuntimeKind::ConsequenceIc,
            RuntimeKind::ConsequenceRr,
            RuntimeKind::DThreads,
        ],
        seeds: 2,
        base_seed: 0x5EED,
        threads: 2,
        scale: 1,
        input_seed: 42,
    }
}

fn check(what: &str, got: Vec<String>, want: &[&str]) {
    let got = got.join("\n");
    let want = want.join("\n");
    assert_eq!(got, want, "\n{what} moved; observed:\n{got}\n");
}

#[test]
fn differential_matrix_cells_are_pinned() {
    let r = run_matrix(&tiny(), |_| {});
    let mut got: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "{} {} runs={} baseline={:#018x} distinct={}",
                c.workload, c.runtime, c.runs, c.baseline_hash, c.distinct_hashes
            )
        })
        .collect();
    got.push(format!(
        "total_runs={} pthreads_runs={} violations={} passed={}",
        r.total_runs,
        r.extra.pthreads_runs,
        r.extra.violations.len(),
        r.passed
    ));
    check("run_matrix", got, MATRIX);
}

fn option_diff_cells(diff: OptionDiff) -> Vec<String> {
    let r = run_option_diff(&tiny(), diff, |_| {});
    let mut got: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "{} {} runs={} a={:#018x} b={:#018x}",
                c.workload, c.runtime, c.runs, c.with_hash, c.without_hash
            )
        })
        .collect();
    got.push(format!("total_runs={} passed={}", r.total_runs, r.passed));
    got
}

#[test]
fn sched_diff_cells_are_pinned() {
    check("sched-diff", option_diff_cells(SCHED_DIFF), OPTION_DIFF);
}

#[test]
fn panic_inject_victims_are_pinned() {
    let cfg = StressConfig { seeds: 4, ..tiny() };
    let r = run_panic_inject(&cfg, |_| {});
    let mut got: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "{} {} runs={} hits={} panics={}",
                c.workload, c.runtime, c.runs, c.hits, c.panics
            )
        })
        .collect();
    got.push(format!(
        "total_runs={} total_hits={} passed={}",
        r.total_runs, r.extra.total_hits, r.passed
    ));
    check("inject-panic", got, PANIC_INJECT);
}

#[test]
fn shard_diff_cells_are_pinned() {
    let r = run_shard_diff(&tiny(), |_| {});
    let mut got: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "shards={} runs={} schedule={:#018x} store={:#018x} output={:#018x}",
                c.shards, c.runs, c.schedule_hash, c.store_hash, c.output_hash
            )
        })
        .collect();
    let x = &r.extra;
    got.push(format!(
        "unsharded={:#018x} reference_store={:#018x} repeats={} passed={}",
        x.unsharded_hash, x.reference_store_hash, x.repeats, r.passed
    ));
    check("shard-diff", got, SHARD_DIFF);
}

#[test]
fn mixed_matrix_compositions_are_pinned() {
    let r = run_mixed_matrix(&tiny(), |_| {});
    let flag = |b: bool| if b { '1' } else { '0' };
    let mut got: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "perturb={} panic={} shard={} record={} runs={} schedule={:#018x} panics={}",
                flag(c.perturb),
                flag(c.panic),
                flag(c.shard),
                flag(c.record),
                c.runs,
                c.schedule_hash,
                c.panics
            )
        })
        .collect();
    got.push(format!(
        "compositions={} total_runs={} passed={}",
        r.extra.compositions, r.total_runs, r.passed
    ));
    check("mixed matrix", got, MIXED_MATRIX);
}

/// The per-cell salts and per-round plan seeds the grid derives under each
/// mode salt. No deterministic runtime's hashes depend on them (that is
/// the claim under test), so only these literals and panic-inject's
/// victims see a change to the derivation.
#[test]
fn seed_derivation_is_pinned() {
    let modes: [(&str, u64); 3] = [
        ("matrix", 0),
        ("sched-diff", SCHED_DIFF.salt),
        ("inject-panic", 0xFA17_0CE5),
    ];
    let cfg = StressConfig {
        workloads: vec!["w0".into(), "w1".into()],
        ..tiny()
    };
    let mut got = Vec::new();
    for (name, salt) in modes {
        let grid: Vec<_> = cfg.grid(salt).collect();
        for (wi, ki) in [(0usize, 0usize), (0, 2), (1, 1)] {
            let (workload, kind, cs) = grid[wi * cfg.runtimes.len() + ki];
            assert_eq!((workload, kind), (&*cfg.workloads[wi], cfg.runtimes[ki]));
            let plans: Vec<u64> = cfg.plans(cs).map(|p| p.seed).collect();
            assert_eq!(plans.len(), 2);
            got.push(format!(
                "{name} w{wi} k{ki} cell={cs:#018x} plan1={:#018x} plan2={:#018x}",
                plans[0], plans[1]
            ));
            let rounds: Vec<u64> = cfg.round_seeds(cs).map(mix64).collect();
            assert_eq!(rounds, plans, "plans are the mixed round seeds");
        }
    }
    check("seed derivation", got, SEEDS);
}

// ---- literals captured at 4531316; later commits do not edit them ----

const MATRIX: &[&str] = &[
    "reverse_index consequence-ic runs=3 baseline=0xdd0de29d160dfcd9 distinct=1",
    "reverse_index consequence-rr runs=3 baseline=0xc11f3c3c17f0a494 distinct=1",
    "reverse_index dthreads runs=3 baseline=0x9ee2c01195d62285 distinct=1",
    "total_runs=9 pthreads_runs=0 violations=0 passed=true",
];

const OPTION_DIFF: &[&str] = &[
    "reverse_index consequence-ic runs=6 a=0xdd0de29d160dfcd9 b=0xdd0de29d160dfcd9",
    "reverse_index consequence-rr runs=6 a=0xc11f3c3c17f0a494 b=0xc11f3c3c17f0a494",
    "total_runs=12 passed=true",
];

const PANIC_INJECT: &[&str] = &[
    "reverse_index consequence-ic runs=8 hits=2 panics=4",
    "reverse_index consequence-rr runs=8 hits=4 panics=10",
    "total_runs=16 total_hits=6 passed=true",
];

const SHARD_DIFF: &[&str] = &[
    "shards=1 runs=2 schedule=0xb91a5d4ae3d4fd64 store=0x80617159c05a42ac output=0x947ee4eb85fad37a",
    "shards=2 runs=2 schedule=0x888a641580c7a3f3 store=0x80617159c05a42ac output=0xce4844e56e76a401",
    "shards=4 runs=2 schedule=0x8cda1f850fd0f491 store=0x80617159c05a42ac output=0x7a75507601806305",
    "unsharded=0x875e10730bd19dfe reference_store=0x80617159c05a42ac repeats=2 passed=true",
];

const MIXED_MATRIX: &[&str] = &[
    "perturb=0 panic=0 shard=0 record=0 runs=2 schedule=0x875e10730bd19dfe panics=0",
    "perturb=1 panic=0 shard=0 record=0 runs=2 schedule=0x875e10730bd19dfe panics=0",
    "perturb=0 panic=1 shard=0 record=0 runs=2 schedule=0x67b25050bbc52a46 panics=3",
    "perturb=1 panic=1 shard=0 record=0 runs=2 schedule=0x67b25050bbc52a46 panics=3",
    "perturb=0 panic=0 shard=1 record=0 runs=2 schedule=0x888a641580c7a3f3 panics=0",
    "perturb=1 panic=0 shard=1 record=0 runs=2 schedule=0x888a641580c7a3f3 panics=0",
    "perturb=0 panic=1 shard=1 record=0 runs=2 schedule=0x3bf1a82dcd2f00d5 panics=2",
    "perturb=1 panic=1 shard=1 record=0 runs=2 schedule=0x3bf1a82dcd2f00d5 panics=2",
    "perturb=0 panic=0 shard=0 record=1 runs=2 schedule=0x875e10730bd19dfe panics=0",
    "perturb=1 panic=0 shard=0 record=1 runs=2 schedule=0x875e10730bd19dfe panics=0",
    "perturb=0 panic=1 shard=0 record=1 runs=2 schedule=0x67b25050bbc52a46 panics=3",
    "perturb=1 panic=1 shard=0 record=1 runs=2 schedule=0x67b25050bbc52a46 panics=3",
    "perturb=0 panic=0 shard=1 record=1 runs=2 schedule=0x888a641580c7a3f3 panics=0",
    "perturb=1 panic=0 shard=1 record=1 runs=2 schedule=0x888a641580c7a3f3 panics=0",
    "perturb=0 panic=1 shard=1 record=1 runs=2 schedule=0x3bf1a82dcd2f00d5 panics=2",
    "perturb=1 panic=1 shard=1 record=1 runs=2 schedule=0x3bf1a82dcd2f00d5 panics=2",
    "compositions=16 total_runs=32 passed=true",
];

const SEEDS: &[&str] = &[
    "matrix w0 k0 cell=0x09f1fd9d03f0a9b4 plan1=0x6f8d8fc9a4144514 plan2=0x359b7aa9a38eaa77",
    "matrix w0 k2 cell=0x3ac7a8ccf709f1cb plan1=0xfacec95d4663db7d plan2=0xf4329752007a3141",
    "matrix w1 k1 cell=0x587e0e812c0946c8 plan1=0x4af7231ebc8211d2 plan2=0x49d502947a0f062c",
    "sched-diff w0 k0 cell=0x73e13c5213036621 plan1=0x51788b3ecb099f0c plan2=0x60dbb5af5c27de72",
    "sched-diff w0 k2 cell=0x33eb9cce5b04b057 plan1=0xc4f28abd8b92042a plan2=0x1db2dc2ed8e4ec04",
    "sched-diff w1 k1 cell=0x5fa5afc6e2f87898 plan1=0x039c3db4bb4bead2 plan2=0x380c6ad6aa9d2759",
    "inject-panic w0 k0 cell=0x52420b6f6103283e plan1=0x0d846b6fa74e7d45 plan2=0xba88d6b3770998fb",
    "inject-panic w0 k2 cell=0x16b1355d2ca70552 plan1=0x19c00699dc38a6a9 plan2=0x621cb02dd372a84e",
    "inject-panic w1 k1 cell=0x6c5ddbb3b99551de plan1=0xd99ce2b9e12b3e85 plan2=0x3ad7d99a4109c270",
];
