//! Sharded token domains: the determinism contract of `dmt-shard` as
//! exercised from the umbrella crate. See `docs/SHARDING.md`.
//!
//! The load-bearing property is **shard lockstep**: a 1-shard sharded run
//! is not merely equivalent to the unsharded `dmt_server` workload — it
//! executes the identical job under the identical configuration, so its
//! schedule hash and output hash must match bit for bit. On top of that,
//! every shard count must reproduce its own schedule exactly across
//! repeated runs, and every partition must end in the same final store.

use consequence_repro::consequence::Options;
use consequence_repro::dmt_shard::{
    reference_store_hash, run_sharded_server, CaptureMode, ShardCfg,
};
use consequence_repro::dmt_workloads::server::ServerSpec;
use consequence_repro::dmt_workloads::Params;
use dmt_bench::cell::Cell;

/// Runs the unsharded registry `dmt_server` workload under exactly the
/// configuration a shard domain runs (see `dmt_shard::run_sharded_server`),
/// returning `(schedule_hash, output_hash)`.
fn run_unsharded(workers: usize, scale: u32, seed: u64) -> (u64, u64) {
    let params = Params::new(workers, scale, seed);
    let r = Cell {
        max_threads: workers + 2,
        gc_budget: usize::MAX,
        ..Cell::new("dmt_server", params, Options::consequence_ic())
    }
    .run();
    assert!(
        r.validation.matches_reference,
        "unsharded dmt_server failed validation"
    );
    (r.report.schedule_hash, r.validation.output_hash)
}

fn shard_cfg(shards: u32, workers: usize, seed: u64) -> ShardCfg {
    let mut cfg = ShardCfg::new(shards, workers, Params::new(workers, 1, seed));
    cfg.capture = CaptureMode::Hash;
    cfg
}

/// Shard lockstep, as a property over seeds: for every input seed, the
/// 1-shard run's root-domain schedule and output are bit-identical to the
/// unsharded workload's.
#[test]
fn one_shard_is_bit_identical_to_unsharded() {
    for seed in [7u64, 42, 0xDEC0DE] {
        let (schedule, out) = run_unsharded(3, 1, seed);
        let r = run_sharded_server(&shard_cfg(1, 3, seed));
        assert_eq!(r.domains.len(), 1);
        assert_eq!(
            r.domains[0].run.schedule_hash, schedule,
            "seed {seed}: 1-shard schedule diverged from unsharded"
        );
        assert_eq!(
            r.domains[0].output_hash, out,
            "seed {seed}: 1-shard output diverged from unsharded"
        );
    }
}

/// Multi-shard determinism: repeated runs of one configuration reproduce
/// the combined hash and every per-domain hash bit for bit, and distinct
/// seeds produce distinct schedules (the hash is not degenerate).
#[test]
fn multi_shard_schedules_reproduce_exactly() {
    let a = run_sharded_server(&shard_cfg(4, 2, 42));
    let b = run_sharded_server(&shard_cfg(4, 2, 42));
    assert_eq!(a.schedule_hash, b.schedule_hash);
    assert_eq!(a.output_hash, b.output_hash);
    assert_eq!(a.commit_hash, b.commit_hash);
    for (da, db) in a.domains.iter().zip(&b.domains) {
        assert_eq!(
            da.run.schedule_hash, db.run.schedule_hash,
            "domain {}",
            da.domain
        );
        assert_eq!(da.output_hash, db.output_hash, "domain {}", da.domain);
    }
    let c = run_sharded_server(&shard_cfg(4, 2, 43));
    assert_ne!(
        a.schedule_hash, c.schedule_hash,
        "seed does not reach the schedule"
    );
}

/// Semantic invariance: every partition of the same traffic — across
/// shard counts and across shard-map seeds — must end in the sequential
/// reference store, even though the schedules legitimately differ.
#[test]
fn final_store_is_invariant_across_partitions() {
    let reference = reference_store_hash(&ServerSpec::of(&Params::new(2, 1, 42)));
    let r1 = run_sharded_server(&shard_cfg(1, 2, 42));
    let r2 = run_sharded_server(&shard_cfg(2, 2, 42));
    let r4 = run_sharded_server(&shard_cfg(4, 2, 42));
    for (shards, r) in [(1, &r1), (2, &r2), (4, &r4)] {
        assert_eq!(r.store_hash, reference, "{shards} shards");
    }
    assert_ne!(r2.schedule_hash, r4.schedule_hash);

    let mut remapped = shard_cfg(4, 2, 42);
    remapped.map_seed = 0xB10C;
    let rm = run_sharded_server(&remapped);
    assert_eq!(rm.store_hash, reference, "map seed changed the store");
    assert_ne!(
        rm.schedule_hash, r4.schedule_hash,
        "map seed does not route"
    );
}
