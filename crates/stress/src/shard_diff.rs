//! `stress --shard-diff`: differential validation of the sharded runtime.
//!
//! The `dmt-shard` subsystem partitions a run into independently tokened
//! domains (see `docs/SHARDING.md`). Its contract has three legs, and
//! this mode attacks each one end to end:
//!
//! 1. **Per-configuration determinism** — for every shard count, repeated
//!    runs of one `(seed, options)` produce bit-identical combined
//!    schedule hashes, per-domain hashes and output hashes;
//! 2. **1-shard lockstep** — a 1-shard sharded run executes the identical
//!    job the unsharded `dmt_server` registry workload executes, in the
//!    root domain, so its domain schedule hash and output hash must equal
//!    the unsharded run's bit for bit;
//! 3. **Semantic invariance** — the final store digest must equal the
//!    sequential reference under *every* shard count and shard-map seed
//!    (all server mutations commute), even though the schedules
//!    legitimately differ.
//!
//! A single misrouted credit, lost rendezvous message or cross-domain
//! schedule leak moves one of these digests.

use dmt_api::{Fnv1a, PerturbHandle};
use dmt_baselines::RuntimeKind;
use dmt_bench::cell::Cell;
use dmt_shard::{run_sharded_server, CaptureMode, ShardCfg};
use dmt_workloads::server::ServerSpec;
use dmt_workloads::Params;

use crate::report::{hex, Col, Notes, Report, Table};
use crate::StressConfig;

/// Shard counts the differential sweeps.
pub const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

dmt_bench::json_record! {
    /// One shard count's differential result.
    #[derive(Clone, Debug)]
    pub struct ShardDiffCell {
        /// Shard domains in this cell.
        pub shards: u64,
        /// Repeated runs executed.
        pub runs: u64,
        /// Combined schedule hash (identical across all runs when
        /// `deterministic`).
        pub schedule_hash: u64,
        /// Final-store digest (must match the sequential reference).
        pub store_hash: u64,
        /// Combined output hash.
        pub output_hash: u64,
        /// Every repeat reproduced every per-domain hash and the combined
        /// hashes bit for bit.
        pub deterministic: bool,
        /// The store digest equals the sequential reference's.
        pub store_matches_reference: bool,
        /// For the 1-shard cell: the root domain's schedule and output hashes
        /// equal the unsharded registry workload's. (Vacuously true for
        /// multi-shard cells.)
        pub lockstep: bool,
    }
}

dmt_bench::json_record! {
    /// What the sharded differential reports beside its cells.
    #[derive(Clone, Debug)]
    pub struct ShardDiffExtra {
        /// Problem-size multiplier.
        pub scale: u64,
        /// Workload input seed.
        pub input_seed: u64,
        /// Runs per cell.
        pub repeats: u64,
        /// Schedule hash of the unsharded `dmt_server` registry run.
        pub unsharded_hash: u64,
        /// Sequential-reference store digest.
        pub reference_store_hash: u64,
        /// A non-zero shard-map seed still reproduced the reference store.
        pub map_seed_store_ok: bool,
        /// A non-zero shard-map seed produced a different schedule (the map
        /// actually routes).
        pub map_seed_schedule_moves: bool,
    }
}

/// The full sharded-differential result; `threads` are pool workers per
/// domain.
pub type ShardDiffReport = Report<ShardDiffCell, ShardDiffExtra>;

impl Table for ShardDiffCell {
    const COLS: &'static [Col<Self>] = &[
        ("shards", -8, |c| c.shards.to_string()),
        ("runs", 6, |c| c.runs.to_string()),
        ("schedule_hash", 20, |c| hex(c.schedule_hash)),
        ("store_hash", 20, |c| hex(c.store_hash)),
        ("deterministic", 15, |c| c.deterministic.to_string()),
        ("store_ok", 10, |c| c.store_matches_reference.to_string()),
        ("lockstep", 10, |c| c.lockstep.to_string()),
    ];

    fn ok(&self) -> bool {
        self.deterministic && self.store_matches_reference && self.lockstep
    }
}

impl Notes for ShardDiffReport {
    fn notes(&self) -> Vec<String> {
        let x = &self.extra;
        vec![
            format!(
                "map-seed check: store_ok={} schedule_moves={}",
                x.map_seed_store_ok, x.map_seed_schedule_moves
            ),
            format!("unsharded hash {:#018x}", x.unsharded_hash),
        ]
    }
}

/// Runs the unsharded `dmt_server` registry workload under exactly the
/// configuration a 1-shard domain runs, returning its schedule hash and
/// output hash.
fn run_unsharded(cfg: &StressConfig) -> (u64, u64) {
    let r = Cell {
        max_threads: cfg.threads + 2,
        gc_budget: usize::MAX,
        ..cfg.cell(
            "dmt_server",
            RuntimeKind::ConsequenceIc,
            PerturbHandle::off(),
        )
    }
    .run();
    assert!(
        r.validation.matches_reference,
        "unsharded dmt_server failed validation"
    );
    (r.report.schedule_hash, r.validation.output_hash)
}

/// Sequential-reference store digest, folded exactly like
/// `ShardReport::store_hash`.
pub(crate) fn reference_store_hash(spec: &ServerSpec) -> u64 {
    let mut h = Fnv1a::new();
    for (k, v) in spec.expected_store().iter().enumerate() {
        h.update(&(k as u64).to_le_bytes());
        h.update(&v.to_le_bytes());
    }
    h.digest()
}

fn shard_cfg(shards: u32, threads: usize, scale: u32, seed: u64, map_seed: u64) -> ShardCfg {
    let mut cfg = ShardCfg::new(shards, threads, Params::new(threads, scale, seed));
    cfg.opts.shard_map_seed = map_seed;
    cfg.capture = CaptureMode::Hash;
    cfg
}

/// Runs the sharded differential and returns the report. `progress` is
/// called once per finished cell.
pub fn run_shard_diff(
    cfg: &StressConfig,
    mut progress: impl FnMut(&ShardDiffCell),
) -> ShardDiffReport {
    let repeats = cfg.seeds.max(2);
    let spec = ServerSpec::of(&Params::new(cfg.threads, cfg.scale, cfg.input_seed));
    let reference = reference_store_hash(&spec);
    let (unsharded_hash, unsharded_out) = run_unsharded(cfg);

    let mut cells = Vec::new();
    for &shards in &SHARD_COUNTS {
        let scfg = shard_cfg(shards, cfg.threads, cfg.scale, cfg.input_seed, 0);
        let first = run_sharded_server(&scfg);
        let mut deterministic = true;
        for _ in 1..repeats {
            let again = run_sharded_server(&scfg);
            deterministic &= again.schedule_hash == first.schedule_hash
                && again.output_hash == first.output_hash
                && again.store_hash == first.store_hash
                && again
                    .domains
                    .iter()
                    .zip(&first.domains)
                    .all(|(a, b)| a.schedule_hash == b.schedule_hash);
        }
        let lockstep = shards != 1
            || (first.domains[0].schedule_hash == unsharded_hash
                && first.domains[0].output_hash == unsharded_out);
        let cell = ShardDiffCell {
            shards: shards as u64,
            runs: repeats,
            schedule_hash: first.schedule_hash,
            store_hash: first.store_hash,
            output_hash: first.output_hash,
            deterministic,
            store_matches_reference: first.store_hash == reference,
            lockstep,
        };
        progress(&cell);
        cells.push(cell);
    }

    // A scrambled shard map must reroute (different schedule) without
    // changing semantics (same reference store).
    let seeded = run_sharded_server(&shard_cfg(
        4,
        cfg.threads,
        cfg.scale,
        cfg.input_seed,
        0xB10C,
    ));
    let base4 = cells
        .iter()
        .find(|c| c.shards == 4)
        .expect("4-shard cell exists");
    let map_seed_store_ok = seeded.store_hash == reference;
    let map_seed_schedule_moves = seeded.schedule_hash != base4.schedule_hash;

    let extra = ShardDiffExtra {
        scale: cfg.scale as u64,
        input_seed: cfg.input_seed,
        repeats,
        unsharded_hash,
        reference_store_hash: reference,
        map_seed_store_ok,
        map_seed_schedule_moves,
    };
    // The unsharded run, `repeats` per shard count, the scrambled map.
    let total_runs = 1 + repeats * SHARD_COUNTS.len() as u64 + 1;
    let mut report = Report::new(cfg, total_runs, cells, extra);
    report.passed &= map_seed_store_ok && map_seed_schedule_moves;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_diff_smoke_passes() {
        let cfg = StressConfig {
            threads: 2,
            scale: 1,
            seeds: 2,
            input_seed: 42,
            ..StressConfig::smoke()
        };
        let mut seen = 0;
        let report = run_shard_diff(&cfg, |_| seen += 1);
        assert_eq!(seen, SHARD_COUNTS.len());
        assert!(report.passed, "{report:?}");
        assert!(report.cells.iter().all(|c| c.runs >= 2));
    }
}
