//! `bench shard`: sync-op throughput of the sharded token runtime.
//!
//! One experiment, emitted as `BENCH_shard.json` (see `docs/PERF.md`):
//! the deterministic `dmt_server` workload serving the **same request
//! stream** with the same total worker count, partitioned across 1, 2 and
//! 4 token domains. Every configuration performs the same application
//! work; what changes is how many threads contend on each token. Fewer
//! waiters per token means shorter grant wake-loops, smaller eligibility
//! scans and less queue convoying, so synchronization throughput (token
//! acquisitions per second, summed over domains) must rise with the shard
//! count — including on a single-core host, where the win is pure
//! per-sync-op overhead, not parallelism.
//!
//! Every cell also re-checks the determinism contract: repeated runs must
//! reproduce the combined schedule hash bit for bit, and every shard
//! count must end in the same final store (the mutations commute), so a
//! throughput win can never silently buy a semantic change.

use std::time::Instant;

use dmt_shard::{run_sharded_server, CaptureMode, ShardCfg};
use dmt_workloads::Params;

use crate::artifact::{cells, find, flag, is_full, mode_label, num, open, positive, Artifact};
use crate::stats::Summary;

/// Shard-domain counts of the scaling grid.
pub const SHARDS: [u32; 3] = [1, 2, 4];
/// Total pool workers, split evenly across the domains of each cell.
pub const TOTAL_WORKERS: usize = 8;

/// Format version tag of the emitted document.
pub const SCHEMA: &str = "bench-shard/1";

crate::json_record! {
    /// One scaling cell: the server under a fixed total worker count split
    /// across `shards` token domains.
    #[derive(Clone, Debug)]
    pub struct ShardCell {
        /// Token domains.
        pub shards: usize,
        /// Pool workers per domain ([`TOTAL_WORKERS`] split evenly).
        pub workers_per_domain: usize,
        /// Client requests served (identical across cells by construction).
        pub requests: u64,
        /// Application synchronization operations: deterministic mutex
        /// acquisitions summed over domains. Near-identical across cells —
        /// the same requests take the same locks — so the throughput ratio
        /// between cells is the per-sync-op overhead ratio.
        pub sync_ops: u64,
        /// Token acquisitions summed over domains (runtime-internal grants).
        pub token_ops: u64,
        /// Sync-ops per second of the best rep.
        pub sync_ops_per_s: f64,
        /// Requests per second of the best rep.
        pub req_per_s: f64,
        /// Wall nanoseconds of the best rep.
        pub wall_ns: f64,
        /// Combined schedule hash (bit-identical across reps when
        /// `deterministic`).
        pub schedule_hash: u64,
        /// Final-store digest (identical across cells when the report's
        /// `store_invariant` holds).
        pub store_hash: u64,
        /// Every rep reproduced the combined schedule hash and output hash.
        pub deterministic: bool,
        /// Per-rep spread of sync-ops per second.
        pub summary: Summary,
    }
}

crate::json_record! {
    /// The complete `bench shard` artifact.
    #[derive(Clone, Debug)]
    pub struct ShardBenchReport {
        /// Format tag ([`SCHEMA`]).
        pub schema: String,
        /// `"full"` or `"smoke"`.
        pub mode: String,
        /// Total workers in every cell.
        pub total_workers: usize,
        /// Problem-size multiplier the cells ran at.
        pub scale: u64,
        /// Every shard count ended in the same final store.
        pub store_invariant: bool,
        /// Scaling cells, one per count in [`SHARDS`].
        pub cells: Vec<ShardCell>,
    }
}

/// Measures one shard count: `reps` timed runs of the same configuration,
/// best-of for throughput, bit-identical hashes required across reps.
fn run_cell(shards: u32, scale: u32, seed: u64, reps: usize) -> ShardCell {
    let workers = TOTAL_WORKERS / shards as usize;
    let mut cfg = ShardCfg::new(shards, workers, Params::new(workers, scale, seed));
    cfg.capture = CaptureMode::Hash;

    // Warm-up rep (page faults, allocator), then measured reps.
    let first = run_sharded_server(&cfg);
    let locks_of =
        |r: &dmt_shard::ShardReport| -> u64 { r.domains.iter().map(|d| d.lock_acquires).sum() };
    let sync_ops = locks_of(&first);
    let mut deterministic = true;
    let mut rates = Vec::with_capacity(reps);
    let mut best_wall_ns = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run_sharded_server(&cfg);
        let wall_ns = t0.elapsed().as_nanos() as f64;
        deterministic &=
            r.schedule_hash == first.schedule_hash && r.output_hash == first.output_hash;
        rates.push(locks_of(&r) as f64 / (wall_ns / 1e9));
        best_wall_ns = best_wall_ns.min(wall_ns);
    }
    let summary = Summary::of(&rates);
    ShardCell {
        shards: shards as usize,
        workers_per_domain: workers,
        requests: first.requests,
        sync_ops,
        token_ops: first.sync_ops,
        sync_ops_per_s: summary.max,
        req_per_s: first.requests as f64 / (best_wall_ns / 1e9),
        wall_ns: best_wall_ns,
        schedule_hash: first.schedule_hash,
        store_hash: first.store_hash,
        deterministic,
        summary,
    }
}

impl Artifact for ShardBenchReport {
    const NAME: &'static str = "shard";

    /// Runs the scaling grid and assembles the artifact.
    fn run(smoke: bool) -> ShardBenchReport {
        let reps = if smoke { 2 } else { 7 };
        let scale = if smoke { 1 } else { 4 };
        let seed = 42;
        let cells: Vec<ShardCell> = SHARDS
            .iter()
            .map(|&s| run_cell(s, scale, seed, reps))
            .collect();
        let store_invariant = cells.windows(2).all(|w| w[0].store_hash == w[1].store_hash);
        ShardBenchReport {
            schema: SCHEMA.to_string(),
            mode: mode_label(smoke),
            total_workers: TOTAL_WORKERS,
            scale: scale as u64,
            store_invariant,
            cells,
        }
    }

    fn summary(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "shards={} ({}x{} workers): {:>9.0} sync-ops/s  {:>8.0} req/s  \
                     hash {:#018x}  {}",
                    c.shards,
                    c.shards,
                    c.workers_per_domain,
                    c.sync_ops_per_s,
                    c.req_per_s,
                    c.schedule_hash,
                    if c.deterministic {
                        "deterministic"
                    } else {
                        "DIVERGED"
                    }
                )
            })
            .collect();
        out.push(format!(
            "store invariant across shard counts: {}",
            self.store_invariant
        ));
        out
    }

    /// An emitted `BENCH_shard.json` must parse, carry the current schema
    /// tag, contain every shard count with positive numbers, witness
    /// per-cell determinism and the cross-shard store invariant. In
    /// `"full"` mode sync-op throughput must additionally increase
    /// **monotonically** from 1 to 4 shards — the acceptance number for
    /// the sharded-domains tentpole.
    fn validate(text: &str) -> Result<(), String> {
        let v = open(text, SCHEMA)?;
        if !flag(&v, "store_invariant") {
            return Err("final store differs across shard counts".into());
        }
        let total = num(&v, "report", "total_workers")?;
        if total < 4.0 {
            return Err(format!(
                "total_workers {total} < 4: scaling claim needs contention"
            ));
        }
        let cells = cells(&v, "cells")?;
        let mut prev: Option<(u32, f64)> = None;
        for &s in &SHARDS {
            let cell = find(cells, "shard", &[("shards", s as usize)])?;
            let ctx = format!("cell {s}");
            if !flag(cell, "deterministic") {
                return Err(format!("{ctx}: repeated runs diverged"));
            }
            positive(cell, &ctx, &["sync_ops_per_s", "sync_ops", "requests"])?;
            let rate = num(cell, &ctx, "sync_ops_per_s")?;
            if let (true, Some((ps, pr))) = (is_full(&v), prev) {
                if rate <= pr {
                    return Err(format!(
                        "sync-op throughput is not monotonic: {s} shards at {rate:.0}/s \
                         does not beat {ps} shards at {pr:.0}/s"
                    ));
                }
            }
            prev = Some((s, rate));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn smoke_report_passes_its_own_validation() {
        let r = ShardBenchReport::run(true);
        ShardBenchReport::validate(&r.to_json()).expect("smoke artifact validates");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(ShardBenchReport::validate("not json").is_err());
        assert!(ShardBenchReport::validate("{}").is_err());
        let mut r = stub_report();
        r.cells[1].deterministic = false;
        assert!(ShardBenchReport::validate(&r.to_json())
            .unwrap_err()
            .contains("diverged"));
        let mut r = stub_report();
        r.store_invariant = false;
        assert!(ShardBenchReport::validate(&r.to_json())
            .unwrap_err()
            .contains("store differs"));
        let mut r = stub_report();
        r.mode = "full".into();
        r.cells[2].sync_ops_per_s = r.cells[1].sync_ops_per_s / 2.0;
        assert!(ShardBenchReport::validate(&r.to_json())
            .unwrap_err()
            .contains("not monotonic"));
    }

    /// A structurally complete report with fabricated numbers (no timing),
    /// for validation tests that must stay fast.
    fn stub_report() -> ShardBenchReport {
        let cells = SHARDS
            .iter()
            .enumerate()
            .map(|(i, &s)| ShardCell {
                shards: s as usize,
                workers_per_domain: TOTAL_WORKERS / s as usize,
                requests: 2000,
                sync_ops: 10_000,
                token_ops: 20_000,
                sync_ops_per_s: 1000.0 * (i + 1) as f64,
                req_per_s: 200.0 * (i + 1) as f64,
                wall_ns: 1e9,
                schedule_hash: 7 + i as u64,
                store_hash: 99,
                deterministic: true,
                summary: Summary::of(&[1000.0 * (i + 1) as f64]),
            })
            .collect();
        ShardBenchReport {
            schema: SCHEMA.to_string(),
            mode: "smoke".into(),
            total_workers: TOTAL_WORKERS,
            scale: 1,
            store_invariant: true,
            cells,
        }
    }
}
