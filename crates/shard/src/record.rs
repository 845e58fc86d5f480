//! Recording sharded runs into `.dmtrace` containers, and verifying them
//! by deterministic re-execution.
//!
//! A sharded run has no single grant script — each domain's token runs
//! free — so sharded traces are **re-execution verified** rather than
//! grant-scripted: the canonical `(domain, event)` stream (every domain's
//! token-ordered events, concatenated in domain order) is recorded, and
//! verification re-runs the named configuration from scratch and compares
//! the streams event by event with
//! [`dmt_api::trace::diagnose_domains`]. Because each domain's schedule
//! is bit-identical per `(seed, options)`, a correct build reproduces the
//! recording exactly; a divergence report names the shard that split.
//!
//! Recorded containers use the runtime label `sharded-ic-<shards>` and,
//! by convention, Consequence-IC options with shard-map seed 0 — the
//! options fingerprint in the META stream (which folds both shard
//! parameters) seals that convention.

use std::path::Path;

use consequence::Options;
use dmt_api::Fnv1a;
use dmt_trace::{Trace, TraceMeta, TraceWriter};
use dmt_workloads::server::{DomainServer, ServerSpec};
use dmt_workloads::Params;

use crate::runtime::{run_sharded_server, CaptureMode, ShardCfg, ShardReport};

/// Runtime-label prefix of sharded recordings: `sharded-ic-<shards>`.
pub const SHARDED_LABEL_PREFIX: &str = "sharded-ic-";

/// The result of verifying one sharded container by re-execution.
#[derive(Clone, Debug)]
pub struct ShardReplay {
    /// The container verified.
    pub path: String,
    /// Shard domains the recording names.
    pub shards: u32,
    /// Schedule events in the recording.
    pub recorded_events: u64,
    /// Schedule events the re-execution produced.
    pub replayed_events: u64,
    /// Recorded canonical-stream schedule hash (from the META stream).
    pub recorded_hash: u64,
    /// Canonical-stream schedule hash of the re-execution.
    pub replayed_hash: u64,
    /// Cumulative-hash checkpoints the re-execution reproduced.
    pub checkpoints_passed: u64,
    /// Checkpoints in the recording.
    pub checkpoints_total: u64,
    /// Combined output hash of the re-execution.
    pub replayed_output_hash: u64,
    /// Combined commit-log hash of the re-execution.
    pub replayed_commit_log_hash: u64,
    /// Whether the re-executed combined output hash matched.
    pub output_match: bool,
    /// Whether the re-executed combined commit-log hash matched.
    pub commit_log_match: bool,
    /// First-divergent-event diagnosis (with the divergent domain), or
    /// `None` when the re-execution tracked the recording exactly.
    pub divergence: Option<String>,
}

impl ShardReplay {
    /// Whether the re-execution reproduced the recording completely.
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
            && self.recorded_events == self.replayed_events
            && self.recorded_hash == self.replayed_hash
            && self.checkpoints_passed == self.checkpoints_total
            && self.output_match
            && self.commit_log_match
    }
}

/// The canonical shard configuration a recording (or its verification)
/// runs: Consequence-IC options, shard-map seed 0, event capture.
fn canonical_cfg(shards: u32, workers: usize, params: Params) -> ShardCfg {
    let mut cfg = ShardCfg::new(shards, workers, params);
    cfg.opts = Options::consequence_ic();
    cfg.capture = CaptureMode::Events;
    cfg
}

/// Records one sharded server run into `path`.
///
/// Runs `shards` domains with `workers` pool workers each, writes the
/// canonical `(domain, event)` stream into a `.dmtrace` container, stamps
/// the run's identity and digests into the META stream, and re-validates
/// the written container before returning.
pub fn record_server_trace(
    shards: u32,
    workers: usize,
    params: Params,
    path: &Path,
) -> Result<(TraceMeta, ShardReport), String> {
    let cfg = canonical_cfg(shards, workers, params);
    let report = run_sharded_server(&cfg);

    let mut opts = cfg.opts.clone();
    opts.shard_domains = shards;
    let spec = ServerSpec::of(&params);
    let mut w = TraceWriter::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    for (d, ev) in report.canonical_events() {
        w.push_in_domain(&ev, d)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let meta = TraceMeta {
        runtime: format!("{SHARDED_LABEL_PREFIX}{shards}"),
        workload: "dmt_server".to_string(),
        threads: workers as u64,
        scale: params.scale as u64,
        input_seed: params.seed,
        // Nominal sizing: the single-domain upper bound (each domain owns
        // a subset of the keys, so every domain heap fits under it).
        heap_pages: DomainServer::heap_pages(&spec, spec.keys, workers) as u64,
        max_threads: workers as u64 + 2,
        options_fingerprint: opts.fingerprint(),
        perturb_seed: 0,
        perturb_plan: 0,
        event_count: 0,   // stamped by the writer
        schedule_hash: 0, // stamped by the writer
        commit_log_hash: report.commit_hash,
        output_hash: report.output_hash,
        checkpoint_interval: 0, // stamped by the writer
        panic_site: 0,
        panic_victim: 0,
        panic_nth: 0,
    };
    let meta = w
        .finish(meta)
        .map_err(|e| format!("finish {}: {e}", path.display()))?;
    // Immediate round-trip: a container we cannot re-open is useless.
    Trace::open(path).map_err(|e| format!("re-validate {}: {e}", path.display()))?;
    Ok((meta, report))
}

/// Verifies a sharded container by re-executing the configuration it
/// names and comparing the canonical event streams.
///
/// Returns an error when the container does not parse, names a different
/// workload, or was recorded under options whose fingerprint this build
/// cannot reproduce; schedule differences are reported in the returned
/// [`ShardReplay`], not as errors.
pub fn verify_server_trace(path: &Path) -> Result<ShardReplay, String> {
    let trace = Trace::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    verify_against(&trace, path)
}

/// [`verify_server_trace`] for an already-opened container.
pub fn verify_against(trace: &Trace, path: &Path) -> Result<ShardReplay, String> {
    let shards: u32 = trace
        .meta
        .runtime
        .strip_prefix(SHARDED_LABEL_PREFIX)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("{:?} is not a sharded runtime label", trace.meta.runtime))?;
    if trace.meta.workload != "dmt_server" {
        return Err(format!(
            "sharded traces record dmt_server, not {:?}",
            trace.meta.workload
        ));
    }
    let params = Params::new(
        trace.meta.threads as usize,
        trace.meta.scale as u32,
        trace.meta.input_seed,
    );
    let cfg = canonical_cfg(shards, trace.meta.threads as usize, params);
    let mut opts = cfg.opts.clone();
    opts.shard_domains = shards;
    let current = opts.fingerprint();
    if current != trace.meta.options_fingerprint {
        return Err(format!(
            "options fingerprint mismatch: recorded {:#018x}, this build {current:#018x}",
            trace.meta.options_fingerprint
        ));
    }

    let report = run_sharded_server(&cfg);
    let live = report.canonical_events();

    // Replayed canonical-stream hash, and checkpoint reproduction: the
    // recording checkpoints the cumulative hash every page of events, so
    // fold the live stream and compare at each recorded boundary.
    let mut h = Fnv1a::new();
    let mut folded = 0u64;
    let mut next_cp = 0usize;
    let mut checkpoints_passed = 0u64;
    for (d, ev) in &live {
        ev.fold_domain(*d, &mut h);
        folded += 1;
        while next_cp < trace.checkpoints.len() && trace.checkpoints[next_cp].events == folded {
            if trace.checkpoints[next_cp].hash == h.digest() {
                checkpoints_passed += 1;
            }
            next_cp += 1;
        }
    }
    let replayed_hash = h.digest();

    let recorded = trace.domain_events();
    let divergence = dmt_api::trace::diagnose_domains(&recorded, &live).map(|d| d.to_string());

    Ok(ShardReplay {
        path: path.display().to_string(),
        shards,
        recorded_events: trace.meta.event_count,
        replayed_events: live.len() as u64,
        recorded_hash: trace.meta.schedule_hash,
        replayed_hash,
        checkpoints_passed,
        checkpoints_total: trace.checkpoints.len() as u64,
        replayed_output_hash: report.output_hash,
        replayed_commit_log_hash: report.commit_hash,
        output_match: report.output_hash == trace.meta.output_hash,
        commit_log_match: report.commit_hash == trace.meta.commit_log_hash,
        divergence,
    })
}

/// One-line human rendering of a sharded verification result.
pub fn summarize(r: &ShardReplay) -> String {
    let verdict = if r.ok() { "OK" } else { "DIVERGED" };
    format!(
        "[{verdict}] dmt_server sharded-ic-{} {}: events {}/{} hash {:#018x}/{:#018x} checkpoints {}/{} output={} commits={}",
        r.shards,
        r.path,
        r.replayed_events,
        r.recorded_events,
        r.replayed_hash,
        r.recorded_hash,
        r.checkpoints_passed,
        r.checkpoints_total,
        r.output_match,
        r.commit_log_match,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TmpDir(std::path::PathBuf);
    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    fn tmpdir(tag: &str) -> TmpDir {
        let d = std::env::temp_dir().join(format!("dmt-shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("create tmpdir");
        TmpDir(d)
    }

    #[test]
    fn sharded_recording_round_trips_and_verifies() {
        let dir = tmpdir("roundtrip");
        let path = dir.0.join("server-2.dmtrace");
        let (meta, report) =
            record_server_trace(2, 2, Params::new(2, 1, 11), &path).expect("record");
        assert_eq!(meta.runtime, "sharded-ic-2");
        assert_eq!(meta.event_count, report.canonical_events().len() as u64);
        let v = verify_server_trace(&path).expect("verify");
        assert!(v.ok(), "{}", summarize(&v));
        assert_eq!(v.shards, 2);
        assert_eq!(v.checkpoints_passed, v.checkpoints_total);
    }

    #[test]
    fn verification_rejects_foreign_labels() {
        let dir = tmpdir("label");
        let path = dir.0.join("server-1.dmtrace");
        record_server_trace(1, 2, Params::new(2, 1, 5), &path).expect("record");
        let mut bad = Trace::open(&path).expect("open");
        bad.meta.runtime = "consequence-ic".to_string();
        assert!(verify_against(&bad, &path).is_err());
    }
}
