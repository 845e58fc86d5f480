//! Recording sharded runs into `.dmtrace` containers, and verifying them
//! by deterministic re-execution.
//!
//! A sharded trace records the canonical `(domain, event)` stream (every
//! domain's token-ordered events, concatenated in domain order), and
//! verification re-runs the named configuration from scratch and compares
//! the streams event by event through the same [`ReplaySink`] every
//! replay uses. Because each domain's schedule is bit-identical per
//! `(seed, options)`, a correct build reproduces the recording exactly; a
//! divergence report names the shard that split.
//!
//! Recorded containers use the runtime label `sharded-ic-<shards>` and,
//! by convention, Consequence-IC options with shard-map seed 0 — the
//! options fingerprint in the META stream ([`ShardCfg::fingerprint`],
//! which folds both shard parameters) seals that convention.

use std::path::Path;

use consequence::Options;
use dmt_api::TraceSink;
use dmt_trace::{ReplaySink, Replayed, Trace, TraceMeta, TraceWriter};
use dmt_workloads::server::{DomainServer, ServerSpec};
use dmt_workloads::Params;

use crate::runtime::{
    run_sharded_server, run_sharded_server_hooked, CaptureMode, DomainHooks, ShardCfg, ShardReport,
};

/// Runtime-label prefix of sharded recordings: `sharded-ic-<shards>`.
pub const SHARDED_LABEL_PREFIX: &str = "sharded-ic-";

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
        options_fingerprint: cfg.fingerprint(),
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
/// names and pushing the live canonical `(domain, event)` stream through a
/// [`ReplaySink`] built on the recording.
///
/// Returns an error when the container names a different workload, or was
/// recorded under options whose fingerprint this build cannot reproduce;
/// schedule differences are reported in the returned [`Replayed`], not as
/// errors — a run that serves fewer requests than the recording included:
/// its shorter stream diverges at its end.
pub fn verify_against(trace: &Trace) -> Result<Replayed, String> {
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
    Options::check_fingerprint(trace.meta.options_fingerprint, cfg.fingerprint())?;

    let hooks = DomainHooks {
        tolerate_losses: true,
        ..Default::default()
    };
    let report = run_sharded_server_hooked(&cfg, &hooks);
    let sink = ReplaySink::new(trace);
    for (d, ev) in report.canonical_events() {
        sink.emit(&ev, true, d);
    }
    let mut r = sink.finish();
    r.digests(report.output_hash, report.commit_hash);
    Ok(r)
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
        let v = verify_against(&Trace::open(&path).expect("open")).expect("verify");
        assert!(v.ok(), "{}", v.summarize());
        assert_eq!(v.runtime, "sharded-ic-2");
        assert_eq!(v.checkpoints_passed, v.checkpoints_total);
    }

    #[test]
    fn verification_rejects_foreign_labels() {
        let dir = tmpdir("label");
        let path = dir.0.join("server-1.dmtrace");
        record_server_trace(1, 2, Params::new(2, 1, 5), &path).expect("record");
        let mut bad = Trace::open(&path).expect("open");
        bad.meta.runtime = "consequence-ic".to_string();
        assert!(verify_against(&bad).is_err());
    }
}
