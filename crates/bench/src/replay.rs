//! Record/replay drivers for `stress --record/--replay` and the
//! replay-corpus test.
//!
//! Recording runs a named workload under a Consequence preset with a
//! [`DiskSink`] attached, stamps the run's identity and digests into the
//! trace META stream, and re-validates the written container immediately.
//! Replaying opens a container, re-stages the workload it names, drives
//! the run from the recorded grant script (see `consequence::replay`) and
//! checks schedule hash, output hash and commit-log hash against the
//! recording. See `docs/REPLAY.md`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use consequence::replay::options_for_label;
use consequence::ConsequenceRuntime;
use dmt_api::{PerturbHandle, Runtime};
use dmt_trace::{DiskSink, PartialTrace, Trace, TraceError, TraceMeta};
use dmt_workloads::{workload_by_name, Params, Validation};

use crate::cell::{Cell, Sink};

crate::json_record! {
    /// A finished recording.
    #[derive(Clone, Debug)]
    pub struct Recorded {
        /// Where the container was written.
        pub path: String,
        /// Schedule events captured.
        pub events: u64,
        /// Schedule hash of the recorded run.
        pub schedule_hash: u64,
        /// Output hash of the recorded run.
        pub output_hash: u64,
        /// Whether the recorded run's output matched the sequential
        /// reference.
        pub validated: bool,
        /// Container size on disk, in bytes.
        pub bytes: u64,
    }
}

/// The result of replaying one container.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// The container replayed.
    pub path: String,
    /// Workload the trace names.
    pub workload: String,
    /// Runtime the trace names.
    pub runtime: String,
    /// Schedule events in the recording.
    pub recorded_events: u64,
    /// Schedule events the re-execution produced.
    pub replayed_events: u64,
    /// Recorded schedule hash.
    pub recorded_hash: u64,
    /// Re-executed schedule hash.
    pub replayed_hash: u64,
    /// Cumulative-hash checkpoints that matched.
    pub checkpoints_passed: u64,
    /// Checkpoints in the recording.
    pub checkpoints_total: u64,
    /// Output hash in the recording's META (0: a salvaged partial, whose
    /// finish-time digests were never written).
    pub recorded_output_hash: u64,
    /// Output hash of the re-execution.
    pub replayed_output_hash: u64,
    /// Commit-log hash in the recording's META (0 as above).
    pub recorded_commit_log_hash: u64,
    /// Commit-log hash of the re-execution.
    pub replayed_commit_log_hash: u64,
    /// Whether the re-executed output hash matched the recording.
    pub output_match: bool,
    /// Whether the re-executed commit-log hash matched the recording.
    pub commit_log_match: bool,
    /// First-divergent-event diagnosis, `None` when the schedule tracked
    /// the recording exactly.
    pub divergence: Option<String>,
    /// Whether the recording was a salvaged partial trace (a crashed or
    /// torn container recovered by `Trace::salvage`).
    pub partial: bool,
    /// Partial replays: live event index at which the recovered prefix
    /// ran out (`None` when the live run ended at the prefix boundary,
    /// or for full traces).
    pub exhausted_at: Option<u64>,
    /// Partial replays: live schedule hash at the prefix boundary — must
    /// equal `recorded_hash` for bit-identical prefix reproduction.
    pub prefix_hash: Option<u64>,
    /// Partial replays: file bytes past the tear the salvage gave up on
    /// (0 for full traces).
    pub bytes_lost: u64,
}

impl Replayed {
    /// Whether the replay reproduced the recording completely. Full
    /// traces: identical schedule (length, every event, every checkpoint,
    /// final hash), identical output, identical commit log. Salvaged
    /// partials: the recovered prefix replayed bit-identically (no
    /// divergence inside it, prefix hash equal, every checkpoint passed,
    /// live run at least as long); output/commit digests are compared
    /// only when the recording carries them.
    pub fn ok(&self) -> bool {
        self.schedule_ok() && self.checkpoints_ok() && self.output_match && self.commit_log_match
    }

    fn schedule_ok(&self) -> bool {
        self.divergence.is_none()
            && if self.partial {
                self.replayed_events >= self.recorded_events
                    && self.prefix_hash == Some(self.recorded_hash)
            } else {
                self.recorded_events == self.replayed_events
                    && self.recorded_hash == self.replayed_hash
            }
    }

    fn checkpoints_ok(&self) -> bool {
        self.checkpoints_passed == self.checkpoints_total
    }

    /// What the replay found, in words: `reproduced`, or every component
    /// of [`ok`](Replayed::ok) that failed with the recorded and the
    /// replayed value, then the components that held, then the
    /// first-divergent-event diagnosis if there is one. A replay whose
    /// schedule reproduced but whose commit log (or output) did not has
    /// no diagnosis to print; this is what says so.
    pub fn verdict(&self) -> String {
        let mut failed = Vec::new();
        let mut held = Vec::new();
        if self.schedule_ok() {
            held.push("schedule");
        } else if self.divergence.is_some() {
            failed.push("schedule diverged (diagnosis below)".to_string());
        } else {
            failed.push(format!(
                "schedule differs: recorded {} events hash {:#018x}, replayed {} events hash {:#018x}",
                self.recorded_events,
                self.recorded_hash,
                self.replayed_events,
                self.prefix_hash.unwrap_or(self.replayed_hash),
            ));
        }
        if self.checkpoints_ok() {
            held.push("checkpoints");
        } else {
            failed.push(format!(
                "checkpoints differ: {} of {} reproduced",
                self.checkpoints_passed, self.checkpoints_total
            ));
        }
        for (name, ok, recorded, replayed) in [
            (
                "output",
                self.output_match,
                self.recorded_output_hash,
                self.replayed_output_hash,
            ),
            (
                "commit-log",
                self.commit_log_match,
                self.recorded_commit_log_hash,
                self.replayed_commit_log_hash,
            ),
        ] {
            if ok {
                held.push(name);
            } else {
                failed.push(format!(
                    "{name} digest differs: recorded {recorded:#018x}, replayed {replayed:#018x}"
                ));
            }
        }
        if failed.is_empty() {
            return "reproduced".to_string();
        }
        let mut v = failed.join("; ");
        if let Some((last, rest)) = held.split_last() {
            let list = if rest.is_empty() {
                last.to_string()
            } else {
                format!("{} and {last}", rest.join(", "))
            };
            v.push_str(&format!("; {list} reproduced"));
        }
        if let Some(d) = &self.divergence {
            v.push('\n');
            v.push_str(d);
        }
        v
    }
}

/// The write-ahead identity record for a recording about to start: the
/// run's full identity with the not-yet-known digests zeroed, and the
/// perturber's injected-panic triple (if any) stamped in so a salvaged
/// crashed run carries its own reproducer.
#[allow(clippy::too_many_arguments)] // mirrors TraceMeta's identity fields one-for-one
pub fn ident_meta(
    runtime: &str,
    workload: &str,
    threads: usize,
    scale: u32,
    input_seed: u64,
    heap_pages: usize,
    max_threads: usize,
    options_fingerprint: u64,
    perturb: &PerturbHandle,
) -> TraceMeta {
    let (panic_site, panic_victim, panic_nth) = perturb
        .panic_triple()
        .map_or((0, 0, 0), |(s, t, n)| (s.code(), t.0 as u64, n));
    TraceMeta {
        runtime: runtime.to_string(),
        workload: workload.to_string(),
        threads: threads as u64,
        scale: scale as u64,
        input_seed,
        heap_pages: heap_pages as u64,
        max_threads: max_threads as u64,
        options_fingerprint,
        perturb_seed: perturb.seed(),
        perturb_plan: perturb.plan_digest(),
        event_count: 0,   // stamped by the writer at finish
        schedule_hash: 0, // stamped by the writer at finish
        commit_log_hash: 0,
        output_hash: 0,
        checkpoint_interval: 0, // stamped by the writer at finish
        panic_site,
        panic_victim,
        panic_nth,
    }
}

/// [`ident_meta`] for `cell`, about to record under the Consequence preset
/// labelled `runtime` whose options fingerprint is `fingerprint`.
pub fn cell_ident(runtime: &str, cell: &Cell, fingerprint: u64) -> TraceMeta {
    ident_meta(
        runtime,
        cell.workload.name(),
        cell.params.threads,
        cell.params.scale,
        cell.params.seed,
        cell.heap_pages(),
        cell.max_threads,
        fingerprint,
        &cell.perturb,
    )
}

/// Records one workload × runtime cell into `dir`, naming the file
/// `<workload>-<runtime>-t<threads>-s<scale>.dmtrace`, and re-validates
/// the written container before returning. Recording is **crash-durable**:
/// a write-ahead identity record goes in at file start and the container
/// is flushed every `Options::trace_flush_pages` pages, so a run killed
/// mid-recording leaves a salvageable trace (`Trace::salvage`).
pub fn record_to(
    dir: &Path,
    runtime: &str,
    workload: &str,
    threads: usize,
    scale: u32,
    input_seed: u64,
) -> Result<Recorded, String> {
    let opts = options_for_label(runtime)
        .ok_or_else(|| format!("cannot record runtime {runtime:?}: not a Consequence preset"))?;
    let w = workload_by_name(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-{runtime}-t{threads}-s{scale}.dmtrace"));

    let flush_pages = opts.trace_flush_pages;
    let fingerprint = opts.fingerprint();
    let mut cell = Cell::of(w, Params::new(threads, scale, input_seed), opts);
    let ident = cell_ident(runtime, &cell, fingerprint);
    let sink = Arc::new(
        DiskSink::create_durable(&path, &ident, flush_pages)
            .map_err(|e| format!("create {}: {e}", path.display()))?,
    );
    cell.sink = Sink::To(Arc::clone(&sink) as _);
    let run = cell.run();

    let meta = TraceMeta {
        commit_log_hash: run.report.commit_log_hash,
        output_hash: run.validation.output_hash,
        ..ident
    };
    let meta = sink
        .finish(meta)
        .map_err(|e| format!("finish {}: {e}", path.display()))?;
    // Immediate round-trip: a container we cannot re-open is useless.
    Trace::open(&path).map_err(|e| format!("re-validate {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    Ok(Recorded {
        path: path.display().to_string(),
        events: meta.event_count,
        schedule_hash: meta.schedule_hash,
        output_hash: run.validation.output_hash,
        validated: run.validation.matches_reference,
        bytes,
    })
}

/// Records every `workloads` × `runtimes` cell into `dir` with
/// [`record_to`], printing one line per container; runtimes that are not
/// Consequence presets have no grant script to record and are skipped.
/// Returns the recordings and whether every one was written and validated
/// (false when nothing was recordable).
pub fn record_all(
    dir: &Path,
    runtimes: &[&str],
    workloads: &[String],
    threads: usize,
    scale: u32,
    input_seed: u64,
) -> (Vec<Recorded>, bool) {
    let mut recorded = Vec::new();
    let runtimes = runtimes.iter().filter(|l| options_for_label(l).is_some());
    let mut ok = runtimes.clone().next().is_some();
    if !ok {
        eprintln!("no recordable runtime selected (labels: consequence-ic, consequence-rr, dwc)");
    }
    for name in workloads {
        for label in runtimes.clone() {
            match record_to(dir, label, name, threads, scale, input_seed) {
                Ok(r) => {
                    println!(
                        "[{}] {name} {label}: {} events, hash {:#018x}, {} bytes -> {}",
                        if r.validated { "ok" } else { "INVALID" },
                        r.events,
                        r.schedule_hash,
                        r.bytes,
                        r.path
                    );
                    ok &= r.validated;
                    recorded.push(r);
                }
                Err(e) => {
                    println!("[FAILED] {name} {label}: {e}");
                    ok = false;
                }
            }
        }
    }
    (recorded, ok)
}

/// Replays one container file: re-stages the workload the trace names,
/// re-executes it under the recorded grant script, and compares schedule,
/// output and commit log against the recording.
///
/// Containers that fail to open because they are torn — killed
/// mid-recording, truncated, or checksum-broken — are transparently
/// salvaged with [`Trace::salvage`] and replayed as partial traces: the
/// recovered prefix must reproduce bit-identically, and the live run
/// continuing past the recording's end is reported as clean exhaustion,
/// not divergence. Unsalvageable files (bad magic, wrong version, I/O
/// errors) still fail with the original open error.
pub fn replay_file(path: &Path) -> Result<Replayed, String> {
    let (trace, loss) = match Trace::open(path) {
        Ok(t) => (t, None),
        Err(
            e @ (TraceError::Truncated { .. }
            | TraceError::ChecksumMismatch { .. }
            | TraceError::Corrupt { .. }),
        ) => {
            // A torn container: salvage the durable prefix. Keep the
            // original open error if salvage cannot help either.
            let partial = Trace::salvage(path)
                .map_err(|s| format!("open {}: {e} (salvage failed: {s})", path.display()))?;
            if partial.trace.meta.event_count == 0 {
                return Err(format!(
                    "open {}: {e} (salvage recovered no complete events — nothing to replay)",
                    path.display()
                ));
            }
            if partial
                .trace
                .meta
                .runtime
                .starts_with(dmt_shard::record::SHARDED_LABEL_PREFIX)
            {
                return Err(format!(
                    "open {}: {e} (salvaged a sharded container; partial replay of sharded \
                     traces is unsupported)",
                    path.display()
                ));
            }
            let loss = partial.loss;
            (partial.trace, Some(loss))
        }
        Err(e) => return Err(format!("open {}: {e}", path.display())),
    };
    if trace
        .meta
        .runtime
        .starts_with(dmt_shard::record::SHARDED_LABEL_PREFIX)
    {
        // Sharded containers have no single grant script; they are
        // verified by deterministic re-execution (see dmt_shard::record).
        let r = dmt_shard::record::verify_against(&trace, path)?;
        return Ok(Replayed {
            path: r.path,
            workload: trace.meta.workload.clone(),
            runtime: trace.meta.runtime.clone(),
            recorded_events: r.recorded_events,
            replayed_events: r.replayed_events,
            recorded_hash: r.recorded_hash,
            replayed_hash: r.replayed_hash,
            checkpoints_passed: r.checkpoints_passed,
            checkpoints_total: r.checkpoints_total,
            recorded_output_hash: trace.meta.output_hash,
            replayed_output_hash: r.replayed_output_hash,
            recorded_commit_log_hash: trace.meta.commit_log_hash,
            replayed_commit_log_hash: r.replayed_commit_log_hash,
            output_match: r.output_match,
            commit_log_match: r.commit_log_match,
            divergence: r.divergence,
            partial: false,
            exhausted_at: None,
            prefix_hash: None,
            bytes_lost: 0,
        });
    }
    let w = workload_by_name(&trace.meta.workload)
        .ok_or_else(|| format!("trace names unknown workload {:?}", trace.meta.workload))?;
    let p = Params::new(
        trace.meta.threads as usize,
        trace.meta.scale as u32,
        trace.meta.input_seed,
    );
    let (mut rt, monitor) = match &loss {
        Some(l) => {
            let partial = PartialTrace {
                trace: trace.clone(),
                loss: *l,
            };
            ConsequenceRuntime::new_replaying_partial(&partial)
        }
        None => ConsequenceRuntime::new_replaying(&trace),
    }
    .map_err(|e| format!("replay {}: {e}", path.display()))?;
    let prepared = w.prepare(&mut rt, &p);
    let mut report = rt.run(prepared.job);
    let v: Validation = (prepared.validate)(&rt);
    let outcome = monitor.finish(&mut report);
    // Salvaged partials lost the finish-time digests: META carries the
    // write-ahead identity record, whose output/commit hashes are zero.
    // Compare only digests the recording actually has.
    let output_match = trace.meta.output_hash == 0 || v.output_hash == trace.meta.output_hash;
    let commit_log_match =
        trace.meta.commit_log_hash == 0 || report.commit_log_hash == trace.meta.commit_log_hash;
    Ok(Replayed {
        path: path.display().to_string(),
        workload: trace.meta.workload.clone(),
        runtime: trace.meta.runtime.clone(),
        recorded_events: outcome.recorded_events,
        replayed_events: outcome.replayed_events,
        recorded_hash: outcome.recorded_hash,
        replayed_hash: outcome.replayed_hash,
        checkpoints_passed: outcome.checkpoints_passed,
        checkpoints_total: outcome.checkpoints_total,
        recorded_output_hash: trace.meta.output_hash,
        replayed_output_hash: v.output_hash,
        recorded_commit_log_hash: trace.meta.commit_log_hash,
        replayed_commit_log_hash: report.commit_log_hash,
        output_match,
        commit_log_match,
        divergence: outcome.divergence,
        partial: outcome.partial,
        exhausted_at: outcome.exhausted_at,
        prefix_hash: outcome.prefix_hash,
        bytes_lost: loss.map_or(0, |l| l.bytes_lost),
    })
}

/// Expands `path` into the containers to replay: the file itself, or
/// every `*.dmtrace` directly inside it (sorted by name) when it is a
/// directory.
pub fn trace_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "dmtrace"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no .dmtrace files in {}", path.display()));
        }
        Ok(files)
    } else if path.exists() {
        Ok(vec![path.to_path_buf()])
    } else {
        Err(format!("{}: no such file or directory", path.display()))
    }
}

/// Replays every container under `paths` (files or directories), printing
/// one summary line per trace and, for any that did not reproduce, its
/// [`Replayed::verdict`]. Returns the results and whether all reproduced.
pub fn replay_all(paths: &[&str]) -> (Vec<Replayed>, bool) {
    let mut results = Vec::new();
    let mut ok = true;
    for p in paths {
        let files = trace_files(Path::new(p)).unwrap_or_else(|e| {
            eprintln!("{e}");
            ok = false;
            Vec::new()
        });
        for f in files {
            match replay_file(&f) {
                Ok(r) => {
                    println!("{}", summarize(&r));
                    if !r.ok() {
                        println!("  {}", r.verdict());
                    }
                    ok &= r.ok();
                    results.push(r);
                }
                Err(e) => {
                    println!("[FAILED] {}: {e}", f.display());
                    ok = false;
                }
            }
        }
    }
    (results, ok)
}

/// One-line human rendering of a replay result.
pub fn summarize(r: &Replayed) -> String {
    let verdict = if r.ok() { "OK" } else { "DIVERGED" };
    let salvage = if r.partial {
        format!(
            " [salvaged prefix, {} bytes lost, prefix hash {}]",
            r.bytes_lost,
            r.prefix_hash
                .map_or_else(|| "unreached".to_string(), |h| format!("{h:#018x}")),
        )
    } else {
        String::new()
    };
    format!(
        "[{verdict}] {} {} {}: events {}/{} hash {:#018x}/{:#018x} checkpoints {}/{} output={} commits={}{salvage}",
        r.workload,
        r.runtime,
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
