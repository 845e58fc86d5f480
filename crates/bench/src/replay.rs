//! Record/replay drivers for `stress --record/--replay` and the
//! replay-corpus test.
//!
//! Recording runs a [`Cell`] under a Consequence preset with a
//! [`DiskSink`] attached, stamps the run's identity and digests into the
//! trace META stream, and re-validates the written container immediately.
//! Replaying rebuilds the cell a container's META names
//! ([`recorded_cell`], the inverse of [`cell_ident`]), runs it again with a
//! [`ReplaySink`] attached and checks schedule hash, output hash and
//! commit-log hash against the recording. See `docs/REPLAY.md`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use consequence::{options_for_label, Options};
use dmt_api::{FixedPanic, PanicSite, PerturbHandle, PerturbPlan, PlanPerturber, Tid};
use dmt_shard::record::SHARDED_LABEL_PREFIX;
use dmt_trace::{DiskSink, ReplaySink, Replayed, Trace, TraceError, TraceMeta};
use dmt_workloads::{workload_by_name, Params};

use crate::cell::{Cell, CellRun, Sink};

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

/// The cell a recording's META names, rebuilt — the inverse of
/// [`cell_ident`]: the preset its runtime label names, checked against the
/// options fingerprint; the workload and its input; `max_threads`; and the
/// perturbation it ran under. Everything else is [`Cell::of`]'s default,
/// as when recording. Refused when the workload sizes its heap other than
/// the recording says.
pub fn recorded_cell(meta: &TraceMeta) -> Result<Cell, String> {
    let opts = options_for_label(&meta.runtime).ok_or_else(|| {
        format!(
            "cannot replay runtime {:?}: not a Consequence preset",
            meta.runtime
        )
    })?;
    Options::check_fingerprint(meta.options_fingerprint, opts.fingerprint())?;
    let w = workload_by_name(&meta.workload)
        .ok_or_else(|| format!("trace names unknown workload {:?}", meta.workload))?;
    let params = Params::new(meta.threads as usize, meta.scale as u32, meta.input_seed);
    let cell = Cell {
        perturb: reconstruct_perturb(meta)?,
        max_threads: meta.max_threads as usize,
        ..Cell::of(w, params, opts)
    };
    let pages = cell.heap_pages() as u64;
    if pages != meta.heap_pages {
        return Err(format!(
            "heap size mismatch: recorded {} pages, the workload sizes {pages}",
            meta.heap_pages
        ));
    }
    Ok(cell)
}

/// The perturbation a recording ran under: off, or the full-strength plan
/// its seed rebuilds — a shrunk plan cannot be rebuilt and is refused —
/// then, when META carries an injected-panic triple, wrapped in a
/// [`FixedPanic`] so the replay dies the death the recording died of.
fn reconstruct_perturb(meta: &TraceMeta) -> Result<PerturbHandle, String> {
    let timing = if meta.perturb_seed == 0 && meta.perturb_plan == 0 {
        PerturbHandle::off()
    } else {
        let plan = PerturbPlan::full(meta.perturb_seed);
        if plan.digest() != meta.perturb_plan {
            return Err(format!(
                "irreproducible perturbation plan (seed {:#x}, digest {:#x}): only \
                 unperturbed and full-strength plans replay",
                meta.perturb_seed, meta.perturb_plan
            ));
        }
        PerturbHandle::to(Arc::new(PlanPerturber::new(plan)))
    };
    if meta.panic_site == 0 {
        return Ok(timing);
    }
    let site = PanicSite::from_code(meta.panic_site)
        .ok_or_else(|| format!("unknown panic site code {}", meta.panic_site))?;
    let victim = u32::try_from(meta.panic_victim)
        .map(Tid)
        .map_err(|_| format!("panic victim {} is not a thread id", meta.panic_victim))?;
    Ok(PerturbHandle::to(Arc::new(FixedPanic {
        site,
        victim,
        nth: meta.panic_nth,
        inner: timing,
    })))
}

/// Replays `trace`: runs its [`recorded_cell`] with `sink` (built on
/// `trace`) attached, and returns the sink's verdict with the run's output
/// and commit-log digests added ([`Replayed::digests`]), and the run.
pub fn replay(trace: &Trace, sink: ReplaySink) -> Result<(Replayed, CellRun), String> {
    let mut cell = recorded_cell(&trace.meta)?;
    let sink = Arc::new(sink);
    cell.sink = Sink::To(Arc::clone(&sink) as _);
    let run = cell.run();
    let mut r = sink.finish();
    r.digests(run.validation.output_hash, run.report.commit_log_hash);
    Ok((r, run))
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
/// Consequence presets cannot be rebuilt from a label and are skipped.
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
/// re-executes it under the runtime the trace names, and compares
/// schedule, output and commit log against the recording.
///
/// Containers that fail to open because they are torn — killed
/// mid-recording, truncated, or checksum-broken — are transparently
/// salvaged with [`Trace::salvage`] and replayed as partial traces: the
/// recovered prefix must reproduce bit-identically, and the live run
/// continuing past the recording's end is reported as clean exhaustion,
/// not divergence. Unsalvageable files (bad magic, wrong version, I/O
/// errors) still fail with the original open error.
pub fn replay_file(path: &Path) -> Result<Replayed, String> {
    let (sink, trace) = match Trace::open(path) {
        Ok(t) => (ReplaySink::new(&t), t),
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
            if partial.trace.meta.runtime.starts_with(SHARDED_LABEL_PREFIX) {
                return Err(format!(
                    "open {}: {e} (salvaged a sharded container; partial replay of sharded \
                     traces is unsupported)",
                    path.display()
                ));
            }
            (ReplaySink::new_partial(&partial), partial.trace)
        }
        Err(e) => return Err(format!("open {}: {e}", path.display())),
    };
    let mut r = if trace.meta.runtime.starts_with(SHARDED_LABEL_PREFIX) {
        // A sharded container names a server, not a workload (see
        // dmt_shard::record).
        dmt_shard::record::verify_against(&trace)?
    } else {
        replay(&trace, sink)
            .map_err(|e| format!("replay {}: {e}", path.display()))?
            .0
    };
    r.path = path.display().to_string();
    Ok(r)
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
                    println!("{}", r.summarize());
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
