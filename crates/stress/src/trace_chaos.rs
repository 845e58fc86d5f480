//! `stress --trace-chaos`: crash-durable recording under injected
//! failure.
//!
//! The durability claim (see `docs/TRACE_FORMAT.md`, "Durability &
//! salvage") is that a recording killed at *any* point — process death,
//! injected panic, short write, ENOSPC, a torn tail the medium lied
//! about — leaves a `.dmtrace` container whose durable prefix
//! [`Trace::salvage`] recovers, and that replaying the salvaged prefix
//! reproduces the recorded schedule bit-identically up to the tear. A
//! failed run is exactly as reproducible as a healthy one, up to the
//! last event that reached storage.
//!
//! This mode attacks that claim the way the main fuzzer attacks the
//! timing claim, with four scenarios per seed:
//!
//! 1. **Simulated crash** — record with a durable sink, drop it without
//!    `finish`, salvage, replay twice: the prefix must replay without
//!    divergence (clean exhaustion, not a mismatch) and both replays
//!    must agree on the prefix hash and exhaustion coordinates.
//! 2. **Injected panic** — a [`dmt_api::FixedPanic`] kills one seeded victim
//!    mid-run, the recording is torn after the contained death;
//!    salvage + two replays must reproduce the same schedule prefix
//!    (the contained panic is part of the schedule, so agreement on the
//!    prefix hash is agreement on the fault).
//! 3. **I/O faults** — the sink writes through a seeded [`FaultyMedia`]
//!    (one cell per [`IoFaultKind`]); erroring media must surface as a
//!    degraded recording in `RunReport::fault` while the run itself
//!    completes, and the bytes that did land must salvage and replay.
//! 4. **Real SIGKILL** — the harness re-executes itself
//!    (`--chaos-child`) recording in a loop, kills the child with
//!    SIGKILL mid-recording, then salvages and replays whatever hit the
//!    disk.
//!
//! Exit is nonzero if any salvage fails where one is owed, or any
//! salvaged prefix fails to reproduce.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use consequence::options_for_label;
use dmt_api::{IoFaultKind, IoFaultPlan, PerturbHandle};
use dmt_bench::cell::{Cell, CellRun, Sink};
use dmt_bench::replay::{cell_ident, replay_file, trace_files};
use dmt_trace::{DiskSink, Trace, TraceMedia, TraceMeta};
use dmt_workloads::Params;

use crate::panic_inject::PanicInjector;
use crate::report::{yes_no, Col, NoExtra, Notes, Report, Table};
use crate::{mix64, StressConfig};

/// Storage that fails on a seeded plan, for drilling the salvage path.
///
/// Wraps a real file so the bytes that "survive" the fault are on disk
/// for [`Trace::salvage`]. The three kinds model distinct media
/// betrayals:
///
/// - [`IoFaultKind::ShortWrite`]: writes past the trigger offset are
///   truncated at the boundary; once nothing more fits, writes return
///   `Ok(0)` and the writer's `write_all` surfaces `WriteZero`.
/// - [`IoFaultKind::NoSpace`]: the first write crossing the trigger
///   errors with `StorageFull`, like a full disk.
/// - [`IoFaultKind::TornTail`]: writes past the trigger *claim* success
///   but the bytes never land — the writer finishes happily and the
///   betrayal only shows when digests are checked at open.
pub struct FaultyMedia {
    inner: File,
    pos: u64,
    kind: IoFaultKind,
    at_byte: u64,
}

impl FaultyMedia {
    /// Opens `path` (truncating) as faulty storage failing per `plan`.
    ///
    /// The trigger offset is floored at 2 KiB so the header and
    /// write-ahead identity record always land: chaos drills salvage of
    /// the *schedule*; a container whose anchor never reached storage is
    /// unsalvageable by design (the truncation fuzz covers that).
    pub fn create(path: &Path, plan: IoFaultPlan) -> io::Result<FaultyMedia> {
        Ok(FaultyMedia {
            inner: File::create(path)?,
            pos: 0,
            kind: plan.kind,
            at_byte: plan.at_byte.max(2048),
        })
    }
}

impl Write for FaultyMedia {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let end = self.pos + buf.len() as u64;
        if end <= self.at_byte {
            let n = self.inner.write(buf)?;
            self.pos += n as u64;
            return Ok(n);
        }
        match self.kind {
            IoFaultKind::ShortWrite => {
                // Absorb what still fits; at the boundary return Ok(0),
                // which write_all turns into WriteZero.
                let fit = (self.at_byte.saturating_sub(self.pos)) as usize;
                if fit == 0 {
                    return Ok(0);
                }
                let n = self.inner.write(&buf[..fit])?;
                self.pos += n as u64;
                Ok(n)
            }
            IoFaultKind::NoSpace => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            )),
            IoFaultKind::TornTail => {
                // Lie: persist what fits, claim it all landed.
                let fit = (self.at_byte.saturating_sub(self.pos)) as usize;
                if fit > 0 {
                    self.inner.write_all(&buf[..fit])?;
                }
                self.pos = end;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for FaultyMedia {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let p = self.inner.seek(pos)?;
        self.pos = p;
        Ok(p)
    }
}

impl TraceMedia for FaultyMedia {}

dmt_bench::json_record! {
    /// One chaos scenario outcome.
    #[derive(Clone, Debug)]
    pub struct ChaosCell {
        /// Scenario name: `crash`, `panic`, `io-short-write`, `io-no-space`,
        /// `io-torn-tail`, `sigkill`.
        pub scenario: String,
        pub workload: String,
        pub seed: u64,
        /// Events the salvage recovered from the torn container.
        pub salvaged_events: u64,
        /// Bytes past the tear the salvage gave up on.
        pub bytes_lost: u64,
        /// The fault as observed (injected description or `RunReport::fault`).
        pub fault: String,
        /// The torn container salvaged where a salvage was owed.
        pub salvaged: bool,
        /// Every replay of the salvaged prefix reproduced it (no divergence,
        /// prefix hash equal, clean exhaustion).
        pub reproduced: bool,
        /// Two independent replays agreed with each other on the prefix
        /// hash, replayed hash and exhaustion coordinates.
        pub deterministic: bool,
    }
}

/// The full `--trace-chaos` result; `seeds` counts chaos rounds.
pub type TraceChaosReport = Report<ChaosCell>;

impl Table for ChaosCell {
    const COLS: &'static [Col<Self>] = &[
        ("scenario", -16, |c| c.scenario.clone()),
        ("workload", -12, |c| c.workload.clone()),
        ("salvaged", 10, |c| yes_no(c.salvaged)),
        ("events", 12, |c| c.salvaged_events.to_string()),
        ("lost", 10, |c| c.bytes_lost.to_string()),
        ("reproduced", 12, |c| yes_no(c.reproduced)),
        ("deterministic", 14, |c| yes_no(c.deterministic)),
    ];

    fn ok(&self) -> bool {
        self.salvaged && self.reproduced && self.deterministic
    }
}

impl Notes for TraceChaosReport {
    /// What went wrong in each cell that did not hold.
    fn notes(&self) -> Vec<String> {
        let failed = self.cells.iter().filter(|c| !c.ok());
        failed
            .map(|c| {
                format!(
                    "UNREPRODUCED [{}] seed {:#x}: {}",
                    c.scenario, c.seed, c.fault
                )
            })
            .collect()
    }
}

struct TmpDir(PathBuf);
impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
fn tmpdir(tag: &str) -> TmpDir {
    let d = std::env::temp_dir().join(format!("dmt-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create chaos tmpdir");
    TmpDir(d)
}

/// The chaos recording cell: reverse_index under Consequence-IC. Chosen
/// for trace volume — ~83 event pages (~190 KiB) at 2 threads, scale 1 —
/// so every seeded fault offset (up to 48 KiB) lands mid-stream and a
/// salvage genuinely loses a tail.
const CHAOS_RUNTIME: &str = "consequence-ic";
const CHAOS_WORKLOAD: &str = "reverse_index";

/// The chaos cell on `cfg`'s geometry with input `seed`, and the
/// write-ahead identity record it records under.
fn chaos_cell(cfg: &StressConfig, seed: u64, perturb: PerturbHandle) -> (Cell, TraceMeta) {
    let opts = options_for_label(CHAOS_RUNTIME).expect("chaos runtime is a preset");
    let fingerprint = opts.fingerprint();
    let cell = Cell {
        perturb,
        ..Cell::new(
            CHAOS_WORKLOAD,
            Params::new(cfg.threads, cfg.scale, seed),
            opts,
        )
    };
    let ident = cell_ident(CHAOS_RUNTIME, &cell, fingerprint);
    (cell, ident)
}

/// Runs the chaos cell recording into `path` at flush cadence 1 — through
/// [`FaultyMedia`] failing on `media` when given, a durable file otherwise.
/// Returns the run, the still-unfinished sink and the identity record.
fn record(
    cfg: &StressConfig,
    seed: u64,
    perturb: PerturbHandle,
    path: &Path,
    media: Option<IoFaultPlan>,
) -> (CellRun, Arc<DiskSink>, TraceMeta) {
    let (cell, ident) = chaos_cell(cfg, seed, perturb);
    let sink = match media {
        Some(plan) => {
            let media = FaultyMedia::create(path, plan).expect("create faulty media");
            DiskSink::create_on(Box::new(media), Some(&ident), 1)
        }
        None => DiskSink::create_durable(path, &ident, 1),
    };
    let sink = Arc::new(sink.expect("create chaos sink"));
    let cell = Cell {
        sink: Sink::To(Arc::clone(&sink) as _),
        ..cell
    };
    (cell.run(), sink, ident)
}

/// [`record`]s without ever calling `finish` — the recording equivalent of
/// dying. Returns the run's fault string, if the sink degraded it.
fn record_torn(
    cfg: &StressConfig,
    seed: u64,
    perturb: PerturbHandle,
    path: &Path,
    media: Option<IoFaultPlan>,
) -> Option<String> {
    let (run, sink, _) = record(cfg, seed, perturb, path, media);
    // Crash-consistency point: everything recorded so far reaches the OS
    // (ignore errors — faulty media may refuse), then the sink is dropped
    // without finish, leaving the container torn.
    let _ = sink.seal_and_flush();
    run.report.fault
}

/// Replays `path` twice: whether both reproduced the recording, and
/// whether they agree with each other on the prefix hash, replayed hash
/// and exhaustion coordinates.
fn replay_twice(path: &Path, total_runs: &mut u64) -> (bool, bool) {
    *total_runs += 2;
    match (replay_file(path), replay_file(path)) {
        (Ok(a), Ok(b)) => (
            a.ok() && b.ok(),
            a.prefix_hash == b.prefix_hash
                && a.replayed_hash == b.replayed_hash
                && a.exhausted_at == b.exhausted_at
                && a.replayed_events == b.replayed_events,
        ),
        _ => (false, false),
    }
}

/// Salvages the torn recording at `path` and replays it twice, folding the
/// outcome (and the recording run itself) into a cell.
fn salvage_and_replay(
    scenario: &str,
    seed: u64,
    fault: String,
    path: &Path,
    total_runs: &mut u64,
) -> ChaosCell {
    *total_runs += 1;
    let (salvaged, salvaged_events, bytes_lost) = match Trace::salvage(path) {
        Ok(p) => (true, p.trace.meta.event_count, p.loss.bytes_lost),
        Err(_) => (false, 0, 0),
    };
    let (reproduced, deterministic) = if salvaged && salvaged_events > 0 {
        replay_twice(path, total_runs)
    } else {
        // Nothing recoverable to replay: reproduction is vacuous, but
        // the salvage verdict still gates the cell.
        (salvaged, salvaged)
    };
    ChaosCell {
        scenario: scenario.to_string(),
        workload: CHAOS_WORKLOAD.to_string(),
        seed,
        salvaged_events,
        bytes_lost,
        fault,
        salvaged,
        reproduced,
        deterministic,
    }
}

/// Scenario 1: durable recording dropped without `finish`.
fn crash_cell(dir: &Path, cfg: &StressConfig, seed: u64, total_runs: &mut u64) -> ChaosCell {
    let path = dir.join(format!("crash-{seed}.dmtrace"));
    let fault = record_torn(cfg, seed, PerturbHandle::off(), &path, None)
        .unwrap_or_else(|| "simulated crash: sink dropped without finish".into());
    salvage_and_replay("crash", seed, fault, &path, total_runs)
}

/// Scenario 2: a seeded [`dmt_api::FixedPanic`] kills one victim mid-run; the
/// recording of the panicked run is then torn. The salvaged prefix
/// contains the contained death, so two agreeing replays reproduce the
/// failure at its fault point.
fn panic_cell(dir: &Path, cfg: &StressConfig, seed: u64, total_runs: &mut u64) -> ChaosCell {
    let path = dir.join(format!("panic-{seed}.dmtrace"));
    let inj = PanicInjector::from_seed(seed, cfg.threads);
    let PanicInjector { site, victim, nth } = inj;
    let fault = record_torn(cfg, seed, inj.handle(), &path, None).unwrap_or_else(|| {
        format!(
            "injected panic: {} victim {} nth {nth}",
            site.name(),
            victim.0
        )
    });
    salvage_and_replay("panic", seed, fault, &path, total_runs)
}

/// Scenario 3: the sink writes through seeded [`FaultyMedia`]. Erroring
/// kinds must degrade (not kill) the run — `RunReport::fault` names the
/// write failure — and the surviving bytes must salvage and replay.
fn io_fault_cell(
    dir: &Path,
    cfg: &StressConfig,
    seed: u64,
    kind: IoFaultKind,
    total_runs: &mut u64,
) -> ChaosCell {
    let path = dir.join(format!("io-{kind}-{seed}.dmtrace"));
    let plan = IoFaultPlan {
        kind,
        ..IoFaultPlan::from_seed(seed)
    };
    let fault = record_torn(cfg, seed, PerturbHandle::off(), &path, Some(plan));
    let degraded = fault
        .as_ref()
        .is_some_and(|f| f.contains("degraded recording"));
    let fault = fault.unwrap_or_else(|| format!("injected {plan} (run not degraded)"));
    let mut cell = salvage_and_replay(&format!("io-{kind}"), seed, fault, &path, total_runs);
    // Erroring media must have surfaced as a degraded recording — a
    // silently lost trace is its own failure (torn tails are silent by
    // construction; their betrayal is caught at salvage instead).
    if kind != IoFaultKind::TornTail && !degraded {
        cell.reproduced = false;
        cell.fault = format!("{} — but RunReport::fault never surfaced it", cell.fault);
    }
    cell
}

/// Scenario 4: a real `SIGKILL` of a recording child process.
///
/// Spawns the current executable with `--chaos-child DIR` (see
/// [`run_chaos_child`]), waits for a container to start growing on
/// disk, kills the child outright, then salvages and replays what
/// landed. Finished containers from earlier loop iterations replay as
/// full traces; the torn last one exercises the salvage path. Files too
/// young to carry the write-ahead anchor (the kill raced the first
/// flush) are skipped — durability starts at the anchor.
fn sigkill_cell(cfg: &StressConfig, seed: u64, total_runs: &mut u64) -> ChaosCell {
    let dir = tmpdir(&format!("sigkill-{seed}"));
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            return ChaosCell {
                scenario: "sigkill".into(),
                workload: CHAOS_WORKLOAD.into(),
                seed,
                salvaged_events: 0,
                bytes_lost: 0,
                fault: format!("current_exe: {e}"),
                salvaged: false,
                reproduced: false,
                deterministic: false,
            }
        }
    };
    let mut child = std::process::Command::new(exe)
        .arg("--chaos-child")
        .arg(&dir.0)
        .arg("--threads")
        .arg(cfg.threads.to_string())
        .arg("--scale")
        .arg(cfg.scale.to_string())
        .arg("--base-seed")
        .arg(seed.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn chaos child");
    // Kill once some recording visibly grew past its identity anchor.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let grown = std::fs::read_dir(&dir.0)
            .ok()
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok())
            .any(|e| e.metadata().is_ok_and(|m| m.len() > 4096));
        if grown || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();
    *total_runs += 1;

    let files = trace_files(&dir.0).unwrap_or_default();
    let mut salvaged_events = 0u64;
    let mut bytes_lost = 0u64;
    let mut owed = 0u64;
    let mut salvaged_ok = 0u64;
    let mut reproduced = true;
    let mut deterministic = true;
    for f in &files {
        let len = std::fs::metadata(f).map(|m| m.len()).unwrap_or(0);
        match Trace::salvage(f) {
            Ok(p) => {
                owed += 1;
                salvaged_ok += 1;
                salvaged_events += p.trace.meta.event_count;
                bytes_lost += p.loss.bytes_lost;
                if p.trace.meta.event_count > 0 {
                    let (both_ok, agree) = replay_twice(f, total_runs);
                    reproduced &= both_ok;
                    deterministic &= agree;
                }
            }
            // A file the kill caught before the anchor flush has nothing
            // durable in it yet; anything bigger owed us a salvage.
            Err(_) if len < 256 => {}
            Err(_) => {
                owed += 1;
                reproduced = false;
            }
        }
    }
    ChaosCell {
        scenario: "sigkill".into(),
        workload: CHAOS_WORKLOAD.into(),
        seed,
        salvaged_events,
        bytes_lost,
        fault: format!(
            "SIGKILL mid-recording: {} container(s), {} salvaged",
            files.len(),
            salvaged_ok
        ),
        salvaged: !files.is_empty() && salvaged_ok == owed,
        reproduced,
        deterministic,
    }
}

/// The child side of the SIGKILL scenario: records durable containers in
/// a loop (cadence 1 — every page flushed) until killed. Never returns.
pub fn run_chaos_child(dir: &Path, cfg: &StressConfig) -> ! {
    std::fs::create_dir_all(dir).expect("create chaos child dir");
    let mut i = 0u64;
    loop {
        let path = dir.join(format!("kill-{i:04}.dmtrace"));
        let (run, sink, ident) = record(cfg, cfg.base_seed ^ i, PerturbHandle::off(), &path, None);
        let _ = sink.finish(TraceMeta {
            commit_log_hash: run.report.commit_log_hash,
            ..ident
        });
        i += 1;
    }
}

/// Runs the trace-chaos matrix and returns the report.
///
/// One or two chaos rounds (`cfg.seeds`, clamped); each round runs the
/// crash, panic and three I/O-fault scenarios, plus one real-SIGKILL
/// scenario for the whole matrix (process spawning is the expensive part).
pub fn run_trace_chaos(
    cfg: &StressConfig,
    mut progress: impl FnMut(&ChaosCell),
) -> TraceChaosReport {
    let cfg = StressConfig {
        seeds: cfg.seeds.clamp(1, 2),
        ..cfg.clone()
    };
    let dir = tmpdir("cells");
    let mut cells = Vec::new();
    let mut total_runs = 0u64;
    let mut done = |c: ChaosCell| {
        progress(&c);
        cells.push(c);
    };
    for seed in cfg.round_seeds(cfg.base_seed ^ 0x7AC3_CAFE).map(mix64) {
        done(crash_cell(&dir.0, &cfg, seed, &mut total_runs));
        done(panic_cell(&dir.0, &cfg, seed, &mut total_runs));
        for kind in IoFaultKind::ALL {
            done(io_fault_cell(&dir.0, &cfg, seed, kind, &mut total_runs));
        }
    }
    let kill_seed = mix64(cfg.base_seed ^ 0x51_6B11);
    done(sigkill_cell(&cfg, kill_seed, &mut total_runs));
    Report::new(&cfg, total_runs, cells, NoExtra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_api::trace::{Event, TraceSink};
    use dmt_api::{DomainId, Tid};
    use dmt_trace::{TraceError, TraceWriter};

    fn two_threads() -> StressConfig {
        StressConfig {
            threads: 2,
            ..StressConfig::smoke()
        }
    }

    fn sample_events(n: u64) -> Vec<dmt_api::trace::Event> {
        (0..n)
            .map(|i| dmt_api::trace::Event::TokenAcquire {
                tid: Tid((i % 3) as u32),
                clock: 100 + i,
            })
            .collect()
    }

    #[test]
    fn short_write_media_truncates_then_zero_writes() {
        let dir = tmpdir("t-short");
        let path = dir.0.join("m.bin");
        let mut m = FaultyMedia::create(
            &path,
            IoFaultPlan {
                kind: IoFaultKind::ShortWrite,
                at_byte: 0, // floored to 2048
            },
        )
        .unwrap();
        let chunk = vec![0xAB; 1500];
        assert_eq!(m.write(&chunk).unwrap(), 1500);
        assert_eq!(m.write(&chunk).unwrap(), 548, "truncated at the floor");
        assert_eq!(m.write(&chunk).unwrap(), 0, "nothing fits any more");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2048);
    }

    #[test]
    fn torn_tail_media_lies_about_persistence() {
        let dir = tmpdir("t-torn");
        let path = dir.0.join("m.bin");
        let mut m = FaultyMedia::create(
            &path,
            IoFaultPlan {
                kind: IoFaultKind::TornTail,
                at_byte: 4096,
            },
        )
        .unwrap();
        let chunk = vec![0xCD; 3000];
        assert_eq!(m.write(&chunk).unwrap(), 3000);
        assert_eq!(m.write(&chunk).unwrap(), 3000, "claims success");
        m.flush().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            4096,
            "only the pre-tear bytes landed"
        );
        // Seeking back (the header patch) still works on the real region.
        m.seek(SeekFrom::Start(0)).unwrap();
        assert_eq!(m.write(&[1, 2, 3]).unwrap(), 3);
    }

    /// Satellite regression: a mid-run write error must surface into
    /// `RunReport::fault` as a degraded recording — the run completes,
    /// the loss is named, and the bytes that landed salvage.
    #[test]
    fn disk_write_error_degrades_the_run_report() {
        let dir = tmpdir("t-degrade");
        let path = dir.0.join("degraded.dmtrace");
        let plan = IoFaultPlan {
            kind: IoFaultKind::NoSpace,
            at_byte: 8 * 1024,
        };
        let (run, sink, ident) = record(&two_threads(), 7, PerturbHandle::off(), &path, Some(plan));
        let report = run.report;
        let fault = report
            .fault
            .expect("write error must reach RunReport::fault");
        assert!(
            fault.contains("degraded recording") && fault.contains("trace write failed"),
            "fault names the degradation: {fault}"
        );
        assert!(report.degraded, "a degraded recording marks the run");
        assert!(
            fault.contains("at event #"),
            "fault names the point of failure: {fault}"
        );
        // The sink refuses to pretend the container is complete.
        assert!(sink.finish(ident.clone()).is_err());
        // What landed before ENOSPC is salvageable.
        let p = Trace::salvage(&path).expect("prefix salvages");
        assert!(p.trace.meta.event_count > 0, "flushed pages recovered");
        assert!(!p.loss.complete);
    }

    /// Forwards `emit` alone: the event-by-event path a batch must match.
    struct OneByOne(Arc<DiskSink>);

    impl TraceSink for OneByOne {
        fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
            self.0.emit(ev, in_schedule, domain);
        }

        fn fault(&self) -> Option<String> {
            self.0.fault()
        }
    }

    #[test]
    fn a_write_fault_inside_a_batch_degrades_at_the_same_event() {
        let dir = tmpdir("t-batch");
        let plan = IoFaultPlan {
            kind: IoFaultKind::NoSpace,
            at_byte: 8 * 1024,
        };
        let run = |name: &str, one_by_one: bool| {
            let path = dir.0.join(name);
            let (cell, ident) = chaos_cell(&two_threads(), 7, PerturbHandle::off());
            let media = FaultyMedia::create(&path, plan).unwrap();
            let disk = Arc::new(DiskSink::create_on(Box::new(media), Some(&ident), 1).unwrap());
            let sink: Arc<dyn TraceSink> = if one_by_one {
                Arc::new(OneByOne(disk))
            } else {
                disk
            };
            let fault = Cell {
                sink: Sink::To(sink),
                ..cell
            }
            .run()
            .report
            .fault;
            (fault, std::fs::read(&path).unwrap())
        };
        let (batched, bytes) = run("batched.dmtrace", false);
        assert!(
            batched.as_deref().is_some_and(|f| f.contains("at event #")),
            "{batched:?}"
        );
        assert_eq!((batched, bytes), run("one.dmtrace", true));
    }

    #[test]
    fn crash_cell_salvages_and_reproduces() {
        let dir = tmpdir("t-crash");
        let mut runs = 0;
        let c = crash_cell(&dir.0, &two_threads(), 11, &mut runs);
        assert!(c.salvaged, "{c:?}");
        assert!(c.reproduced, "{c:?}");
        assert!(c.deterministic, "{c:?}");
        assert!(c.salvaged_events > 0, "{c:?}");
    }

    #[test]
    fn torn_tail_container_falls_back_to_salvage() {
        // A finished-looking container whose tail never landed: the
        // directory offset is patched into the header but points at
        // dropped bytes, so open() fails and salvage recovers the prefix.
        let dir = tmpdir("t-tornfull");
        let path = dir.0.join("torn.dmtrace");
        let (_, ident) = chaos_cell(&two_threads(), 3, PerturbHandle::off());
        let media = FaultyMedia::create(
            &path,
            IoFaultPlan {
                kind: IoFaultKind::TornTail,
                at_byte: 3 * 1024,
            },
        )
        .unwrap();
        let mut w = TraceWriter::create_on(Box::new(media), Some(&ident), 1).unwrap();
        for ev in sample_events(2000) {
            w.push(&ev).unwrap();
        }
        // finish() succeeds — the medium lied — but open() sees the tear.
        w.finish(ident).unwrap();
        assert!(matches!(
            Trace::open(&path),
            Err(TraceError::Truncated { .. } | TraceError::ChecksumMismatch { .. })
        ));
        let p = Trace::salvage(&path).expect("prefix salvages");
        assert!(p.trace.meta.event_count > 0);
        assert!(p.trace.meta.event_count < 2000);
    }
}
