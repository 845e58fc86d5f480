//! Crash-durable tracing: salvage of torn `.dmtrace` containers and
//! replay of failed runs to their fault point. See `docs/TRACE_FORMAT.md`
//! ("Durability & salvage") and `docs/REPLAY.md` ("Replaying failed
//! runs").

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use consequence::options_for_label;
use dmt_api::{FixedPanic, PanicSite, PerturbHandle, Tid};
use dmt_bench::cell::{Cell, Sink};
use dmt_bench::replay::{cell_ident, ident_meta, record_to, replay, replay_file};
use dmt_trace::{DiskSink, PartialTrace, ReplaySink, Trace, TraceMeta, TraceWriter, HEADER_LEN};
use dmt_workloads::Params;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dmt-partial-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Records one kmeans cell and returns the finished container's bytes
/// plus its recording summary.
fn recorded_bytes(dir: &Path) -> (dmt_bench::replay::Recorded, Vec<u8>) {
    let rec = record_to(dir, "consequence-ic", "kmeans", 2, 1, 42).unwrap();
    let bytes = std::fs::read(&rec.path).unwrap();
    (rec, bytes)
}

/// Records a run under `perturb` into a durable sink and abandons it —
/// no `finish` — leaving the torn container a crash would leave. Returns
/// the live run's contained panic set.
fn record_and_abandon(
    path: &Path,
    workload: &str,
    threads: usize,
    input_seed: u64,
    perturb: PerturbHandle,
) -> Vec<(Tid, String)> {
    let opts = options_for_label("consequence-ic").unwrap();
    let fingerprint = opts.fingerprint();
    let mut cell = Cell {
        perturb,
        ..Cell::new(workload, Params::new(threads, 1, input_seed), opts)
    };
    let ident = cell_ident("consequence-ic", &cell, fingerprint);
    let sink = Arc::new(DiskSink::create_durable(path, &ident, 1).unwrap());
    cell.sink = Sink::To(Arc::clone(&sink) as _);
    let run = cell.run();
    sink.seal_and_flush().unwrap();
    run.report.panics
}

/// Satellite: byte-level truncation fuzz. A valid durable container cut
/// at EVERY byte offset must either salvage to a bit-exact prefix of the
/// original events or fail with a typed error — never panic, never
/// accept corrupt events.
#[test]
fn salvage_survives_truncation_at_every_byte_offset() {
    let dir = Scratch::new("fuzz");
    let (rec, bytes) = recorded_bytes(&dir.0);
    let full = Trace::from_bytes(&bytes).unwrap();
    assert_eq!(full.events.len() as u64, rec.events);

    let mut salvageable = 0u64;
    for cut in 0..=bytes.len() {
        match PartialTrace::from_bytes(&bytes[..cut]) {
            Ok(p) => {
                salvageable += 1;
                let n = p.trace.events.len();
                assert_eq!(
                    p.trace.events,
                    full.events[..n],
                    "cut at {cut}: salvaged events are not a prefix of the recording"
                );
                assert_eq!(p.trace.meta.event_count, n as u64, "cut at {cut}");
                assert_eq!(p.loss.events_recovered, n as u64, "cut at {cut}");
                assert!(
                    p.loss.tear_offset as usize <= cut,
                    "cut at {cut}: tear past the cut"
                );
                assert_eq!(
                    p.loss.complete,
                    cut == bytes.len(),
                    "cut at {cut}: only the untruncated file is complete"
                );
                // The salvaged meta must still carry the recording's
                // identity — that's what the write-ahead record is for.
                assert_eq!(p.trace.meta.workload, "kmeans", "cut at {cut}");
                assert_eq!(p.trace.meta.runtime, "consequence-ic", "cut at {cut}");
            }
            Err(_) => {
                // Typed rejection is fine — but a cut past the identity
                // record must always salvage (possibly to zero events).
                let ident_len = u32::from_le_bytes(bytes[48..52].try_into().unwrap()) as usize;
                assert!(
                    cut < HEADER_LEN + ident_len,
                    "cut at {cut}: anchor was durable yet salvage failed"
                );
            }
        }
    }
    assert!(
        salvageable as usize > bytes.len() / 2,
        "only {salvageable} of {} cuts salvaged",
        bytes.len() + 1
    );
}

/// Flipping any single byte of the salvaged region must never panic and
/// never smuggle corrupt events into an accepted prefix: every event
/// page the salvage accepts is digest-checked, so a flipped payload byte
/// costs that page and everything after it.
#[test]
fn salvage_rejects_flipped_bytes_in_accepted_pages() {
    let dir = Scratch::new("flip");
    let (_, bytes) = recorded_bytes(&dir.0);
    let full = Trace::from_bytes(&bytes).unwrap();
    // Tear off the directory so every parse goes down the salvage path.
    let torn = &bytes[..bytes.len() - 40];
    let baseline = PartialTrace::from_bytes(torn).unwrap();
    assert!(!baseline.trace.events.is_empty());
    // Stride keeps the loop fast; the offsets still cover header,
    // identity record, page headers and payloads.
    for flip in (0..torn.len()).step_by(7) {
        let mut mutated = torn.to_vec();
        mutated[flip] ^= 0x01;
        if let Ok(p) = PartialTrace::from_bytes(&mutated) {
            let n = p.trace.events.len();
            assert_eq!(
                p.trace.events,
                full.events[..n],
                "flip at {flip}: accepted events diverge from the recording"
            );
        }
    }
}

/// Tentpole: a healthy run's torn recording replays its salvaged prefix
/// bit-identically and reports clean exhaustion — not divergence — when
/// the live run continues past the recording's end.
#[test]
fn healthy_partial_replays_prefix_and_exhausts_cleanly() {
    let dir = Scratch::new("healthy");
    let (rec, bytes) = recorded_bytes(&dir.0);
    let ident_len = u32::from_le_bytes(bytes[48..52].try_into().unwrap()) as usize;
    let events_start = HEADER_LEN + ident_len;
    let page1_len = u32::from_le_bytes(
        bytes[events_start + 4..events_start + 8]
            .try_into()
            .unwrap(),
    ) as usize;
    let cut = events_start + 16 + page1_len + 5;
    let torn = dir.0.join("torn.dmtrace");
    std::fs::write(&torn, &bytes[..cut]).unwrap();

    let salvaged = Trace::salvage(&torn).unwrap();
    assert_eq!(salvaged.loss.pages_recovered, 1);
    assert_eq!(salvaged.trace.meta.event_count, 512);
    assert!(salvaged.loss.bytes_lost > 0);

    let rep = replay_file(&torn).unwrap();
    assert!(rep.partial, "salvage fallback did not engage");
    assert!(rep.ok(), "salvaged prefix diverged: {}", rep.verdict());
    assert!(
        rep.divergence.is_none(),
        "exhaustion reported as divergence"
    );
    assert_eq!(rep.recorded_events, 512);
    assert!(
        rep.replayed_events >= rec.events,
        "live run fell short of the original recording"
    );
    assert_eq!(
        rep.prefix_hash,
        Some(salvaged.trace.meta.schedule_hash),
        "prefix hash does not match the salvaged schedule"
    );
    assert_eq!(
        rep.exhausted_at,
        Some(512),
        "exhaustion not at the prefix boundary"
    );
    assert_eq!(rep.bytes_lost, salvaged.loss.bytes_lost);
}

/// A salvage that recovers zero events (killed before the first durable
/// page) is a valid salvage but nothing to replay — the driver must say
/// so rather than "replay" an empty schedule as success.
#[test]
fn zero_event_salvage_is_not_replayable() {
    let dir = Scratch::new("empty");
    let (_, bytes) = recorded_bytes(&dir.0);
    let ident_len = u32::from_le_bytes(bytes[48..52].try_into().unwrap()) as usize;
    let cut = HEADER_LEN + ident_len + 3; // anchor durable, no full page
    let torn = dir.0.join("young.dmtrace");
    std::fs::write(&torn, &bytes[..cut]).unwrap();

    let salvaged = Trace::salvage(&torn).unwrap();
    assert_eq!(salvaged.trace.meta.event_count, 0);
    let err = replay_file(&torn).unwrap_err();
    assert!(
        err.contains("nothing to replay"),
        "zero-event salvage replayed: {err}"
    );
}

/// Satellite: replay-to-fault determinism. A run with an injected panic
/// is recorded and torn; salvaging and replaying it twice must agree on
/// the schedule-hash prefix, the contained panic set, and the exhaustion
/// coordinates — the failed run replays to its fault point exactly.
#[test]
fn injected_panic_run_replays_to_fault_point_twice_identically() {
    let dir = Scratch::new("panic");
    let path = dir.0.join("panicked.dmtrace");
    let perturb = PerturbHandle::to(Arc::new(FixedPanic {
        site: PanicSite::Lock,
        victim: Tid(1),
        nth: 0,
        inner: PerturbHandle::off(),
    }));
    let recorded_panics = record_and_abandon(&path, "kmeans", 2, 42, perturb);
    assert!(
        !recorded_panics.is_empty(),
        "injected panic never fired — the scenario is vacuous"
    );

    let partial = Trace::salvage(&path).unwrap();
    assert!(
        partial.trace.meta.panic_site != 0,
        "panic triple not stamped"
    );
    assert!(partial.trace.meta.event_count > 0);

    let mut outcomes = Vec::new();
    let mut panic_sets = Vec::new();
    for _ in 0..2 {
        let (rep, run) = replay(&partial.trace, ReplaySink::new_partial(&partial)).unwrap();
        panic_sets.push(run.report.panics);
        outcomes.push(rep);
    }
    let (a, b) = (&outcomes[0], &outcomes[1]);
    assert!(a.partial && b.partial);
    assert!(a.ok(), "first replay broke the prefix: {:?}", a.divergence);
    assert!(b.ok(), "second replay broke the prefix: {:?}", b.divergence);
    assert_eq!(a.prefix_hash, b.prefix_hash, "schedule-hash prefix differs");
    assert_eq!(a.replayed_hash, b.replayed_hash);
    assert_eq!(a.replayed_events, b.replayed_events);
    assert_eq!(
        a.exhausted_at, b.exhausted_at,
        "exhaustion coordinates differ"
    );
    assert_eq!(panic_sets[0], panic_sets[1], "contained panic set differs");
    assert_eq!(
        panic_sets[0], recorded_panics,
        "replayed panics differ from the recorded run's"
    );
}

/// The committed crashed-run container salvages with pinned stats — the
/// on-disk salvage behavior is part of the format contract, so a change
/// here is a format change and must be deliberate.
#[test]
fn committed_crashed_corpus_salvages_with_pinned_stats() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/crashed-kmeans-consequence-ic-t2-s1.dmtrace");
    let p = Trace::salvage(&path).unwrap();
    assert_eq!(p.loss.pages_recovered, 1);
    assert_eq!(p.loss.events_recovered, 512);
    assert_eq!(p.loss.bytes_lost, 7);
    assert!(!p.loss.complete);
    assert_eq!(p.trace.meta.event_count, 512);
    assert_eq!(p.trace.meta.schedule_hash, 0xb60c_62f2_eac0_415a);
    assert_eq!(p.trace.meta.workload, "kmeans");
    assert_eq!(p.trace.meta.runtime, "consequence-ic");

    // And it replays to a clean exhaustion through the normal driver —
    // the same path `committed_corpus_replays_clean` exercises.
    let rep = replay_file(&path).unwrap();
    assert!(rep.partial);
    assert!(rep.ok(), "{:?}", rep.divergence);
    assert_eq!(rep.prefix_hash, Some(0xb60c_62f2_eac0_415a));
}

/// A torn sharded container salvages like any other, but sharded
/// verification has no partial mode: `replay_file` refuses it by name. The committed container predates write-ahead identity records
/// (salvage would refuse it first), so its events are re-encoded behind
/// one, finished, and cut mid-page.
#[test]
fn salvaged_sharded_container_is_refused_by_name() {
    let dir = Scratch::new("sharded");
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/dmt_server-sharded-ic-2-t2-s1.dmtrace");
    let trace = Trace::open(&corpus).unwrap();
    let copy = dir.0.join("sharded.dmtrace");
    let mut w = TraceWriter::create_with_identity(&copy, &trace.meta, 0).unwrap();
    for (d, ev) in trace.domain_events() {
        w.push_in_domain(&ev, d).unwrap();
    }
    w.finish(trace.meta.clone()).unwrap();
    let bytes = std::fs::read(&copy).unwrap();
    std::fs::write(&copy, &bytes[..bytes.len() / 2]).unwrap();
    assert!(Trace::salvage(&copy).unwrap().trace.meta.event_count > 0);

    let err = replay_file(&copy).unwrap_err();
    assert!(
        err.contains("partial replay of sharded traces is unsupported"),
        "salvaged sharded container was not refused: {err}"
    );
}

/// The identity extension is invisible to legacy layouts: a writer
/// without a write-ahead record (`TraceWriter::create`) produces a
/// container whose reserved header tail is zero, and salvage rejects it
/// with a typed error instead of guessing.
#[test]
fn unfinished_legacy_container_is_typed_unsalvageable() {
    let dir = Scratch::new("legacy");
    let path = dir.0.join("legacy.dmtrace");
    let w = TraceWriter::create(&path).unwrap();
    drop(w); // never finished, no identity record
    let err = Trace::salvage(&path).unwrap_err();
    assert!(
        err.to_string().contains("write-ahead identity record"),
        "untyped salvage failure: {err}"
    );
}

/// Crash-durability also holds for recordings that carry a perturbation
/// identity: the write-ahead record preserves the panic triple even when
/// the digests never got stamped, and `TraceMeta` round-trips the
/// extension fields.
#[test]
fn write_ahead_identity_preserves_the_panic_triple() {
    let dir = Scratch::new("ident");
    let path = dir.0.join("armed.dmtrace");
    let perturb = PerturbHandle::to(Arc::new(FixedPanic {
        site: PanicSite::Commit,
        victim: Tid(3),
        nth: 5,
        inner: PerturbHandle::off(),
    }));
    let opts = options_for_label("consequence-ic").unwrap();
    let ident = ident_meta(
        "consequence-ic",
        "kmeans",
        2,
        1,
        42,
        64,
        64,
        opts.fingerprint(),
        &perturb,
    );
    assert_eq!(ident.panic_site, PanicSite::Commit.code());
    assert_eq!(ident.panic_victim, 3);
    assert_eq!(ident.panic_nth, 5);
    let sink = DiskSink::create_durable(&path, &ident, 1).unwrap();
    drop(sink); // killed before any event
    let p = Trace::salvage(&path).unwrap();
    assert_eq!(p.trace.meta.panic_site, PanicSite::Commit.code());
    assert_eq!(p.trace.meta.panic_victim, 3);
    assert_eq!(p.trace.meta.panic_nth, 5);
    assert_eq!(p.trace.meta.event_count, 0);
    let roundtrip = TraceMeta::from_bytes(&p.trace.meta.to_bytes()).unwrap();
    assert_eq!(roundtrip, p.trace.meta);
}
