//! Persistent record/replay: round trips through the on-disk container,
//! replay of the committed trace corpus, and divergence detection on a
//! tampered recording. See `docs/TRACE_FORMAT.md` and `docs/REPLAY.md`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use dmt_api::trace::Event;
use dmt_bench::replay::{record_all, record_to, replay, replay_file, trace_files};
use dmt_trace::{ReplaySink, Trace, TraceMeta};

/// A unique scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dmtrace-test-{}-{}-{}",
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

/// Record a run, replay it, and require a complete match: schedule
/// length, every event, every checkpoint, final hash, output and commit
/// log.
#[test]
fn record_then_replay_reproduces_the_run() {
    let dir = Scratch::new("roundtrip");
    let rec = record_to(&dir.0, "consequence-ic", "histogram", 4, 1, 42).unwrap();
    assert!(rec.validated, "recorded run failed output validation");
    assert!(rec.events > 0);

    let rep = replay_file(Path::new(&rec.path)).unwrap();
    assert!(rep.ok(), "replay diverged: {}", rep.verdict());
    assert_eq!(rep.replayed_hash, rec.schedule_hash);
    assert_eq!(rep.replayed_events, rec.events);
    assert_eq!(rep.checkpoints_passed, rep.checkpoints_total);
}

/// Replay applies across presets: round-robin ordering and DWC replay
/// just as instruction-count does.
#[test]
fn record_then_replay_other_presets() {
    let dir = Scratch::new("presets");
    for runtime in ["consequence-rr", "dwc"] {
        let rec = record_to(&dir.0, runtime, "kmeans", 4, 1, 42).unwrap();
        let rep = replay_file(Path::new(&rec.path)).unwrap();
        assert!(rep.ok(), "{runtime} replay diverged: {}", rep.verdict());
    }
}

/// Tampering with recorded events must be caught, and the diagnosis
/// must name exactly the first tampered event index.
#[test]
fn tampered_trace_diverges_at_the_tampered_event() {
    let dir = Scratch::new("tamper");
    let rec = record_to(&dir.0, "consequence-ic", "histogram", 4, 1, 42).unwrap();

    let trace = Trace::open(&rec.path).unwrap();
    let acquires: Vec<usize> = trace
        .events
        .iter()
        .enumerate()
        .skip(trace.events.len() / 2)
        .filter_map(|(i, ev)| matches!(ev, Event::TokenAcquire { .. }).then_some(i))
        .collect();
    let target = *acquires
        .first()
        .expect("no token acquisition in the second half of the trace");
    let other = acquires
        .iter()
        .copied()
        .find(|&j| trace.events[j].tid() != trace.events[target].tid())
        .expect("no second grantee in the second half of the trace");
    // Bump the clock of a mid-trace token acquisition: the grant order is
    // unchanged, but the recorded event no longer matches what the
    // re-execution emits.
    let mut bumped = trace.clone();
    if let Event::TokenAcquire { clock, .. } = &mut bumped.events[target] {
        *clock += 1;
    }
    // Swap two grants of different threads, tid and clock: a recorded
    // grant order the scheduler would never produce.
    let mut swapped = trace;
    swapped.events.swap(target, other);

    for (name, tampered) in [("bumped", bumped), ("swapped", swapped)] {
        let path = dir.0.join(format!("{name}.dmtrace"));
        tampered.save(&path).unwrap();
        let rep = replay_file(&path).unwrap();
        assert!(!rep.ok(), "{name} trace replayed clean");
        let diag = rep.divergence.expect("divergence carried no diagnosis");
        assert!(
            diag.contains(&format!("diverge at event #{target}")),
            "{name}: diagnosis does not name event #{target}:\n{diag}"
        );
    }
}

/// Sharded containers round-trip too: record a 2-domain server run,
/// replay it through the same dispatch the corpus uses, and require the
/// canonical per-domain event streams to match completely.
#[test]
fn sharded_record_then_replay_reproduces_the_run() {
    let dir = Scratch::new("sharded");
    let path = dir.0.join("dmt_server-sharded-ic-2-t2-s1.dmtrace");
    let (meta, _) =
        dmt_shard::record_server_trace(2, 2, dmt_workloads::Params::new(2, 1, 42), &path).unwrap();
    assert_eq!(meta.runtime, "sharded-ic-2");
    assert!(meta.event_count > 0);

    let rep = replay_file(&path).unwrap();
    assert!(rep.ok(), "sharded replay diverged: {}", rep.verdict());
    assert_eq!(rep.recorded_hash, meta.schedule_hash);
    assert_eq!(rep.replayed_events, meta.event_count);
    assert_eq!(rep.checkpoints_passed, rep.checkpoints_total);
}

/// Tampering with a sharded recording must be caught, and the diagnosis
/// must name *both* coordinates of the divergence: the index in the
/// canonical `(domain, event)` stream and the shard domain it lives in.
/// Either alone is unactionable — the index without the domain doesn't
/// say whose token order broke, the domain without the index doesn't say
/// where to look.
#[test]
fn tampered_sharded_trace_names_the_divergent_domain() {
    let dir = Scratch::new("sharded-tamper");
    let path = dir.0.join("dmt_server-sharded-ic-2-t2-s1.dmtrace");
    dmt_shard::record_server_trace(2, 2, dmt_workloads::Params::new(2, 1, 42), &path).unwrap();

    let mut trace = Trace::open(&path).unwrap();
    // Tamper inside domain D1's slice of the canonical stream.
    let target = trace
        .domains
        .iter()
        .zip(trace.events.iter())
        .position(|(d, ev)| *d == dmt_api::DomainId(1) && matches!(ev, Event::TokenAcquire { .. }))
        .expect("no D1 token acquisition in the trace");
    if let Event::TokenAcquire { clock, .. } = &mut trace.events[target] {
        *clock += 1;
    }
    let tampered = dir.0.join("tampered.dmtrace");
    trace.save(&tampered).unwrap();

    let rep = replay_file(&tampered).unwrap();
    assert!(!rep.ok(), "tampered sharded trace replayed clean");
    let diag = rep.divergence.expect("divergence carried no diagnosis");
    assert!(
        diag.contains(&format!("diverge at event #{target} in domain D1")),
        "diagnosis does not name event #{target} in domain D1:\n{diag}"
    );
}

/// A replay can fail with the schedule intact: the commit-log (or output)
/// digest is compared after the run and has no first divergent event. The
/// verdict must then name the digest, with both values, and must not
/// blame the schedule — this is what a container recorded before the
/// commit log's per-page term changed (PR 15) replays to.
#[test]
fn a_digest_only_mismatch_says_which_digest() {
    let dir = Scratch::new("stale-digest");
    let rec = record_to(&dir.0, "consequence-ic", "histogram", 4, 1, 42).unwrap();
    let mut trace = Trace::open(&rec.path).unwrap();
    let live = trace.meta.commit_log_hash;
    trace.meta.commit_log_hash ^= 1;
    let stale = dir.0.join("stale.dmtrace");
    trace.save(&stale).unwrap();

    let rep = replay_file(&stale).unwrap();
    assert!(!rep.ok(), "a stale commit-log digest replayed clean");
    assert!(rep.divergence.is_none(), "the schedule did reproduce");
    assert_eq!(
        rep.verdict(),
        format!(
            "commit-log digest differs: recorded {:#018x}, replayed {live:#018x}; \
             schedule, checkpoints and output reproduced",
            live ^ 1
        )
    );
}

/// A checkpoint the replay folds to a different hash while every event
/// matches — the cross-build drift the checkpoints exist to localize —
/// must be named in the verdict: its event index and both hashes.
#[test]
fn a_failed_checkpoint_is_named_in_the_verdict() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/kmeans-consequence-rr-t4-s1.dmtrace");
    let mut trace = Trace::open(&path).unwrap();
    // In memory only: on disk, `Trace::open` re-derives every checkpoint
    // and would refuse the container.
    let total = trace.checkpoints.len();
    let ck = &mut trace.checkpoints[1];
    ck.hash ^= 1;
    let (events, recorded) = (ck.events, ck.hash);

    let (rep, _) = replay(&trace, ReplaySink::new(&trace)).unwrap();
    assert!(!rep.ok(), "a failed checkpoint replayed clean");
    assert!(rep.divergence.is_none(), "the events did reproduce");
    assert_eq!(
        rep.verdict(),
        format!(
            "checkpoints differ: {} of {total} reproduced, the first to fail at event #{events}: \
             recorded {recorded:#018x}, replayed {:#018x}; schedule, output and commit-log \
             reproduced",
            total - 1,
            recorded ^ 1
        )
    );
}

/// A recording whose run this build cannot rebuild is refused before
/// anything runs, by a message naming the cause. Each case tweaks one
/// META field in memory.
#[test]
fn a_recording_that_cannot_be_rebuilt_is_refused_by_cause() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/histogram-consequence-ic-t4-s1.dmtrace");
    let trace = Trace::open(&path).unwrap();
    type Tweak = fn(&mut TraceMeta);
    let cases: [(&str, Tweak); 5] = [
        ("cannot replay runtime \"pthreads\"", |m| {
            m.runtime = "pthreads".into()
        }),
        ("options fingerprint mismatch", |m| {
            m.options_fingerprint ^= 1
        }),
        // A shrunk plan: its digest is not the seed's full-strength plan's.
        ("irreproducible perturbation plan", |m| m.perturb_plan ^= 1),
        ("heap size mismatch", |m| m.heap_pages += 1),
        ("unknown workload \"no_such_workload\"", |m| {
            m.workload = "no_such_workload".into()
        }),
    ];
    for (cause, tweak) in cases {
        let mut t = trace.clone();
        tweak(&mut t.meta);
        let err = replay(&t, ReplaySink::new(&t)).unwrap_err();
        assert!(err.contains(cause), "want {cause:?}, got {err:?}");
    }
}

/// The committed corpus must replay green: every container re-executes
/// to its recorded schedule and output on the current build.
#[test]
fn committed_corpus_replays_clean() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let files = trace_files(&corpus).unwrap();
    assert!(!files.is_empty());
    for f in files {
        let rep = replay_file(&f).unwrap();
        assert!(rep.ok(), "{} diverged: {}", f.display(), rep.verdict());
    }
}

/// A fresh recording writes the committed corpus byte for byte: the four
/// finished containers, recorded as `stress --record DIR --workloads
/// histogram,kmeans,word_count --threads 4` records them (`record_all`,
/// input seed 42, scale 1, and the sharded server at 2 domains of 2
/// workers). A change to the codec, the writer or the order a sink sees
/// events in fails here before any replay runs.
#[test]
fn a_fresh_recording_is_the_committed_corpus() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let dir = Scratch::new("corpus");
    for (workload, runtime) in [
        ("histogram", "consequence-ic"),
        ("kmeans", "consequence-rr"),
        ("word_count", "dwc"),
    ] {
        let (_, ok) = record_all(&dir.0, &[runtime], &[workload.to_string()], 4, 1, 42);
        assert!(ok, "{workload} {runtime} did not record");
    }
    let params = dmt_workloads::Params::new(2, 1, 42);
    let sharded = dir.0.join("dmt_server-sharded-ic-2-t2-s1.dmtrace");
    dmt_shard::record_server_trace(2, 2, params, &sharded).unwrap();
    for name in [
        "histogram-consequence-ic-t4-s1",
        "kmeans-consequence-rr-t4-s1",
        "word_count-dwc-t4-s1",
        "dmt_server-sharded-ic-2-t2-s1",
    ] {
        let file = format!("{name}.dmtrace");
        let fresh = std::fs::read(dir.0.join(&file)).unwrap();
        let committed = std::fs::read(corpus.join(&file)).unwrap();
        assert!(
            fresh == committed,
            "{file} differs from the committed corpus"
        );
    }
}
