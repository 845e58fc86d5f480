//! Container-level tests: write/read round trips and rejection of
//! damaged files — every corruption class named in `docs/TRACE_FORMAT.md`
//! must map to a specific `TraceError`.

use dmt_api::trace::Event;
use dmt_api::{MutexId, Tid};
use dmt_trace::format::{fnv_of, DirEntry};
use dmt_trace::{
    StreamId, Trace, TraceError, TraceMeta, TraceWriter, DIR_ENTRY_LEN, HEADER_LEN, PAGE_EVENTS,
};

/// Deterministic LCG over a representative event mix (multiple pages,
/// every delta path: clocks, versions, tickets, optional tids).
fn gen_events(n: usize, seed: u64) -> Vec<Event> {
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let mut clock = 0u64;
    let mut version = 0u64;
    (0..n)
        .map(|_| {
            clock += next() % 5_000;
            match next() % 5 {
                0 => Event::TokenAcquire {
                    tid: Tid((next() % 8) as u32),
                    clock,
                },
                1 => Event::TokenRelease {
                    tid: Tid((next() % 8) as u32),
                    clock,
                },
                2 => Event::MutexLock {
                    tid: Tid((next() % 8) as u32),
                    mutex: MutexId((next() % 4) as u32),
                    ticket: next() % 1_000,
                },
                3 => {
                    version += 1;
                    Event::Commit {
                        tid: Tid((next() % 8) as u32),
                        version,
                        pages: (next() % 32) as u32,
                        merged: (next() % 8) as u32,
                        page_set: next(),
                    }
                }
                _ => Event::Publish {
                    tid: Tid((next() % 8) as u32),
                    clock,
                },
            }
        })
        .collect()
}

fn meta() -> TraceMeta {
    TraceMeta {
        runtime: "consequence-ic".into(),
        workload: "synthetic".into(),
        threads: 4,
        scale: 1,
        input_seed: 42,
        heap_pages: 64,
        max_threads: 64,
        options_fingerprint: 0xDEAD_BEEF,
        perturb_seed: 0,
        perturb_plan: 0,
        event_count: 0,
        schedule_hash: 0,
        commit_log_hash: 7,
        output_hash: 9,
        checkpoint_interval: 0,
        panic_site: 0,
        panic_victim: 0,
        panic_nth: 0,
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dmtrace-container-{}-{name}", std::process::id()))
}

/// Writes `n` generated events and returns the container image.
fn written(n: usize, seed: u64) -> (Vec<Event>, Vec<u8>) {
    let path = scratch(&format!("w{n}-{seed}"));
    let events = gen_events(n, seed);
    let mut w = TraceWriter::create(&path).unwrap();
    for ev in &events {
        w.push(ev).unwrap();
    }
    w.finish(meta()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (events, bytes)
}

#[test]
fn round_trip_property_across_sizes_and_seeds() {
    // Sizes straddling page boundaries: empty, tiny, exactly one page,
    // one page ± 1, several pages.
    for (i, n) in [
        0,
        1,
        7,
        PAGE_EVENTS - 1,
        PAGE_EVENTS,
        PAGE_EVENTS + 1,
        3 * PAGE_EVENTS + 17,
    ]
    .into_iter()
    .enumerate()
    {
        let (events, bytes) = written(n, 0x5EED + i as u64);
        let t = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(t.events, events, "n={n}");
        assert_eq!(t.meta.event_count, n as u64);
        assert_eq!(t.checkpoints.len(), n.div_ceil(PAGE_EVENTS));
        assert_eq!(t.meta.runtime, "consequence-ic");
        assert_eq!(t.meta.options_fingerprint, 0xDEAD_BEEF);
    }
}

#[test]
fn rejects_bad_magic() {
    let (_, mut bytes) = written(10, 1);
    bytes[0] ^= 0xFF;
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::BadMagic)
    ));
}

#[test]
fn rejects_wrong_versions() {
    let (_, mut bytes) = written(10, 2);
    bytes[8] = 99; // container version
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::BadVersion {
            what: "container",
            ..
        })
    ));
    let (_, mut bytes) = written(10, 2);
    bytes[40] = 99; // codec version
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::BadVersion {
            what: "event codec",
            ..
        })
    ));
}

#[test]
fn rejects_short_reads() {
    let (_, bytes) = written(PAGE_EVENTS * 2, 3);
    // Shorter than a header.
    assert!(matches!(
        Trace::from_bytes(&bytes[..HEADER_LEN - 1]),
        Err(TraceError::Truncated { .. })
    ));
    // Header intact but the file is cut before the directory.
    assert!(matches!(
        Trace::from_bytes(&bytes[..bytes.len() - 40]),
        Err(TraceError::Truncated { .. })
    ));
}

#[test]
fn rejects_unfinished_recording() {
    // A writer that was never finish()ed leaves directory offset 0.
    let path = scratch("unfinished");
    let mut w = TraceWriter::create(&path).unwrap();
    for ev in gen_events(PAGE_EVENTS + 3, 4) {
        w.push(&ev).unwrap();
    }
    drop(w); // process "died" mid-recording
    let err = Trace::open(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(err, TraceError::Truncated { what: "directory" }));
}

#[test]
fn rejects_flipped_payload_byte() {
    let (_, mut bytes) = written(PAGE_EVENTS + 50, 5);
    // Flip one byte inside the first event page's payload (the page
    // header starts right after the container header).
    bytes[HEADER_LEN + 16 + 10] ^= 0x01;
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::ChecksumMismatch { .. })
    ));
}

#[test]
fn rejects_flipped_directory_byte() {
    let (_, mut bytes) = written(20, 6);
    let n = bytes.len();
    bytes[n - 1] ^= 0x01; // last directory byte
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::ChecksumMismatch {
            what: "directory",
            ..
        })
    ));
}

#[test]
fn grants_extracts_token_acquire_order() {
    let (events, bytes) = written(PAGE_EVENTS * 2 + 9, 7);
    let t = Trace::from_bytes(&bytes).unwrap();
    // The token-grant order a replay must reproduce survives two page
    // boundaries.
    let grants = |evs: &[Event]| -> Vec<Tid> {
        evs.iter()
            .filter_map(|ev| match ev {
                Event::TokenAcquire { tid, .. } => Some(*tid),
                _ => None,
            })
            .collect()
    };
    assert_eq!(grants(&t.events), grants(&events));
}

#[test]
fn save_round_trips_edited_events() {
    let (_, bytes) = written(PAGE_EVENTS + 11, 8);
    let mut t = Trace::from_bytes(&bytes).unwrap();
    let target = t
        .events
        .iter()
        .position(|ev| matches!(ev, Event::TokenAcquire { .. }))
        .unwrap();
    if let Event::TokenAcquire { clock, .. } = &mut t.events[target] {
        *clock += 1;
    }
    let path = scratch("resave");
    t.save(&path).unwrap();
    // The rewritten container is internally valid (digests recomputed)
    // and preserves the edit.
    let t2 = Trace::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(t2.events, t.events);
    assert_ne!(t2.meta.schedule_hash, t.meta.schedule_hash);
}

/// A committed corpus container with stream `id` replaced by
/// `edit(stream)` and both digests that cover it — the stream's and the
/// directory's — recomputed. FNV-1a is a checksum, not a signature: whoever
/// can write the file can do this, so a count read from a stream is only
/// as trustworthy as the reader's own bounds on it.
fn forged(id: StreamId, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
    let le = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap()) as usize;
    let mut bytes =
        include_bytes!("../../../tests/corpus/histogram-consequence-ic-t4-s1.dmtrace").to_vec();
    let (dir_offset, dir_len) = (le(&bytes[16..24]), le(&bytes[24..32]));
    let mut entries: Vec<DirEntry> = bytes[dir_offset..dir_offset + dir_len]
        .chunks_exact(DIR_ENTRY_LEN)
        .map(|c| DirEntry::from_bytes(c.try_into().unwrap()))
        .collect();
    let entry = entries.iter_mut().find(|e| e.id == id as u32).unwrap();
    let stream = edit(&bytes[entry.offset as usize..(entry.offset + entry.len) as usize]);
    // The forged stream goes where the directory was, a new directory
    // pointing at it goes behind it.
    bytes.truncate(dir_offset);
    entry.offset = dir_offset as u64;
    entry.len = stream.len() as u64;
    entry.fnv = fnv_of(&stream);
    bytes.extend_from_slice(&stream);
    let dir: Vec<u8> = entries.iter().flat_map(|e| e.to_bytes()).collect();
    let header = [bytes.len() as u64, dir.len() as u64, fnv_of(&dir)];
    for (i, v) in header.into_iter().enumerate() {
        bytes[16 + 8 * i..24 + 8 * i].copy_from_slice(&v.to_le_bytes());
    }
    bytes.extend_from_slice(&dir);
    bytes
}

#[test]
fn rejects_a_checkpoint_count_that_wraps_the_length_check() {
    // True count + 2^60: `8 + n * 16` wraps back to the stream's real
    // length, so an unchecked product passes the length test and then
    // tries to collect 2^60 checkpoints.
    let bytes = forged(StreamId::Checkpoints, |s| {
        let n = u64::from_le_bytes(s[0..8].try_into().unwrap());
        [&(n + (1 << 60)).to_le_bytes()[..], &s[8..]].concat()
    });
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::Corrupt {
            what: "checkpoints"
        })
    ));
}

#[test]
fn rejects_an_event_count_the_events_stream_cannot_hold() {
    // META's count sizes the decoded vectors before any event is read;
    // 2^40 events would be a 32 TB reservation. (`PartialTrace::from_bytes`
    // reads no such total: it bounds each page's own count by
    // `PAGE_EVENTS` and grows its vectors as pages verify.)
    Trace::from_bytes(&forged(StreamId::Meta, <[u8]>::to_vec)).expect("an unedited forgery opens");
    let bytes = forged(StreamId::Meta, |s| {
        let mut meta = TraceMeta::from_bytes(s).unwrap();
        meta.event_count = 1 << 40;
        meta.to_bytes()
    });
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::Corrupt {
            what: "event count (disagrees with meta)"
        })
    ));
}

#[test]
fn rejects_a_page_count_the_format_does_not_allow() {
    // `open` and `salvage` read a page frame with one function, so the
    // bound salvage puts on a page's own count (`1..=PAGE_EVENTS`, checked
    // before any event is decoded) is `open`'s too, with its own error.
    let bytes = forged(StreamId::Events, |s| {
        let over = (PAGE_EVENTS as u32 + 1).to_le_bytes();
        [&over[..], &s[4..]].concat()
    });
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::Corrupt {
            what: "event page frame"
        })
    ));
}
