//! Container reader: full structural and cryptographic-digest validation
//! on open, so every later consumer works on known-good data.

use std::path::Path;

use dmt_api::trace::Event;
use dmt_api::{DomainId, Fnv1a};

use crate::codec::{decode_in_domain, CodecState};
use crate::format::{
    fnv_of, DirEntry, StreamId, TraceError, CODEC_VERSION, CONTAINER_VERSION, DIR_ENTRY_LEN,
    HEADER_LEN, MAGIC, PAGE_EVENTS,
};
use crate::meta::TraceMeta;
use crate::writer::TraceWriter;

/// One cumulative-hash checkpoint, recorded per sealed event page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Schedule events folded when this checkpoint was taken.
    pub events: u64,
    /// Cumulative FNV-1a schedule hash at that point.
    pub hash: u64,
}

/// A fully validated, decoded trace container.
///
/// [`Trace::open`] verifies the magic and versions, the directory digest,
/// every stream digest, every event page digest, and that the decoded
/// event stream reproduces both every checkpoint and the final schedule
/// hash recorded in the META stream. Anything that fails returns a
/// specific [`TraceError`]; a `Trace` value is therefore always
/// internally consistent.
///
/// # Examples
///
/// ```no_run
/// let t = dmt_trace::Trace::open("run.dmtrace")?;
/// println!(
///     "{} under {}: {} events, schedule hash {:#x}",
///     t.meta.workload,
///     t.meta.runtime,
///     t.events.len(),
///     t.meta.schedule_hash
/// );
/// # Ok::<(), dmt_trace::TraceError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Trace {
    /// Run identity and recorded digests.
    pub meta: TraceMeta,
    /// The decoded schedule-event stream, in deterministic total order.
    pub events: Vec<Event>,
    /// Token domain of each event, parallel to `events`. All
    /// [`DomainId::ROOT`] for unsharded traces; sharded traces stamp each
    /// event with the shard that produced it.
    pub domains: Vec<DomainId>,
    /// Per-page cumulative-hash checkpoints.
    pub checkpoints: Vec<Checkpoint>,
}

pub(crate) fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

pub(crate) fn read_u64(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

pub(crate) fn slice<'a>(
    b: &'a [u8],
    off: u64,
    len: u64,
    what: &'static str,
) -> Result<&'a [u8], TraceError> {
    let off = usize::try_from(off).map_err(|_| TraceError::Corrupt { what })?;
    let len = usize::try_from(len).map_err(|_| TraceError::Corrupt { what })?;
    let end = off.checked_add(len).ok_or(TraceError::Corrupt { what })?;
    if end > b.len() {
        return Err(TraceError::Truncated { what });
    }
    Ok(&b[off..end])
}

/// The fixed header is present and carries this build's magic, container
/// version and codec version: the first rule of [`Trace::from_bytes`] and
/// of salvage alike.
pub(crate) fn check_header(bytes: &[u8]) -> Result<(), TraceError> {
    if bytes.len() < HEADER_LEN {
        return Err(TraceError::Truncated { what: "header" });
    }
    if bytes[0..8] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let container_v = read_u32(bytes, 8);
    if container_v != CONTAINER_VERSION {
        return Err(TraceError::BadVersion {
            what: "container",
            found: container_v,
            expected: CONTAINER_VERSION,
        });
    }
    let codec_v = read_u32(bytes, 40);
    if codec_v != CODEC_VERSION {
        return Err(TraceError::BadVersion {
            what: "event codec",
            found: codec_v,
            expected: CODEC_VERSION,
        });
    }
    Ok(())
}

/// One event page whose framing and digest hold; its events are not yet
/// decoded.
pub(crate) struct RawPage<'a> {
    count: usize,
    payload: &'a [u8],
    /// Offset in the scanned bytes one past this page.
    pub(crate) end: usize,
}

/// Reads the page framed at `pos`: its 16-byte frame is complete, its
/// event count is in `1..=PAGE_EVENTS`, its payload is non-empty, fully
/// present and matches the frame's FNV-1a digest. [`Trace::from_bytes`]
/// returns the error; salvage calls the first one the tear — so a page
/// the one accepts is a page the other accepts.
pub(crate) fn read_page(bytes: &[u8], pos: usize) -> Result<RawPage<'_>, TraceError> {
    if bytes.len().saturating_sub(pos) < 16 {
        return Err(TraceError::Truncated { what: "event page" });
    }
    let count = read_u32(bytes, pos) as usize;
    let len = read_u32(bytes, pos + 4);
    let stored = read_u64(bytes, pos + 8);
    if count == 0 || count > PAGE_EVENTS || len == 0 {
        return Err(TraceError::Corrupt {
            what: "event page frame",
        });
    }
    let start = pos + 16;
    let payload = slice(bytes, start as u64, len as u64, "event page payload")?;
    let computed = fnv_of(payload);
    if computed != stored {
        return Err(TraceError::ChecksumMismatch {
            what: "event page",
            stored,
            computed,
        });
    }
    Ok(RawPage {
        count,
        payload,
        end: start + payload.len(),
    })
}

impl RawPage<'_> {
    /// Decodes the page's events onto `events` and `domains`, folding each
    /// into `hash`: exactly `count` events consuming exactly the payload.
    /// All or nothing — on error the three are as they were, so a page
    /// that is digest-valid but structurally broken contributes nothing.
    pub(crate) fn decode_onto(
        &self,
        events: &mut Vec<Event>,
        domains: &mut Vec<DomainId>,
        hash: &mut Fnv1a,
    ) -> Result<(), TraceError> {
        let (before, hash_before) = (events.len(), *hash);
        let mut st = CodecState::default();
        let mut p = 0usize;
        let mut decode = || {
            for _ in 0..self.count {
                let (domain, ev) = decode_in_domain(self.payload, &mut p, &mut st)?;
                ev.fold_domain(domain, hash);
                events.push(ev);
                domains.push(domain);
            }
            if p != self.payload.len() {
                return Err(TraceError::Corrupt {
                    what: "event page length",
                });
            }
            Ok(())
        };
        let res = decode();
        if res.is_err() {
            events.truncate(before);
            domains.truncate(before);
            *hash = hash_before;
        }
        res
    }
}

/// Locates stream `id` in the directory and verifies its digest.
/// Unknown directory ids are skipped: future minor revisions may append
/// streams without breaking old readers.
fn find_stream<'a>(bytes: &'a [u8], dir: &[u8], id: StreamId) -> Result<&'a [u8], TraceError> {
    for chunk in dir.chunks_exact(DIR_ENTRY_LEN) {
        let entry = DirEntry::from_bytes(chunk.try_into().map_err(|_| TraceError::Corrupt {
            what: "directory entry",
        })?);
        if entry.id != id as u32 {
            continue;
        }
        let s = slice(bytes, entry.offset, entry.len, "stream")?;
        let computed = fnv_of(s);
        if computed != entry.fnv {
            return Err(TraceError::ChecksumMismatch {
                what: "stream",
                stored: entry.fnv,
                computed,
            });
        }
        return Ok(s);
    }
    Err(TraceError::Corrupt {
        what: "missing stream",
    })
}

impl Trace {
    /// Reads and validates a container file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Trace, TraceError> {
        Trace::from_bytes(&std::fs::read(path)?)
    }

    /// Validates and decodes a container image already in memory.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        check_header(bytes)?;
        let dir_offset = read_u64(bytes, 16);
        let dir_len = read_u64(bytes, 24);
        let dir_fnv = read_u64(bytes, 32);
        if dir_offset == 0 {
            // The header is only patched by TraceWriter::finish; offset 0
            // means the recording process died mid-run.
            return Err(TraceError::Truncated { what: "directory" });
        }
        let dir = slice(bytes, dir_offset, dir_len, "directory")?;
        let computed = fnv_of(dir);
        if computed != dir_fnv {
            return Err(TraceError::ChecksumMismatch {
                what: "directory",
                stored: dir_fnv,
                computed,
            });
        }
        if dir.len() % DIR_ENTRY_LEN != 0 {
            return Err(TraceError::Corrupt { what: "directory" });
        }

        let meta = TraceMeta::from_bytes(find_stream(bytes, dir, StreamId::Meta)?)?;
        let events_stream = find_stream(bytes, dir, StreamId::Events)?;
        let ckpt_stream = find_stream(bytes, dir, StreamId::Checkpoints)?;
        let perturb_stream = find_stream(bytes, dir, StreamId::Perturb)?;

        // CHECKPOINTS: fixed u64 count + (events, hash) pairs.
        if ckpt_stream.len() < 8 {
            return Err(TraceError::Truncated {
                what: "checkpoints",
            });
        }
        // The count comes from the file: compare it with what the stream
        // holds instead of multiplying it.
        let held = ckpt_stream.len() - 8;
        let n = held / 16;
        if held % 16 != 0 || read_u64(ckpt_stream, 0) != n as u64 {
            return Err(TraceError::Corrupt {
                what: "checkpoints",
            });
        }
        let checkpoints: Vec<Checkpoint> = (0..n)
            .map(|i| Checkpoint {
                events: read_u64(ckpt_stream, 8 + i * 16),
                hash: read_u64(ckpt_stream, 16 + i * 16),
            })
            .collect();

        // PERTURB: seed + plan digest, both mirrored in META.
        if perturb_stream.len() != 16 {
            return Err(TraceError::Corrupt {
                what: "perturb stream",
            });
        }
        if read_u64(perturb_stream, 0) != meta.perturb_seed
            || read_u64(perturb_stream, 8) != meta.perturb_plan
        {
            return Err(TraceError::Corrupt {
                what: "perturb stream (disagrees with meta)",
            });
        }

        // EVENTS: decode page by page, re-deriving every checkpoint. META's
        // count sizes the vectors, so it is first held to what the stream
        // can encode: an event is a tag byte and at least a thread id.
        if meta.event_count > (events_stream.len() / 2) as u64 {
            return Err(TraceError::Corrupt {
                what: "event count (disagrees with meta)",
            });
        }
        let mut events = Vec::with_capacity(meta.event_count as usize);
        let mut domains = Vec::with_capacity(meta.event_count as usize);
        let mut hash = Fnv1a::new();
        let mut pos = 0usize;
        let mut page_idx = 0usize;
        while pos < events_stream.len() {
            let page = read_page(events_stream, pos)?;
            page.decode_onto(&mut events, &mut domains, &mut hash)?;
            pos = page.end;
            let ck = checkpoints.get(page_idx).ok_or(TraceError::Corrupt {
                what: "checkpoint count",
            })?;
            if ck.events != events.len() as u64 || ck.hash != hash.digest() {
                return Err(TraceError::ChecksumMismatch {
                    what: "checkpoint",
                    stored: ck.hash,
                    computed: hash.digest(),
                });
            }
            page_idx += 1;
        }
        if page_idx != checkpoints.len() {
            return Err(TraceError::Corrupt {
                what: "checkpoint count",
            });
        }
        if events.len() as u64 != meta.event_count {
            return Err(TraceError::Corrupt {
                what: "event count (disagrees with meta)",
            });
        }
        let computed = hash.digest();
        if computed != meta.schedule_hash {
            return Err(TraceError::ChecksumMismatch {
                what: "schedule hash",
                stored: meta.schedule_hash,
                computed,
            });
        }

        Ok(Trace {
            meta,
            events,
            domains,
            checkpoints,
        })
    }

    /// The decoded stream as `(domain, event)` pairs, in schedule order.
    pub fn domain_events(&self) -> Vec<(DomainId, Event)> {
        self.domains
            .iter()
            .copied()
            .zip(self.events.iter().copied())
            .collect()
    }

    /// Re-encodes this trace to `path`, recomputing page digests,
    /// checkpoints, the event count and the schedule hash from
    /// `self.events`. Primarily for tests and tooling that edit a trace
    /// in memory (e.g. the tamper-divergence test): the written file is
    /// internally valid even if the events were modified.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<TraceMeta, TraceError> {
        let mut w = TraceWriter::create(path)?;
        for (i, ev) in self.events.iter().enumerate() {
            let domain = self.domains.get(i).copied().unwrap_or_default();
            w.push_in_domain(ev, domain)?;
        }
        w.finish(self.meta.clone())
    }
}
