//! Salvage: recover the valid prefix of an unfinished or torn container.
//!
//! [`Trace::open`] demands a *finished* container — directory present,
//! every digest valid end to end. A recording that panicked, deadlocked,
//! was SIGKILLed or hit an I/O fault never reached
//! [`crate::TraceWriter::finish`], so its header still carries directory
//! offset 0 and `open` rejects it as truncated. But the event stream is
//! self-describing: every page carries its own count, length and FNV-1a
//! digest, and the codec's delta state resets at page boundaries, so each
//! complete page decodes independently of the torn tail.
//! [`Trace::salvage`] exploits that: it scans forward through
//! digest-valid pages, stops at the first tear, and reconstructs a
//! fully-consistent [`Trace`] for the recovered prefix — identity coming
//! from the write-ahead identity record that durable recordings
//! ([`crate::TraceWriter::create_with_identity`]) emit at start of file.
//!
//! The recovered prefix is exactly as trustworthy as a finished
//! container's: nothing past a failed digest is ever accepted, and a
//! page that decodes to the wrong event count or leaves trailing bytes
//! is treated as torn, not patched up.

use std::path::Path;

use dmt_api::trace::Event;
use dmt_api::{DomainId, Fnv1a};

use crate::format::{
    fnv_of, TraceError, HEADER_LEN, IDENT_FNV_OFFSET, IDENT_LEN_OFFSET, PAGE_EVENTS,
};
use crate::meta::TraceMeta;
use crate::reader::{check_header, read_page, read_u32, read_u64, Checkpoint, Trace};

/// What salvage recovered and what it had to give up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossReport {
    /// Complete, digest-valid event pages recovered.
    pub pages_recovered: u64,
    /// Schedule events in the recovered prefix.
    pub events_recovered: u64,
    /// Byte offset of the tear: the first file offset past the last
    /// valid page (equals the file length when nothing was torn).
    pub tear_offset: u64,
    /// File bytes past the tear that could not be validated. At most
    /// `16 + page bytes` of schedule data — the unsealed tail page —
    /// plus whatever the durable-flush cadence had not yet flushed.
    pub bytes_lost: u64,
    /// True when the container was actually finished and fully valid —
    /// salvage recovered everything and the trace equals what
    /// [`Trace::open`] would return.
    pub complete: bool,
}

/// The salvaged prefix of a crashed recording: an internally consistent
/// [`Trace`] (its meta's event count, schedule hash and checkpoints all
/// describe the *recovered prefix*) plus the [`LossReport`] saying how
/// much of the original run it covers.
///
/// The contained trace replays like any finished one; replaying past its
/// end is *exhaustion*, not divergence (see
/// [`ReplaySink::new_partial`](crate::ReplaySink::new_partial)).
#[derive(Clone, Debug)]
pub struct PartialTrace {
    /// The recovered, fully validated prefix.
    pub trace: Trace,
    /// How much was recovered and where the tear sits.
    pub loss: LossReport,
}

impl Trace {
    /// Salvages whatever valid prefix `path` holds. See
    /// [`PartialTrace::from_bytes`] for the exact rules.
    pub fn salvage<P: AsRef<Path>>(path: P) -> Result<PartialTrace, TraceError> {
        PartialTrace::from_bytes(&std::fs::read(path)?)
    }
}

impl PartialTrace {
    /// Salvages a container image already in memory.
    ///
    /// Rules, in order:
    ///
    /// 1. The fixed header must be present and carry the right magic and
    ///    versions — otherwise this is not (recoverably) a trace at all.
    /// 2. If the directory offset is non-zero the file claims to be
    ///    finished: try the full [`Trace::from_bytes`] validation. If it
    ///    passes, the result is a zero-loss `PartialTrace`
    ///    (`loss.complete == true`). If it fails, fall through — a
    ///    finished-looking file with a torn body is salvaged like a
    ///    crashed one.
    /// 3. The write-ahead identity record (header bytes 48..60) must be
    ///    present and digest-valid; without it there is no trustworthy
    ///    run identity to attach the events to, and recordings made
    ///    before durable recording existed are rejected with a typed
    ///    error rather than guessed at.
    /// 4. Event pages are scanned forward from the end of the identity
    ///    record. A page is accepted only if its 16-byte header is
    ///    complete, its event count is in `1..=PAGE_EVENTS`, its payload
    ///    is fully present with a matching FNV-1a digest, and exactly
    ///    `count` events decode consuming exactly the payload. The first
    ///    page failing any of these is the tear; everything before it is
    ///    the recovered prefix, everything from it on is reported lost.
    ///
    /// Zero recovered events is still success (an empty but identified
    /// prefix); the caller decides whether that is useful.
    pub fn from_bytes(bytes: &[u8]) -> Result<PartialTrace, TraceError> {
        check_header(bytes)?;

        if read_u64(bytes, 16) != 0 {
            if let Ok(trace) = Trace::from_bytes(bytes) {
                let loss = LossReport {
                    pages_recovered: trace.checkpoints.len() as u64,
                    events_recovered: trace.events.len() as u64,
                    tear_offset: bytes.len() as u64,
                    bytes_lost: 0,
                    complete: true,
                };
                return Ok(PartialTrace { trace, loss });
            }
            // Finished-looking but torn: salvage the events prefix below.
        }

        let ident_len = read_u32(bytes, IDENT_LEN_OFFSET) as usize;
        let ident_fnv = read_u64(bytes, IDENT_FNV_OFFSET);
        if ident_len == 0 {
            return Err(TraceError::Corrupt {
                what: "unfinished container without a write-ahead identity record",
            });
        }
        let events_start = HEADER_LEN
            .checked_add(ident_len)
            .ok_or(TraceError::Corrupt {
                what: "identity record length",
            })?;
        if events_start > bytes.len() {
            return Err(TraceError::Truncated {
                what: "identity record",
            });
        }
        let ident = &bytes[HEADER_LEN..events_start];
        let computed = fnv_of(ident);
        if computed != ident_fnv {
            return Err(TraceError::ChecksumMismatch {
                what: "identity record",
                stored: ident_fnv,
                computed,
            });
        }
        let meta = TraceMeta::from_bytes(ident)?;

        // Forward scan over self-describing pages; the first page that
        // `read_page` or its decoding rejects is the tear. A page commits
        // atomically (`decode_onto`), so one that is digest-valid but
        // structurally broken contributes nothing.
        let mut events: Vec<Event> = Vec::new();
        let mut domains: Vec<DomainId> = Vec::new();
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut hash = Fnv1a::new();
        let mut pos = events_start;
        while let Ok(page) = read_page(bytes, pos) {
            if page
                .decode_onto(&mut events, &mut domains, &mut hash)
                .is_err()
            {
                break;
            }
            checkpoints.push(Checkpoint {
                events: events.len() as u64,
                hash: hash.digest(),
            });
            pos = page.end;
        }

        let meta = TraceMeta {
            event_count: events.len() as u64,
            schedule_hash: hash.digest(),
            checkpoint_interval: PAGE_EVENTS as u64,
            ..meta
        };
        let loss = LossReport {
            pages_recovered: checkpoints.len() as u64,
            events_recovered: events.len() as u64,
            tear_offset: pos as u64,
            bytes_lost: (bytes.len() - pos) as u64,
            complete: false,
        };
        Ok(PartialTrace {
            trace: Trace {
                meta,
                events,
                domains,
                checkpoints,
            },
            loss,
        })
    }
}
