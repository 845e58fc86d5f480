//! `dmt-trace`: the persistent record/replay trace container.
//!
//! A `.dmtrace` file captures everything needed to re-execute a
//! deterministic run and check it: the full schedule-event stream
//! (delta/varint coded, paged, per-page digests), cumulative-hash
//! checkpoints, the perturbation seed and plan, and an options
//! fingerprint identifying the configuration the schedule is valid for.
//! The byte-level layout is specified in `docs/TRACE_FORMAT.md`; this
//! crate is the reference implementation of that spec.
//!
//! * Recording: attach a [`DiskSink`] as the runtime's trace sink, then
//!   [`DiskSink::finish`] with the run's [`TraceMeta`].
//! * Reading: [`Trace::open`] fully validates the container (magic,
//!   versions, every digest, checkpoint re-derivation) before returning.
//! * Replaying: re-execute the run the META stream names and attach a
//!   [`ReplaySink`] to compare it event by event as it is emitted;
//!   [`ReplaySink::finish`] returns the verdict, a [`Replayed`].
//! * Salvaging: [`Trace::salvage`] recovers the digest-valid prefix of a
//!   recording that crashed before `finish` (panic, SIGKILL, I/O fault),
//!   returning a [`PartialTrace`] with a typed loss report.
//!
//! The crate has no dependencies outside the workspace and performs no
//! I/O except through [`TraceWriter`]/[`Trace::open`].

#![deny(missing_docs)]

pub mod codec;
pub mod format;
pub mod meta;
pub mod reader;
pub mod replay;
pub mod salvage;
pub mod varint;
pub mod writer;

pub use format::{
    StreamId, TraceError, CODEC_VERSION, CONTAINER_VERSION, DIR_ENTRY_LEN, HEADER_LEN, MAGIC,
    PAGE_EVENTS,
};
pub use meta::TraceMeta;
pub use reader::{Checkpoint, Trace};
pub use replay::{CheckpointFailure, ReplaySink, Replayed};
pub use salvage::{LossReport, PartialTrace};
pub use writer::{DiskSink, TraceMedia, TraceWriter};
