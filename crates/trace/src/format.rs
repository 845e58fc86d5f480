//! Container constants, stream directory and error type.
//!
//! The byte-level layout implemented here is specified normatively in
//! `docs/TRACE_FORMAT.md` at the workspace root; the two must be kept in
//! lockstep. In brief, a `.dmtrace` file is:
//!
//! ```text
//! [ header (64 bytes, fixed) ]
//! [ stream 1: EVENTS       — paged, varint/delta-encoded ]
//! [ stream 0: META         — run identity + recorded digests ]
//! [ stream 2: CHECKPOINTS  — cumulative FNV-1a per event page ]
//! [ stream 3: PERTURB      — fault-injection plan seed + digest ]
//! [ stream directory (32 bytes per stream, FNV-1a protected) ]
//! ```
//!
//! The event stream comes first so the writer can stream it during the
//! run without knowing its final length; everything else is appended by
//! [`crate::TraceWriter::finish`], which then patches the directory
//! offset into the header. A file whose header still carries offset 0 was
//! never finished and is rejected as truncated.

use std::fmt;

use dmt_api::Fnv1a;

/// Magic bytes opening every trace container (`"DMTRACE\0"`).
pub const MAGIC: [u8; 8] = *b"DMTRACE\0";

/// Container layout version written and accepted by this build.
pub const CONTAINER_VERSION: u32 = 1;

/// Event codec version written and accepted by this build. Bumped when
/// the per-event byte encoding (tags, field order, delta rules) changes.
pub const CODEC_VERSION: u32 = 1;

/// Size of the fixed file header in bytes.
pub const HEADER_LEN: usize = 64;

/// Size of one stream-directory entry in bytes.
pub const DIR_ENTRY_LEN: usize = 32;

/// Schedule events per page of the event stream — also the checkpoint
/// interval: one cumulative-hash checkpoint is recorded per sealed page.
pub const PAGE_EVENTS: usize = 512;

/// Bytes of a page's frame: event count (`u32`), payload length (`u32`)
/// and the payload's FNV-1a digest (`u64`).
pub const PAGE_HEADER_LEN: usize = 16;

/// Stream identifiers, as stored in the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum StreamId {
    /// Run identity and recorded digests ([`crate::TraceMeta`]).
    Meta = 0,
    /// The paged schedule-event stream.
    Events = 1,
    /// Per-page cumulative schedule-hash checkpoints.
    Checkpoints = 2,
    /// Fault-injection plan seed and digest active during the recording.
    Perturb = 3,
}

/// Every error the container reader or writer can produce.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a trace container.
    BadMagic,
    /// The container or codec version is not one this build reads.
    BadVersion {
        /// What carried the unexpected version.
        what: &'static str,
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The file ends before a structure it promises is complete — e.g.
    /// a recording that crashed before [`crate::TraceWriter::finish`].
    Truncated {
        /// The structure that was cut short.
        what: &'static str,
    },
    /// A stored FNV-1a digest does not match the bytes it covers.
    ChecksumMismatch {
        /// The structure whose digest failed.
        what: &'static str,
        /// Digest stored in the file.
        stored: u64,
        /// Digest recomputed from the bytes.
        computed: u64,
    },
    /// A structurally invalid value (impossible offset, unknown event
    /// tag, inconsistent counts) that checksums alone cannot explain.
    Corrupt {
        /// What was structurally invalid.
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a dmtrace container (bad magic)"),
            TraceError::BadVersion {
                what,
                found,
                expected,
            } => write!(
                f,
                "unsupported {what} version {found} (this build reads {expected})"
            ),
            TraceError::Truncated { what } => {
                write!(f, "trace truncated inside {what} (unfinished recording?)")
            }
            TraceError::ChecksumMismatch {
                what,
                stored,
                computed,
            } => write!(
                f,
                "{what} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::Corrupt { what } => write!(f, "trace corrupt: invalid {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

/// One entry of the end-of-file stream directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Stream identifier (a [`StreamId`] value; unknown ids are skipped
    /// by readers, which is the forward-compatibility rule).
    pub id: u32,
    /// Byte offset of the stream from the start of the file.
    pub offset: u64,
    /// Stream length in bytes.
    pub len: u64,
    /// FNV-1a digest of the stream's bytes.
    pub fnv: u64,
}

impl DirEntry {
    /// Serializes this entry into its fixed 32-byte form.
    pub fn to_bytes(self) -> [u8; DIR_ENTRY_LEN] {
        let mut b = [0u8; DIR_ENTRY_LEN];
        b[0..4].copy_from_slice(&self.id.to_le_bytes());
        // bytes 4..8 reserved (zero)
        b[8..16].copy_from_slice(&self.offset.to_le_bytes());
        b[16..24].copy_from_slice(&self.len.to_le_bytes());
        b[24..32].copy_from_slice(&self.fnv.to_le_bytes());
        b
    }

    /// Parses one fixed 32-byte directory entry.
    pub fn from_bytes(b: &[u8; DIR_ENTRY_LEN]) -> DirEntry {
        DirEntry {
            id: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            offset: u64::from_le_bytes(b[8..16].try_into().unwrap_or([0; 8])),
            len: u64::from_le_bytes(b[16..24].try_into().unwrap_or([0; 8])),
            fnv: u64::from_le_bytes(b[24..32].try_into().unwrap_or([0; 8])),
        }
    }
}

/// FNV-1a over a byte slice (the digest every stream and the directory
/// itself are protected with).
pub fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.digest()
}

/// Byte offset, within the header, of the write-ahead identity record's
/// length field (`u32`), followed at [`IDENT_FNV_OFFSET`] by its FNV-1a
/// digest (`u64`). Both are zero in containers written before durable
/// recording existed (the fields live in the formerly-reserved header
/// tail, so such files keep parsing identically).
pub const IDENT_LEN_OFFSET: usize = 48;

/// Byte offset of the write-ahead identity record's FNV-1a digest.
pub const IDENT_FNV_OFFSET: usize = 52;

/// Assembles the fixed 64-byte header.
///
/// `dir_offset`/`dir_len`/`dir_fnv` are zero while the recording is in
/// progress and patched in by [`crate::TraceWriter::finish`].
/// `ident_len`/`ident_fnv` describe the write-ahead identity record
/// (a provisional META image written immediately after the header at
/// recording start, so crashed runs can be salvaged); both are zero for
/// writers that do not emit one.
pub fn header_bytes(
    dir_offset: u64,
    dir_len: u64,
    dir_fnv: u64,
    streams: u32,
    ident_len: u32,
    ident_fnv: u64,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&CONTAINER_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(HEADER_LEN as u32).to_le_bytes());
    h[16..24].copy_from_slice(&dir_offset.to_le_bytes());
    h[24..32].copy_from_slice(&dir_len.to_le_bytes());
    h[32..40].copy_from_slice(&dir_fnv.to_le_bytes());
    h[40..44].copy_from_slice(&CODEC_VERSION.to_le_bytes());
    h[44..48].copy_from_slice(&streams.to_le_bytes());
    h[IDENT_LEN_OFFSET..IDENT_FNV_OFFSET].copy_from_slice(&ident_len.to_le_bytes());
    h[IDENT_FNV_OFFSET..IDENT_FNV_OFFSET + 8].copy_from_slice(&ident_fnv.to_le_bytes());
    // bytes 60..64 reserved (zero)
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_entry_roundtrips() {
        let e = DirEntry {
            id: 2,
            offset: 0xDEAD_BEEF,
            len: 4096,
            fnv: 0x0123_4567_89AB_CDEF,
        };
        assert_eq!(DirEntry::from_bytes(&e.to_bytes()), e);
    }

    #[test]
    fn header_carries_magic_and_versions() {
        let h = header_bytes(100, 64, 7, 4, 0, 0);
        assert_eq!(&h[0..8], &MAGIC);
        assert_eq!(u32::from_le_bytes([h[8], h[9], h[10], h[11]]), 1);
        assert_eq!(
            u64::from_le_bytes(h[16..24].try_into().unwrap()),
            100,
            "directory offset"
        );
    }

    #[test]
    fn header_carries_identity_fields_in_the_reserved_tail() {
        let h = header_bytes(100, 64, 7, 4, 33, 0xFEED_F00D);
        assert_eq!(
            u32::from_le_bytes(h[IDENT_LEN_OFFSET..IDENT_FNV_OFFSET].try_into().unwrap()),
            33
        );
        assert_eq!(
            u64::from_le_bytes(
                h[IDENT_FNV_OFFSET..IDENT_FNV_OFFSET + 8]
                    .try_into()
                    .unwrap()
            ),
            0xFEED_F00D
        );
        // Without an identity record the tail is all zero — byte-identical
        // to headers written before durable recording existed.
        let legacy = header_bytes(100, 64, 7, 4, 0, 0);
        assert!(legacy[IDENT_LEN_OFFSET..].iter().all(|&b| b == 0));
    }
}
