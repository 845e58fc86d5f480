//! Streaming container writer and the [`DiskSink`] trace sink.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use dmt_api::sync::Mutex;
use dmt_api::trace::{Event, TraceSink};
use dmt_api::{DomainId, Fnv1a};

use crate::codec::{encode_in_domain, CodecState};
use crate::format::{
    fnv_of, header_bytes, DirEntry, StreamId, TraceError, HEADER_LEN, PAGE_EVENTS, PAGE_HEADER_LEN,
};
use crate::meta::TraceMeta;

/// The write buffer: the pages of one flush cadence (8 of a few KiB each)
/// leave in one `write`.
const BUF_BYTES: usize = 64 << 10;

/// The storage a [`TraceWriter`] streams into. [`File`] is the normal
/// medium; the stress harness substitutes seeded fallible media (short
/// writes, ENOSPC, torn tails) to drill the salvage path.
///
/// The writer `write`s at its flush cadence and calls `sync_data` once, at
/// [`TraceWriter::finish`]: a cadence write survives a killed process, and
/// only the final sync survives a power loss. Media without a durability
/// notion keep the no-op default.
pub trait TraceMedia: Write + Seek + Send {
    /// Flushes written bytes to durable storage (no-op by default).
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl TraceMedia for File {
    fn sync_data(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

/// Streams schedule events into a `.dmtrace` container.
///
/// Events are buffered into pages of [`PAGE_EVENTS`]; each sealed page
/// carries its own event count, byte length and FNV-1a digest, and adds
/// one cumulative-schedule-hash checkpoint. Call
/// [`finish`](TraceWriter::finish) to append the META, CHECKPOINTS and
/// PERTURB streams plus the directory and patch the header — a file that
/// was never finished is rejected by [`crate::Trace::open`] as truncated,
/// but remains recoverable by [`crate::Trace::salvage`] when it was
/// created with a write-ahead identity record
/// ([`create_with_identity`](TraceWriter::create_with_identity)).
///
/// # Examples
///
/// ```no_run
/// use dmt_trace::{TraceMeta, TraceWriter};
/// use dmt_api::{trace::Event, Tid};
///
/// let mut w = TraceWriter::create("run.dmtrace")?;
/// w.push(&Event::TokenAcquire { tid: Tid(0), clock: 100 })?;
/// # let meta: TraceMeta = todo!();
/// w.finish(meta)?; // meta from the finished run's report
/// # Ok::<(), dmt_trace::TraceError>(())
/// ```
pub struct TraceWriter {
    file: BufWriter<Box<dyn TraceMedia>>,
    /// Bytes written past the events-stream start (== its length so far).
    written: u64,
    /// File offset the events stream starts at (`HEADER_LEN` plus the
    /// write-ahead identity record, when one was emitted).
    events_start: u64,
    ident_len: u32,
    ident_fnv: u64,
    page_buf: Vec<u8>,
    /// The last sealed page's payload: the EVENTS-stream digest absorbs
    /// it while the next page's digest is taken, or at `finish`.
    sealed: Vec<u8>,
    page_events: u32,
    codec: CodecState,
    events_total: u64,
    hash: Fnv1a,
    /// The EVENTS-stream digest of every byte written but `sealed`.
    events_fnv: Fnv1a,
    checkpoints: Vec<(u64, u64)>,
    /// Flush cadence: hand the buffered bytes to the OS after every this
    /// many sealed pages (0 = when the buffer fills, and at finish).
    /// Bounds how much schedule a SIGKILL can cost the salvage path; only
    /// `finish` syncs.
    flush_every_pages: u32,
    pages_since_flush: u32,
}

impl TraceWriter {
    /// Creates `path` (truncating any existing file) and writes the
    /// provisional header. No identity record, no flush cadence:
    /// the resulting container is salvageable only once finished.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<TraceWriter, TraceError> {
        TraceWriter::create_on(Box::new(File::create(path)?), None, 0)
    }

    /// Creates `path` with a **write-ahead identity record**: `ident`
    /// (digests need not be known yet — zeros are fine) is serialized
    /// immediately after the header, and its length/digest are stamped
    /// into the header's identity fields, so a recording that never
    /// reaches [`finish`](TraceWriter::finish) can still be salvaged
    /// ([`crate::Trace::salvage`]). `flush_every_pages` sets the flush
    /// cadence (0 = when the buffer fills, and at finish).
    pub fn create_with_identity<P: AsRef<Path>>(
        path: P,
        ident: &TraceMeta,
        flush_every_pages: u32,
    ) -> Result<TraceWriter, TraceError> {
        TraceWriter::create_on(
            Box::new(File::create(path)?),
            Some(ident),
            flush_every_pages,
        )
    }

    /// Like [`create_with_identity`](TraceWriter::create_with_identity),
    /// but onto caller-supplied [`TraceMedia`] — the hook the stress
    /// harness uses to inject I/O faults under the writer.
    pub fn create_on(
        media: Box<dyn TraceMedia>,
        ident: Option<&TraceMeta>,
        flush_every_pages: u32,
    ) -> Result<TraceWriter, TraceError> {
        let ident_bytes = ident.map(|m| m.to_bytes());
        let (ident_len, ident_fnv) = match &ident_bytes {
            Some(b) => (b.len() as u32, fnv_of(b)),
            None => (0, 0),
        };
        let mut file = BufWriter::with_capacity(BUF_BYTES, media);
        file.write_all(&header_bytes(0, 0, 0, 0, ident_len, ident_fnv))?;
        if let Some(b) = &ident_bytes {
            file.write_all(b)?;
        }
        // The header + identity record are the salvage anchor: make them
        // OS-visible immediately so even an instant kill leaves a
        // well-formed (zero-event) salvageable container.
        if ident_bytes.is_some() {
            file.flush()?;
        }
        Ok(TraceWriter {
            file,
            written: 0,
            events_start: HEADER_LEN as u64 + ident_len as u64,
            ident_len,
            ident_fnv,
            page_buf: Vec::with_capacity(PAGE_EVENTS * 8),
            sealed: Vec::with_capacity(PAGE_EVENTS * 8),
            page_events: 0,
            codec: CodecState::default(),
            events_total: 0,
            hash: Fnv1a::new(),
            events_fnv: Fnv1a::new(),
            checkpoints: Vec::new(),
            flush_every_pages,
            pages_since_flush: 0,
        })
    }

    /// Appends one root-domain schedule event, sealing a page when full.
    pub fn push(&mut self, ev: &Event) -> Result<(), TraceError> {
        self.push_in_domain(ev, DomainId::ROOT)
    }

    /// Appends one schedule event stamped with its token domain. Root
    /// domain events encode exactly as [`push`](TraceWriter::push); other
    /// domains cost a domain-switch marker whenever consecutive events
    /// change domain, and fold the domain into the schedule hash.
    pub fn push_in_domain(&mut self, ev: &Event, domain: DomainId) -> Result<(), TraceError> {
        encode_in_domain(ev, domain, &mut self.codec, &mut self.page_buf);
        ev.fold_domain(domain, &mut self.hash);
        self.page_events += 1;
        self.events_total += 1;
        if self.page_events as usize >= PAGE_EVENTS {
            self.seal_page()?;
        }
        Ok(())
    }

    /// Schedule events pushed so far.
    pub fn events(&self) -> u64 {
        self.events_total
    }

    /// Cumulative schedule hash of the events pushed so far.
    pub fn schedule_hash(&self) -> u64 {
        self.hash.digest()
    }

    /// Seals the current partial page (if any) and flushes everything to
    /// the OS — a durability checkpoint. After this call the whole
    /// schedule so far is recoverable by [`crate::Trace::salvage`] even
    /// if the process is killed before [`finish`](TraceWriter::finish).
    pub fn checkpoint_now(&mut self) -> Result<(), TraceError> {
        self.seal_page()?;
        self.file.flush()?;
        self.pages_since_flush = 0;
        Ok(())
    }

    /// Writes the page: its header (event count, byte length, digest),
    /// then its payload. One loop takes the page's digest and absorbs the
    /// previous page's payload into the EVENTS-stream digest, which must
    /// absorb this page's header, and so its digest, before its payload.
    fn seal_page(&mut self) -> io::Result<()> {
        if self.page_events == 0 {
            return Ok(());
        }
        let mut page = Fnv1a::new();
        page.update_beside(&self.page_buf, &mut self.events_fnv, &self.sealed);
        let mut header = [0u8; PAGE_HEADER_LEN];
        header[..4].copy_from_slice(&self.page_events.to_le_bytes());
        header[4..8].copy_from_slice(&(self.page_buf.len() as u32).to_le_bytes());
        header[8..].copy_from_slice(&page.digest().to_le_bytes());
        self.file.write_all(&header)?;
        self.file.write_all(&self.page_buf)?;
        self.events_fnv.update(&header);
        self.written += (PAGE_HEADER_LEN + self.page_buf.len()) as u64;
        std::mem::swap(&mut self.page_buf, &mut self.sealed);
        self.page_buf.clear();
        self.page_events = 0;
        // Delta state resets per page so each page decodes independently
        // — a truncated tail never poisons earlier pages.
        self.codec = CodecState::default();
        self.checkpoints
            .push((self.events_total, self.hash.digest()));
        if self.flush_every_pages > 0 {
            self.pages_since_flush += 1;
            if self.pages_since_flush >= self.flush_every_pages {
                self.file.flush()?;
                self.pages_since_flush = 0;
            }
        }
        Ok(())
    }

    /// Seals the final page, writes the remaining streams and directory,
    /// and patches the header. Consumes the writer; the returned
    /// [`TraceMeta`] is `meta` with the event count, schedule hash and
    /// checkpoint interval the writer actually observed stamped in.
    pub fn finish(mut self, meta: TraceMeta) -> Result<TraceMeta, TraceError> {
        self.seal_page()?;
        self.events_fnv.update(&self.sealed);
        let meta = TraceMeta {
            event_count: self.events_total,
            schedule_hash: self.hash.digest(),
            checkpoint_interval: PAGE_EVENTS as u64,
            ..meta
        };

        let events_entry = DirEntry {
            id: StreamId::Events as u32,
            offset: self.events_start,
            len: self.written,
            fnv: self.events_fnv.digest(),
        };

        let meta_bytes = meta.to_bytes();
        let mut ckpt_bytes = Vec::with_capacity(8 + self.checkpoints.len() * 16);
        ckpt_bytes.extend_from_slice(&(self.checkpoints.len() as u64).to_le_bytes());
        for (events, digest) in &self.checkpoints {
            ckpt_bytes.extend_from_slice(&events.to_le_bytes());
            ckpt_bytes.extend_from_slice(&digest.to_le_bytes());
        }
        let mut perturb_bytes = Vec::with_capacity(16);
        perturb_bytes.extend_from_slice(&meta.perturb_seed.to_le_bytes());
        perturb_bytes.extend_from_slice(&meta.perturb_plan.to_le_bytes());

        let mut offset = self.events_start + self.written;
        let mut entries = vec![events_entry];
        for (id, bytes) in [
            (StreamId::Meta, &meta_bytes),
            (StreamId::Checkpoints, &ckpt_bytes),
            (StreamId::Perturb, &perturb_bytes),
        ] {
            self.file.write_all(bytes)?;
            entries.push(DirEntry {
                id: id as u32,
                offset,
                len: bytes.len() as u64,
                fnv: fnv_of(bytes),
            });
            offset += bytes.len() as u64;
        }

        let dir_offset = offset;
        let mut dir_bytes = Vec::with_capacity(4 * crate::format::DIR_ENTRY_LEN);
        for e in entries {
            dir_bytes.extend_from_slice(&e.to_bytes());
        }
        self.file.write_all(&dir_bytes)?;

        let header = header_bytes(
            dir_offset,
            dir_bytes.len() as u64,
            fnv_of(&dir_bytes),
            4,
            self.ident_len,
            self.ident_fnv,
        );
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| TraceError::Io(io::Error::other(e.to_string())))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(meta)
    }
}

struct DiskState {
    writer: Option<TraceWriter>,
    final_hash: u64,
    io_error: Option<TraceError>,
    /// Human-readable fault description recorded the moment a mid-run
    /// write error degraded the recording (events captured until then).
    fault: Option<String>,
}

/// A [`TraceSink`] that streams schedule events straight to disk.
///
/// Attach via `TraceHandle::to` like any other sink; after the run, call
/// [`finish`](DiskSink::finish) with the run's [`TraceMeta`] to complete
/// the container. An I/O error mid-run stops writing (the run itself is
/// unaffected), is surfaced immediately through [`TraceSink::fault`] —
/// which the runtime stamps into `RunReport::fault` as a degraded
/// recording — and again by `finish`.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use dmt_api::TraceHandle;
/// use dmt_trace::DiskSink;
///
/// let sink = Arc::new(DiskSink::create("run.dmtrace")?);
/// let trace = TraceHandle::to(Arc::clone(&sink) as _);
/// // ... build a runtime with `trace` in its CommonConfig and run ...
/// # let meta = todo!();
/// let meta = sink.finish(meta)?;
/// # Ok::<(), dmt_trace::TraceError>(())
/// ```
pub struct DiskSink {
    st: Mutex<DiskState>,
}

impl DiskSink {
    /// Creates the container file and a sink streaming into it (no
    /// identity record — the pre-durability layout).
    pub fn create<P: AsRef<Path>>(path: P) -> Result<DiskSink, TraceError> {
        Ok(DiskSink::on_writer(TraceWriter::create(path)?))
    }

    /// Creates a **crash-durable** sink: writes the write-ahead identity
    /// record `ident` at the start of the container and hands the file's
    /// bytes to the OS (a `write`, not a sync) after every
    /// `flush_every_pages` sealed pages, so a killed process loses at most
    /// that many pages, the unsealed page and the batch a token holder
    /// held (≤ 512 events of one tenure; see [`crate::Trace::salvage`]).
    /// A power loss before [`finish`](DiskSink::finish)'s sync can lose
    /// more.
    pub fn create_durable<P: AsRef<Path>>(
        path: P,
        ident: &TraceMeta,
        flush_every_pages: u32,
    ) -> Result<DiskSink, TraceError> {
        Ok(DiskSink::on_writer(TraceWriter::create_with_identity(
            path,
            ident,
            flush_every_pages,
        )?))
    }

    /// A sink over caller-supplied [`TraceMedia`] (the stress harness's
    /// fault-injection hook).
    pub fn create_on(
        media: Box<dyn TraceMedia>,
        ident: Option<&TraceMeta>,
        flush_every_pages: u32,
    ) -> Result<DiskSink, TraceError> {
        Ok(DiskSink::on_writer(TraceWriter::create_on(
            media,
            ident,
            flush_every_pages,
        )?))
    }

    fn on_writer(writer: TraceWriter) -> DiskSink {
        DiskSink {
            st: Mutex::new(DiskState {
                writer: Some(writer),
                final_hash: 0,
                io_error: None,
                fault: None,
            }),
        }
    }

    /// Seals and flushes the current page — a durability checkpoint
    /// making everything recorded so far salvageable. No-op after a
    /// write fault or `finish`.
    pub fn seal_and_flush(&self) -> Result<(), TraceError> {
        let mut st = self.st.lock();
        if let Some(w) = st.writer.as_mut() {
            w.checkpoint_now()?;
        }
        Ok(())
    }

    /// Completes the container: seals the last page, writes META (from
    /// `meta`, with the observed event count and schedule hash stamped
    /// in), CHECKPOINTS, PERTURB and the directory. Returns the final
    /// meta, or the first error the recording hit.
    pub fn finish(&self, meta: TraceMeta) -> Result<TraceMeta, TraceError> {
        let mut st = self.st.lock();
        if let Some(e) = st.io_error.take() {
            return Err(e);
        }
        let writer = st.writer.take().ok_or(TraceError::Corrupt {
            what: "sink finished twice",
        })?;
        st.final_hash = writer.schedule_hash();
        writer.finish(meta)
    }
}

impl TraceSink for DiskSink {
    fn emit(&self, ev: &Event, in_schedule: bool, domain: DomainId) {
        if in_schedule {
            self.emit_all(&[(*ev, true)], domain);
        }
    }

    fn emit_all(&self, evs: &[(Event, bool)], domain: DomainId) {
        let mut st = self.st.lock();
        let Some(w) = st.writer.as_mut() else {
            return;
        };
        let failed = evs
            .iter()
            .filter(|(_, s)| *s)
            .find_map(|(ev, _)| w.push_in_domain(ev, domain).err())
            .map(|e| (e, w.events(), w.schedule_hash()));
        if let Some((e, events, hash)) = failed {
            // Stop recording but let the run itself continue. The fault
            // is visible immediately (RunReport::fault marks the run's
            // recording as degraded) and the error object itself
            // resurfaces at finish().
            st.fault = Some(format!(
                "degraded recording: trace write failed at event #{events}: {e}"
            ));
            st.final_hash = hash;
            st.io_error = Some(e);
            st.writer = None;
        }
    }

    fn schedule_hash(&self) -> u64 {
        let st = self.st.lock();
        st.writer
            .as_ref()
            .map_or(st.final_hash, |w| w.schedule_hash())
    }

    fn fault(&self) -> Option<String> {
        self.st.lock().fault.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;
    use std::sync::Arc;

    use dmt_api::{MutexId, Tid};

    use super::*;
    use crate::format::DIR_ENTRY_LEN;
    use crate::reader::{read_u32, read_u64};
    use crate::Trace;

    /// In-memory media the test can read back, counting its `write`s.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<(Cursor<Vec<u8>>, u64)>>);

    impl Shared {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().0.get_ref().clone()
        }

        fn writes(&self) -> u64 {
            self.0.lock().1
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut m = self.0.lock();
            m.1 += 1;
            m.0.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Seek for Shared {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.0.lock().0.seek(pos)
        }
    }

    impl TraceMedia for Shared {}

    fn ident() -> TraceMeta {
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
            commit_log_hash: 0,
            output_hash: 0,
            checkpoint_interval: 0,
            panic_site: 0,
            panic_victim: 0,
            panic_nth: 0,
        }
    }

    /// Events whose encodings vary in length, so consecutive pages differ
    /// in length and both tails of the one-pass loop run.
    fn events(n: u64, seed: u64) -> Vec<Event> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let tid = Tid((x % 5) as u32);
                if x.is_multiple_of(3) {
                    Event::MutexLock {
                        tid,
                        mutex: MutexId((x >> 40) as u32 % 64),
                        ticket: i,
                    }
                } else {
                    Event::TokenAcquire {
                        tid,
                        clock: i * (x >> 50),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn every_digest_is_the_fnv_of_the_bytes_it_covers() {
        let media = Shared::default();
        let mut w = TraceWriter::create_on(Box::new(media.clone()), Some(&ident()), 2).unwrap();
        let evs = events(700 + 3 * PAGE_EVENTS as u64 + 64, 7);
        let (head, tail) = evs.split_at(700);
        for ev in head {
            w.push(ev).unwrap();
        }
        // Mid-page: seals a short page between full ones.
        w.checkpoint_now().unwrap();
        for ev in tail {
            w.push(ev).unwrap();
        }
        w.finish(ident()).unwrap();
        let bytes = media.bytes();

        let (dir_offset, dir_len) = (read_u64(&bytes, 16), read_u64(&bytes, 24));
        let dir = &bytes[dir_offset as usize..(dir_offset + dir_len) as usize];
        let entry = dir
            .chunks_exact(DIR_ENTRY_LEN)
            .map(|e| DirEntry::from_bytes(e.try_into().unwrap()))
            .find(|e| e.id == StreamId::Events as u32)
            .unwrap();
        let start = HEADER_LEN as u64 + u64::from(read_u32(&bytes, 48));
        assert_eq!(entry.offset, start, "the stream starts past the identity");
        let stream = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        assert_eq!(entry.fnv, fnv_of(stream), "the EVENTS stream digest");

        let (mut at, mut counts) = (0, Vec::new());
        while at < stream.len() {
            let count = read_u32(stream, at);
            let len = read_u32(stream, at + 4) as usize;
            let payload = &stream[at + PAGE_HEADER_LEN..at + PAGE_HEADER_LEN + len];
            assert_eq!(
                read_u64(stream, at + 8),
                fnv_of(payload),
                "page {}",
                counts.len()
            );
            counts.push(count as usize);
            at += PAGE_HEADER_LEN + len;
        }
        assert_eq!(counts, [512, 188, 512, 512, 512, 64]);
        assert_eq!(Trace::from_bytes(&bytes).unwrap().events, evs);
    }

    #[test]
    fn a_flush_cadence_is_one_write() {
        let media = Shared::default();
        let mut w = TraceWriter::create_on(Box::new(media.clone()), Some(&ident()), 8).unwrap();
        let anchor = media.writes();
        for (i, ev) in events(16 * PAGE_EVENTS as u64, 3).iter().enumerate() {
            w.push(ev).unwrap();
            let pages = (i + 1) as u64 / PAGE_EVENTS as u64;
            assert_eq!(media.writes(), anchor + pages / 8, "after event {i}");
        }
    }
}
