//! The asynchronous commit pipeline: a background settle pool that takes
//! byte merging, commit-log folding, version-GC execution and twin
//! preparation off the committer's critical path.
//!
//! **Not the default.** `Options::pipeline_commit` is off in every preset:
//! since the commit log's per-page term became `dmt_api::page_digest`
//! (~0.3 us a page, was 5.9 us of byte-serial FNV-1a), what a settle job
//! defers costs less than handing it over, and the serial commit is as
//! fast or faster on every end-to-end workload (docs/PERF.md "Commit
//! pipeline" has the tables, and this module's own microbenchmark, where
//! the pool's 6x became 0.5-1.3x). The pool stays
//! selectable, and `stress --pipe-diff` keeps checking it against the
//! serial path, until the frozen benchmark surface stops naming it; ROADMAP
//! item 3(b) then deletes it.
//!
//! Under the pipeline, [`crate::Segment::commit`] only *publishes*: it
//! diffs, installs page identities (deferred shells for conflicted pages)
//! and enqueues the heavy work here. Workers pop jobs FIFO, do all content
//! work (merging, page digests, twin copies) without any segment lock,
//! then *finalize* in strict issue order through an ordered frontier so
//! the commit-log digest and the collector's structural edits land exactly
//! as the serial path produces them.
//!
//! Determinism contract: everything schedule-visible (commit results, GC
//! plans, the eventual log digest) is decided at the deterministic publish
//! points under the segment lock; the pool only *executes* those
//! decisions. Its wall-clock progress is therefore unobservable to the
//! schedule, and a pipelined run's schedule, output and commit log equal
//! the serial run's bit for bit.
//!
//! Lock hierarchy (strictly inner-most last): finalization frontier →
//! segment inner → job queue. Workers never touch the frontier while
//! holding the segment lock, and the committer enqueues under the segment
//! lock so queue order always matches issue order.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dmt_api::sync::{Condvar, Mutex};
use dmt_api::{Tid, PAGE_SIZE};

use crate::merge::{self, DirtyMap};
use crate::page::{PageBuf, PageRef, PageTracker};
use crate::segment::{self, SegInner};

/// Backpressure bound on unfinalized jobs: a committer publishing past
/// this backlog waits (wall-clock only, off the segment lock) for the
/// frontier to advance, so background memory stays proportional to a
/// constant, not to run length. Not applied in the stalled-pool regime
/// (zero workers), where the backlog is *supposed* to grow until flush —
/// that is what the witness tightness test measures.
pub const MAX_PENDING: u64 = 64;

/// One conflicted page of a published version: merge `work` over `base`
/// using the publish-time dirty map, deliver into the deferred shell
/// `out`.
pub(crate) struct MergeJob {
    pub map: DirtyMap,
    pub twin: PageRef,
    pub work: PageRef,
    pub base: PageRef,
    pub out: PageRef,
}

/// Work item in the settle queue.
pub(crate) enum Job {
    /// Settle one published version: fill its deferred merges, digest its
    /// pages off-lock, then fold the log material at the frontier.
    Settle {
        seq: u64,
        id: u64,
        tid: Tid,
        merges: Vec<MergeJob>,
        log: Vec<(u32, PageRef)>,
    },
    /// Execute one planned collector pass (counts fixed at plan time).
    Gc {
        seq: u64,
        drops: usize,
        squashes: usize,
    },
    /// Pre-copy predicted next-chunk twins into the workspace's stash.
    PreTwin {
        stash: Arc<TwinStash>,
        pages: Vec<(u32, PageRef)>,
    },
    /// Worker termination sentinel (one per worker, pushed on drop).
    Shutdown,
}

/// Content-free remainder of a job, applied at the ordered frontier.
enum FinJob {
    Log {
        id: u64,
        tid: Tid,
        entries: Vec<(u64, u64)>,
    },
    Gc {
        drops: usize,
        squashes: usize,
    },
}

#[derive(Default)]
struct FinState {
    /// Next issue slot to finalize; jobs completing out of order park.
    next_seq: u64,
    parked: BTreeMap<u64, FinJob>,
}

/// Pipeline gauges and totals. Backlog-facing values feed the resource
/// witness; hit/miss totals are wall-clock-racy and report-only (they
/// never enter any digest or virtual-time account).
#[derive(Debug, Default)]
pub(crate) struct PipeStats {
    issued: AtomicU64,
    finalized: AtomicU64,
    pretwinned: AtomicU64,
    pretwin_hits: AtomicU64,
    pretwin_misses: AtomicU64,
    deferred_pages: AtomicU64,
}

impl PipeStats {
    /// Issued-but-unfinalized settle/GC jobs.
    pub(crate) fn pending_settles(&self) -> u64 {
        self.issued
            .load(Ordering::Relaxed)
            .saturating_sub(self.finalized.load(Ordering::Relaxed))
    }

    /// Prepared twin copies currently parked in stashes.
    pub(crate) fn pretwinned(&self) -> u64 {
        self.pretwinned.load(Ordering::Relaxed)
    }
}

/// Report-only lifetime totals harvested at teardown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineTotals {
    /// Pages published as deferred shells (merges taken off-token).
    pub deferred_pages: u64,
    /// Faults served by a prepared twin copy.
    pub pretwin_hits: u64,
    /// Prepared copies invalidated by an interleaving commit.
    pub pretwin_misses: u64,
}

/// A prepared fault: the source the copy was taken from (validity
/// witness) and the copy itself.
#[derive(Debug)]
struct PreparedTwin {
    src: PageRef,
    copy: Box<PageBuf>,
}

/// Per-workspace stash of pre-copied twins, filled by the pool from the
/// EWMA write-set prediction and consumed by the fault path.
#[derive(Debug)]
pub struct TwinStash {
    slots: Mutex<Vec<Option<PreparedTwin>>>,
    stats: Arc<PipeStats>,
}

impl TwinStash {
    pub(crate) fn new(npages: usize, stats: Arc<PipeStats>) -> Arc<TwinStash> {
        Arc::new(TwinStash {
            slots: Mutex::new((0..npages).map(|_| None).collect()),
            stats,
        })
    }

    /// Parks a prepared copy of `src` for page `p` (replacing any staler
    /// preparation).
    pub(crate) fn put(&self, p: u32, src: PageRef, copy: Box<PageBuf>) {
        let mut slots = self.slots.lock();
        let slot = &mut slots[p as usize];
        if slot.is_none() {
            self.stats.pretwinned.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(PreparedTwin { src, copy });
    }

    /// Takes the prepared copy for `p` if it was made from exactly `src`
    /// (the faulting snapshot page); a copy of any other version is a
    /// stale prediction and is discarded.
    pub(crate) fn take_for(&self, p: usize, src: &PageRef) -> Option<Box<PageBuf>> {
        let prep = { self.slots.lock()[p].take() }?;
        self.stats.pretwinned.fetch_sub(1, Ordering::Relaxed);
        if Arc::ptr_eq(&prep.src, src) {
            self.stats.pretwin_hits.fetch_add(1, Ordering::Relaxed);
            Some(prep.copy)
        } else {
            self.stats.pretwin_misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

impl Drop for TwinStash {
    fn drop(&mut self) {
        let left = self.slots.lock().iter().filter(|s| s.is_some()).count() as u64;
        self.stats.pretwinned.fetch_sub(left, Ordering::Relaxed);
    }
}

/// Shared state between the segment, the workers, and flushers.
struct PipeShared {
    inner: Arc<Mutex<SegInner>>,
    tracker: Arc<PageTracker>,
    q: Mutex<VecDeque<Job>>,
    qcv: Condvar,
    fin: Mutex<FinState>,
    fincv: Condvar,
    stats: Arc<PipeStats>,
}

/// The background settle pool attached to a pipelined segment.
pub(crate) struct SettlePool {
    shared: Arc<PipeShared>,
    workers: Vec<JoinHandle<()>>,
}

impl SettlePool {
    pub(crate) fn new(
        workers: usize,
        inner: Arc<Mutex<SegInner>>,
        tracker: Arc<PageTracker>,
    ) -> SettlePool {
        let shared = Arc::new(PipeShared {
            inner,
            tracker,
            q: Mutex::new(VecDeque::new()),
            qcv: Condvar::new(),
            fin: Mutex::new(FinState::default()),
            fincv: Condvar::new(),
            stats: Arc::new(PipeStats::default()),
        });
        let workers = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        SettlePool { shared, workers }
    }

    pub(crate) fn stats(&self) -> &Arc<PipeStats> {
        &self.shared.stats
    }

    pub(crate) fn totals(&self) -> PipelineTotals {
        let s = &self.shared.stats;
        PipelineTotals {
            deferred_pages: s.deferred_pages.load(Ordering::Relaxed),
            pretwin_hits: s.pretwin_hits.load(Ordering::Relaxed),
            pretwin_misses: s.pretwin_misses.load(Ordering::Relaxed),
        }
    }

    /// Backpressure, called *before* the publish takes the segment lock.
    /// Purely wall-clock: where the committer waits cannot influence the
    /// schedule, only how much background memory accumulates.
    pub(crate) fn throttle(&self) {
        if self.workers.is_empty() {
            return;
        }
        let sh = &self.shared;
        if sh.stats.pending_settles() < MAX_PENDING {
            return;
        }
        let mut fin = sh.fin.lock();
        while sh.stats.issued.load(Ordering::Relaxed) - fin.next_seq >= MAX_PENDING {
            sh.fincv.wait(&mut fin);
        }
    }

    /// Reserves the next finalization slot. Caller must hold the segment
    /// lock so slot order is exactly commit order.
    pub(crate) fn issue_seq(&self) -> u64 {
        self.shared.stats.issued.fetch_add(1, Ordering::Relaxed)
    }

    /// Records pages published as deferred shells.
    pub(crate) fn note_deferred(&self, n: u64) {
        self.shared
            .stats
            .deferred_pages
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Queues a job. Safe (and, for ordered jobs, required) to call while
    /// holding the segment lock: queue push order then matches issue
    /// order, which keeps every deferred read pointing at an
    /// earlier-queued fill.
    pub(crate) fn enqueue(&self, job: Job) {
        self.shared.q.lock().push_back(job);
        self.shared.qcv.notify_one();
    }

    /// Drains every outstanding job and blocks until the frontier reaches
    /// every issued slot. Content work still in the queue is executed
    /// inline — with zero workers this *is* the execution engine, which
    /// is how the stalled-pool regime eventually settles. Must not be
    /// called while holding the segment lock.
    pub(crate) fn flush(&self) {
        let sh = &self.shared;
        loop {
            let job = sh.q.lock().pop_front();
            match job {
                Some(j) => process(sh, j),
                None => break,
            }
        }
        let target = sh.stats.issued.load(Ordering::Relaxed);
        let mut fin = sh.fin.lock();
        while fin.next_seq < target {
            sh.fincv.wait(&mut fin);
        }
    }
}

impl Drop for SettlePool {
    fn drop(&mut self) {
        self.flush();
        {
            let mut q = self.shared.q.lock();
            for _ in 0..self.workers.len() {
                q.push_back(Job::Shutdown);
            }
        }
        self.shared.qcv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(sh: &PipeShared) {
    loop {
        let job = {
            let mut q = sh.q.lock();
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                sh.qcv.wait(&mut q);
            }
        };
        if matches!(job, Job::Shutdown) {
            return;
        }
        process(sh, job);
    }
}

/// Executes one job's content work (lock-free), then finalizes ordered
/// jobs at the frontier. FIFO pop order guarantees any deferred page a
/// job reads was queued for fill earlier, so waits always point at work
/// already in flight — never at something still behind us in the queue.
fn process(sh: &PipeShared, job: Job) {
    match job {
        Job::Settle {
            seq,
            id,
            tid,
            merges,
            log,
        } => {
            for m in &merges {
                let mut buf = sh
                    .tracker
                    .take()
                    .unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]));
                buf.copy_from_slice(m.base.bytes());
                merge::apply_with_map(&m.map, m.twin.bytes(), m.work.bytes(), &mut buf);
                m.out.settle_fill(buf);
            }
            // Digest page contents outside every lock; the frontier folds
            // only the resulting u64 pairs under the segment lock.
            let entries: Vec<(u64, u64)> = segment::log_entries(&log).collect();
            finalize(sh, seq, FinJob::Log { id, tid, entries });
        }
        Job::Gc {
            seq,
            drops,
            squashes,
        } => finalize(sh, seq, FinJob::Gc { drops, squashes }),
        Job::PreTwin { stash, pages } => {
            for (p, src) in pages {
                let copy = Box::new(PageBuf::duplicate(&src));
                stash.put(p, src, copy);
            }
        }
        Job::Shutdown => {}
    }
}

/// Parks `job` at its issue slot and drains the frontier while it is
/// contiguous, applying each job's structural edits under the segment
/// lock in exactly serial-path order.
fn finalize(sh: &PipeShared, seq: u64, job: FinJob) {
    let mut fin = sh.fin.lock();
    fin.parked.insert(seq, job);
    let mut advanced = false;
    loop {
        let next = fin.next_seq;
        let Some(j) = fin.parked.remove(&next) else {
            break;
        };
        {
            let mut inner = sh.inner.lock();
            match j {
                FinJob::Log { id, tid, entries } => {
                    segment::fold_commit_log(&mut inner, id, tid, entries)
                }
                FinJob::Gc { drops, squashes } => {
                    segment::exec_gc_plan(&mut inner, drops, squashes)
                }
            }
        }
        fin.next_seq += 1;
        sh.stats.finalized.fetch_add(1, Ordering::Relaxed);
        advanced = true;
    }
    if advanced {
        sh.fincv.notify_all();
    }
}
