//! The versioned shared-memory segment.

use std::collections::VecDeque;
use std::sync::Arc;

use dmt_api::sync::Mutex;

use dmt_api::{page_digest, Addr, Fnv1a, PerturbHandle, PerturbSite, Tid, PAGE_SIZE};

use crate::merge;
use crate::page::{spans, PageBuf, PageRef, PageTracker};
use crate::registry::Registry;
use crate::version::Version;
use crate::workspace::{Diff, Workspace};

/// A pre-merged version ready to install: committing thread and its pages
/// (index, content).
pub(crate) type BuiltVersion = (Tid, Vec<(u32, PageRef)>);

/// Outcome of a [`Segment::commit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitResult {
    /// Id of the created version, or the pre-existing latest id if the
    /// workspace had no modifications to publish.
    pub version: u64,
    /// Pages published.
    pub pages: u32,
    /// Pages that conflicted with a remote commit and were byte-merged.
    pub merged: u32,
    /// FNV-1a digest of the published page indices, in order — a compact
    /// witness of the dirty-page *set*, not just its size. Zero when no
    /// pages were published.
    pub page_set: u64,
}

/// Outcome of a [`Segment::gc`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcResult {
    /// Versions dropped outright (every live workspace had replayed them).
    pub dropped: usize,
    /// Version pairs squashed into one (history pinned by a lagging
    /// workspace, compacted in place).
    pub squashed: usize,
}

impl GcResult {
    /// Total collector work units spent (drops + squashes).
    pub fn spent(&self) -> usize {
        self.dropped + self.squashed
    }
}

/// Outcome of a [`Segment::update`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateResult {
    /// Version the workspace is now based on.
    pub new_base: u64,
    /// Pages applied that were committed by *other* threads — the paper's
    /// "pages propagated" metric.
    pub pages_propagated: u64,
}

struct SegInner {
    /// Id the next commit will receive; the latest committed id is
    /// `next_id - 1` (id 0 is the implicit zero-filled initial version).
    next_id: u64,
    /// One past the newest version id the collector has dropped: every
    /// id below it is gone, every id from it on is still covered by
    /// `versions` (possibly inside a squashed range).
    first_retained: u64,
    /// Retained version history (trimmed by [`Segment::gc`]).
    versions: VecDeque<Version>,
    /// Version ids some protocol will still `update_to` exactly; the
    /// collector must not squash across them. Refcounted.
    pins: std::collections::BTreeMap<u64, u32>,
    /// Per-version page counts for propagation accounting, parallel to
    /// `versions` but never squashed (16 bytes per commit), so the
    /// "pages propagated" metric is independent of collector progress.
    counts: VecDeque<(u64, u32, Tid)>,
    /// Materialized latest page table.
    latest: Vec<PageRef>,
    /// Running digest of `(id, committer, (page, content digest)*)` for
    /// every commit — the determinism witness. Written by
    /// [`fold_commit_log`] only.
    log: Fnv1a,
    /// Registry generation and `next_id` observed by the last collector
    /// pass that ran out of *work* (not budget). While both are unchanged
    /// — no workspace moved, nothing new committed, no pin released — a
    /// [`Segment::gc`] call is a no-op and returns without scanning.
    gc_seen: Option<(u64, u64)>,
    /// Cumulative versions dropped by the collector.
    gc_dropped_total: u64,
    /// Cumulative version pairs squashed by the collector.
    gc_squashed_total: u64,
    /// High-water mark of `versions.len()`, updated at commit *before*
    /// the collector trims, so the resource witness sees intra-epoch
    /// spikes the post-GC gauge would hide.
    retained_peak: usize,
}

/// A version-controlled memory segment (user-space Conversion).
///
/// Thread safety: all methods take `&self`; internal state is lock-
/// protected. **Determinism is the caller's contract** — commits must be
/// externally serialized in a deterministic order (Consequence holds the
/// global token around every commit), and updates must happen at
/// deterministic points. The segment then guarantees deterministic
/// contents: byte-granularity last-writer-wins in commit order.
pub struct Segment {
    inner: Mutex<SegInner>,
    tracker: Arc<PageTracker>,
    registry: Registry,
    npages: usize,
    /// Fault injector for commit/update stalls (`dmt-stress`); off by
    /// default. Real-time jitter only — the segment has no virtual-time
    /// accounting of its own.
    perturb: PerturbHandle,
}

impl Segment {
    /// A zero-filled segment of `npages` pages, with `slots` thread slots.
    pub fn new(npages: usize, slots: usize) -> Segment {
        let tracker = PageTracker::new();
        let latest: Vec<PageRef> = (0..npages)
            .map(|_| Arc::new(PageBuf::zeroed(&tracker)))
            .collect();
        Segment {
            inner: Mutex::new(SegInner {
                next_id: 1,
                first_retained: 1,
                versions: VecDeque::new(),
                pins: std::collections::BTreeMap::new(),
                counts: VecDeque::new(),
                latest,
                log: Fnv1a::new(),
                gc_seen: None,
                gc_dropped_total: 0,
                gc_squashed_total: 0,
                retained_peak: 0,
            }),
            tracker,
            registry: Registry::new(slots),
            npages,
            perturb: PerturbHandle::off(),
        }
    }

    /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
    #[doc(hidden)]
    pub fn enable_pipeline(&mut self, _workers: usize) {}

    /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
    #[doc(hidden)]
    pub fn flush_pipeline(&self) {}

    /// Attaches a fault injector that stalls commits and updates (see
    /// `dmt_api::perturb`). Stalls happen *before* the segment lock is
    /// taken, so they reorder the physical arrival of committers/updaters
    /// without ever holding internal state hostage. Determinism is
    /// unaffected because commit order is serialized by the caller.
    pub fn set_perturb(&mut self, perturb: PerturbHandle) {
        self.perturb = perturb;
    }

    /// Segment length in bytes.
    pub fn len(&self) -> usize {
        self.npages * PAGE_SIZE
    }

    /// Whether the segment has zero pages.
    pub fn is_empty(&self) -> bool {
        self.npages == 0
    }

    /// Number of 4 KiB pages.
    pub fn num_pages(&self) -> usize {
        self.npages
    }

    /// Live/peak page accounting.
    pub fn tracker(&self) -> &Arc<PageTracker> {
        &self.tracker
    }

    /// Latest committed version id.
    pub fn latest_id(&self) -> u64 {
        self.inner.lock().next_id - 1
    }

    /// Number of retained (not yet collected) versions.
    pub fn retained_versions(&self) -> usize {
        self.inner.lock().versions.len()
    }

    /// High-water mark of retained versions, observed at commit before
    /// the collector trims (the witness gauge for version-chain growth).
    pub fn retained_peak(&self) -> usize {
        self.inner.lock().retained_peak
    }

    /// Current commit-log digest (determinism witness): a pure function
    /// of the commit sequence.
    pub fn log_hash(&self) -> u64 {
        self.inner.lock().log.digest()
    }

    /// Writes initial contents. Only valid before any workspace exists.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or a page is already shared
    /// with a workspace snapshot.
    pub fn init_write(&self, addr: Addr, data: &[u8]) {
        let spans = spans(addr, data.len(), self.npages);
        let mut inner = self.inner.lock();
        let mut done = 0;
        for (p, off, n) in spans {
            let page = Arc::get_mut(&mut inner.latest[p])
                .expect("init_write after workspaces were created");
            page.bytes_mut()[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Reads from the latest committed version (used after a run).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_latest(&self, addr: Addr, buf: &mut [u8]) {
        let spans = spans(addr, buf.len(), self.npages);
        let inner = self.inner.lock();
        let mut done = 0;
        for (p, off, n) in spans {
            buf[done..done + n].copy_from_slice(&inner.latest[p].bytes()[off..off + n]);
            done += n;
        }
    }

    /// Attaches a fresh workspace for `tid`, snapshotting the latest
    /// version. Returns the workspace and the number of page-table entries
    /// copied (the paper's fork cost, §3.3).
    pub fn new_workspace(&self, tid: Tid) -> (Workspace, usize) {
        let inner = self.inner.lock();
        let base = inner.next_id - 1;
        let ws = Workspace::new(tid, base, &inner.latest);
        drop(inner);
        self.registry.set_base(tid, base);
        (ws, self.npages)
    }

    /// Detaches `tid`'s workspace from GC consideration.
    pub fn detach(&self, tid: Tid) {
        self.registry.mark_dead(tid);
    }

    /// Hands a pooled workspace to a new thread id (thread reuse, §3.3 of
    /// the Consequence paper): the old slot is released and the new slot
    /// pins the workspace's base version.
    pub fn adopt(&self, ws: &mut Workspace, new: Tid) {
        self.registry.mark_dead(ws.tid());
        ws.retag(new);
        self.registry.set_base(new, ws.base());
    }

    /// Publishes `ws`'s dirty pages as a new version.
    ///
    /// **Caller must serialize commits deterministically** (hold the global
    /// token). Pages whose working copy equals its twin are dropped; pages
    /// whose underlying latest page changed since fault time are merged at
    /// byte granularity, local changes winning.
    ///
    /// The second parameter is ignored. Inert; read only by `e2e/`; deleted
    /// with ROADMAP item 3(a).
    pub fn commit(&self, ws: &mut Workspace, _: Option<Arc<dmt_api::VectorClock>>) -> CommitResult {
        self.perturb.jitter(PerturbSite::Commit, ws.tid());
        let mut inner = self.inner.lock();
        let mut pages: Vec<(u32, PageRef)> = Vec::with_capacity(ws.dirty_count());
        let mut merged = 0u32;
        let mut page_set = Fnv1a::new();
        ws.take_modified(|d| {
            let (page, was_merged) =
                build_page(&inner.latest[d.page as usize], std::slice::from_ref(&d));
            merged += was_merged as u32;
            page_set.update_u64(d.page as u64);
            pages.push((d.page, page));
        });
        if pages.is_empty() {
            return CommitResult {
                version: inner.next_id - 1,
                ..CommitResult::default()
            };
        }
        for (p, page) in &pages {
            ws.remap(*p, page);
        }
        CommitResult {
            pages: pages.len() as u32,
            merged,
            page_set: page_set.digest(),
            version: inner.install(ws.tid(), pages),
        }
    }

    /// Installs pre-merged versions produced by a
    /// [`crate::ParallelCommit`]. Caller must serialize with other commits.
    pub(crate) fn install_versions(&self, built: Vec<BuiltVersion>) {
        let mut inner = self.inner.lock();
        for (tid, pages) in built {
            if !pages.is_empty() {
                inner.install(tid, pages);
            }
        }
    }

    /// Snapshot of the latest page table entries for `pages`, under one
    /// lock (the seal-time capture of the parallel commit's merge bases).
    pub(crate) fn latest_pages(&self, pages: impl Iterator<Item = u32>) -> Vec<PageRef> {
        let inner = self.inner.lock();
        pages
            .map(|p| Arc::clone(&inner.latest[p as usize]))
            .collect()
    }

    /// Pins version `id`: some protocol stored it as an exact `update_to`
    /// target, so the collector must not squash a later version across it
    /// (which would silently hand the updater newer state). Refcounted;
    /// release with [`Segment::unpin`].
    pub fn pin(&self, id: u64) {
        let mut inner = self.inner.lock();
        *inner.pins.entry(id).or_insert(0) += 1;
    }

    /// Releases one reference to a pinned `update_to` target.
    pub fn unpin(&self, id: u64) {
        let mut inner = self.inner.lock();
        if let Some(n) = inner.pins.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                inner.pins.remove(&id);
                // A released pin can unblock squashing.
                inner.gc_seen = None;
            }
        }
    }

    /// Cumulative collector totals `(versions dropped, pairs squashed)`
    /// since the segment was created.
    pub fn gc_totals(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.gc_dropped_total, inner.gc_squashed_total)
    }

    /// Brings `ws` forward to the latest version by replaying deltas.
    ///
    /// # Panics
    ///
    /// Panics if `ws` still has dirty pages (commit first), or if needed
    /// versions were garbage collected (a GC-safety bug).
    pub fn update(&self, ws: &mut Workspace) -> UpdateResult {
        self.update_upto(ws, None)
    }

    /// Brings `ws` forward to version `upto` exactly — no further, even if
    /// later versions exist. Deterministic runtimes record the version id
    /// at a synchronization event and update to it, so the amount of work
    /// an update does cannot depend on racing commits.
    ///
    /// # Panics
    ///
    /// Panics if `ws` still has dirty pages, if `upto` exceeds the latest
    /// version, or if needed versions were garbage collected.
    pub fn update_to(&self, ws: &mut Workspace, upto: u64) -> UpdateResult {
        self.update_upto(ws, Some(upto))
    }

    /// `update_to(upto)`, or with `None` to whatever is latest once the
    /// segment lock is held — one critical section either way.
    ///
    /// A squashed version replays as the union of every page committed in
    /// its range, and a workspace that updated inside that range already
    /// maps most of them: those cost one pointer compare each in
    /// `Workspace::remap`, no reference count, so the update's cost is
    /// the pages that changed plus a walk of the union.
    fn update_upto(&self, ws: &mut Workspace, upto: Option<u64>) -> UpdateResult {
        assert_eq!(ws.dirty_count(), 0, "update requires a committed workspace");
        self.perturb.jitter(PerturbSite::Update, ws.tid());
        let inner = self.inner.lock();
        let upto = upto.unwrap_or(inner.next_id - 1);
        assert!(upto < inner.next_id, "update_to a future version");
        let mut propagated = 0u64;
        if ws.base() < upto {
            // `first_retained` is one past the newest id a *drop* covered
            // (a dropped squashed version takes its whole id range with
            // it); retained squashed versions still cover theirs, so this
            // is the precise safety bound.
            assert!(
                ws.base() + 1 >= inner.first_retained,
                "versions needed by update were collected (GC safety violation)"
            );
            // Version ids are increasing but not necessarily dense (the
            // collector squashes adjacent versions), so locate by search.
            let start = inner.versions.partition_point(|v| v.id <= ws.base());
            for v in inner.versions.iter().skip(start) {
                debug_assert!(v.id > ws.base());
                if v.id > upto {
                    // A squashed version spanning `upto` would smuggle in
                    // newer state; pinning must prevent that.
                    assert!(
                        v.base_id > upto,
                        "update_to({upto}) target was squashed away (GC pin bug)"
                    );
                    break;
                }
                for (p, r) in &v.pages {
                    ws.remap(*p, r);
                }
            }
            // Propagation accounting comes from the never-squashed count
            // records so it cannot depend on collector progress; the walk
            // above may traverse squashed (merged) representations.
            let cstart = inner.counts.partition_point(|(id, _, _)| *id <= ws.base());
            for (id, npages, committer) in inner.counts.iter().skip(cstart) {
                if *id > upto {
                    break;
                }
                if *committer != ws.tid() {
                    propagated += *npages as u64;
                }
            }
            ws.set_base(upto);
        }
        drop(inner);
        self.registry.set_base(ws.tid(), ws.base());
        UpdateResult {
            new_base: ws.base(),
            pages_propagated: propagated,
        }
    }

    /// Performs up to `budget` units of collector work. Returns the units
    /// spent.
    ///
    /// Two kinds of unit, applied front- (oldest-) first:
    ///
    /// * **drop** a version every live workspace has already replayed;
    /// * **squash** the two oldest retained versions into one (union of
    ///   their page sets, newer content winning). Squashing is safe for an
    ///   updater based exactly between the two: the extra pages it applies
    ///   carry content it already has — the very copies it maps, which
    ///   `Workspace::remap` skips. This is how superseded page copies
    ///   get reclaimed even while a blocked thread pins an old base —
    ///   Conversion's collector does the equivalent at the page level.
    ///
    /// A finite budget models the paper's single-threaded collector: under
    /// high page churn retained versions (and thus live pages) outrun it,
    /// which is exactly the Figure 12 memory blow-up on `canneal`/
    /// `lu_ncb`. The paper's proposed multi-threaded collector corresponds
    /// to a large budget.
    ///
    /// Calls are cheap when nothing changed: a pass that runs out of work
    /// records the registry generation and version count it saw, and
    /// subsequent calls return immediately until a commit, a workspace
    /// base change, or a pin release invalidates that snapshot. This keeps
    /// the per-chunk `gc()` call on the runtime hot path near-free in the
    /// steady state where every thread is up to date.
    pub fn gc(&self, budget: usize) -> GcResult {
        // Read the generation *before* taking the lock: a concurrent base
        // change between the read and the scan makes the early-out snapshot
        // conservative (stale generation → next call rescans), never unsafe.
        let gen = self.registry.generation();
        let mut inner = self.inner.lock();
        if inner.gc_seen == Some((gen, inner.next_id)) {
            return GcResult::default();
        }
        let min = self.registry.min_live_base().unwrap_or(inner.next_id - 1);
        let mut res = GcResult::default();
        while res.spent() < budget {
            match inner.versions.front() {
                Some(v) if v.id <= min => {
                    let dropped_to = v.id;
                    inner.versions.pop_front();
                    while inner
                        .counts
                        .front()
                        .map(|(id, _, _)| *id <= dropped_to)
                        .unwrap_or(false)
                    {
                        inner.counts.pop_front();
                    }
                    inner.first_retained = dropped_to + 1;
                    res.dropped += 1;
                }
                _ => break,
            }
        }
        // Squash the oldest retained pair per remaining unit of budget —
        // but never across a pinned `update_to` target (the merged version
        // could no longer reproduce the pinned point exactly).
        while res.spent() < budget && inner.versions.len() >= 2 {
            {
                let va = &inner.versions[0];
                let vb = &inner.versions[1];
                let lo = va.base_id;
                let hi = vb.id;
                if inner.pins.range(lo..hi).next().is_some() {
                    break;
                }
            }
            squash_oldest_pair(&mut inner.versions);
            res.squashed += 1;
        }
        inner.gc_dropped_total += res.dropped as u64;
        inner.gc_squashed_total += res.squashed as u64;
        // Only a pass that stopped for lack of *work* licenses the
        // early-out; a budget-limited pass must resume next call.
        inner.gc_seen = if res.spent() < budget {
            Some((gen, inner.next_id))
        } else {
            None
        };
        res
    }
}

impl SegInner {
    /// Publishes `pages` (non-empty, page-sorted) as the next version
    /// committed by `tid` and returns its id — the tail of every commit,
    /// serial or barrier, so the two cannot disagree on what a version
    /// records.
    fn install(&mut self, tid: Tid, pages: Vec<(u32, PageRef)>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        for (p, r) in &pages {
            self.latest[*p as usize] = Arc::clone(r);
        }
        self.counts.push_back((id, pages.len() as u32, tid));
        fold_commit_log(self, id, tid, &pages);
        self.retained_peak = self.retained_peak.max(self.versions.len() + 1);
        self.versions.push_back(Version {
            id,
            base_id: id,
            committer: tid,
            pages,
        });
        id
    }
}

/// The adopt-or-merge rule of every commit: a sole writer of a page nobody
/// else committed since it faulted (`base` still is its twin) publishes its
/// working copy as is, zero-copy; otherwise the page is a duplicate of
/// `base` with the diffs applied in commit order, local bytes winning.
/// Returns the page and whether it was merged.
pub(crate) fn build_page(base: &PageRef, diffs: &[Diff]) -> (PageRef, bool) {
    if let [sole] = diffs {
        if Arc::ptr_eq(base, &sole.twin) {
            return (Arc::clone(&sole.work), false);
        }
    }
    let mut out = PageBuf::duplicate(base);
    for d in diffs {
        merge::apply_with_map(&d.map, d.twin.bytes(), d.work.bytes(), out.bytes_mut());
    }
    (Arc::new(out), true)
}

/// Squashes the two oldest retained versions into one: union of their
/// page sets (newer content winning — both lists are page-sorted), id of
/// the newer, base id of the older. An updater based between the two
/// replays the whole union, and the extra pages it applies carry content
/// it already has — the same `Arc`s, so each costs it a compare and no
/// reference count (`Workspace::remap`).
fn squash_oldest_pair(versions: &mut VecDeque<Version>) {
    let va = versions.pop_front().expect("squash needs two versions");
    let vb = versions.front_mut().expect("squash needs two versions");
    let mut merged: Vec<(u32, PageRef)> = Vec::with_capacity(va.pages.len() + vb.pages.len());
    let mut ai = va.pages.into_iter().peekable();
    let mut bi = std::mem::take(&mut vb.pages).into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some((pa, _)), Some((pb, _))) => {
                if pa < pb {
                    merged.push(ai.next().expect("peeked"));
                } else if pb < pa {
                    merged.push(bi.next().expect("peeked"));
                } else {
                    let _ = ai.next();
                    merged.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => merged.push(ai.next().expect("peeked")),
            (None, Some(_)) => merged.push(bi.next().expect("peeked")),
            (None, None) => break,
        }
    }
    vb.pages = merged;
    vb.base_id = va.base_id;
}

/// Folds one version's record — `(id, committer, (page, digest)*)`, the
/// digest over the whole 4 KiB of every page it publishes, in page order —
/// into the segment's running digest. The only writer of `SegInner::log`,
/// called by [`SegInner::install`] only.
fn fold_commit_log(inner: &mut SegInner, id: u64, tid: Tid, pages: &[(u32, PageRef)]) {
    inner.log.update_u64(id);
    inner.log.update_u64(tid.0 as u64);
    for (p, r) in pages {
        inner.log.update_u64(*p as u64);
        inner.log.update_u64(page_digest(r.bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_write_visible_to_new_workspace() {
        let seg = Segment::new(4, 4);
        seg.init_write(10, b"abc");
        let (ws, mapped) = seg.new_workspace(Tid(0));
        assert_eq!(mapped, 4);
        let mut b = [0u8; 3];
        ws.read_bytes(10, &mut b);
        assert_eq!(&b, b"abc");
    }

    /// `usize::MAX - 3` plus eight wraps to 4: an unchecked `addr + len`
    /// passes any `<= len()` test in a release build.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn init_write_whose_end_overflows_is_out_of_bounds() {
        Segment::new(1, 1).init_write(usize::MAX - 3, &[1; 8]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_latest_whose_end_overflows_is_out_of_bounds() {
        Segment::new(1, 1).read_latest(usize::MAX - 3, &mut [0; 8]);
    }

    #[test]
    fn commit_then_update_propagates_between_threads() {
        let seg = Segment::new(4, 4);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1));
        a.write_bytes(0, &[7]);
        let cr = seg.commit(&mut a, None);
        assert_eq!(cr.pages, 1);
        assert_eq!(cr.merged, 0);
        // B does not see it until it updates.
        let mut buf = [0u8; 1];
        b.read_bytes(0, &mut buf);
        assert_eq!(buf[0], 0);
        let ur = seg.update(&mut b);
        assert_eq!(ur.pages_propagated, 1);
        b.read_bytes(0, &mut buf);
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn own_commits_do_not_count_as_propagation() {
        let seg = Segment::new(2, 2);
        let (mut a, _) = seg.new_workspace(Tid(0));
        a.write_bytes(0, &[1]);
        seg.commit(&mut a, None);
        let ur = seg.update(&mut a);
        assert_eq!(ur.pages_propagated, 0);
        assert_eq!(ur.new_base, 1);
    }

    #[test]
    fn conflicting_commits_merge_at_byte_granularity() {
        let seg = Segment::new(1, 4);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1));
        a.write_bytes(100, &[1]);
        b.write_bytes(200, &[2]);
        seg.commit(&mut a, None);
        let cr = seg.commit(&mut b, None);
        assert_eq!(cr.merged, 1, "B's page conflicted and was merged");
        let mut buf = [0u8; 1];
        seg.read_latest(100, &mut buf);
        assert_eq!(buf[0], 1);
        seg.read_latest(200, &mut buf);
        assert_eq!(buf[0], 2);
    }

    /// The shape `clock_publish` commits 16k times a second: two words of a
    /// page another workspace committed first, on the kernel's sparse arm.
    #[test]
    fn two_dirty_words_merge_onto_a_remote_commit() {
        let seg = Segment::new(1, 4);
        let init: [u8; PAGE_SIZE] = std::array::from_fn(|i| (i % 251) as u8);
        seg.init_write(0, &init);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1));
        // A rewrites a stripe that covers B's first word and more.
        a.write_bytes(0, &[0xaa; 64]);
        seg.commit(&mut a, None);
        let mut latest = [0u8; PAGE_SIZE];
        seg.read_latest(0, &mut latest);
        // B: one whole word A also wrote, one byte of a word A left alone.
        b.st_u64(8, 0x1112_1314_1516_1718);
        b.write_bytes(1027, &[0xcc]);
        let mut work = [0u8; PAGE_SIZE];
        b.read_bytes(0, &mut work);
        let mut want = [0u8; PAGE_SIZE];
        assert_eq!(
            merge::bytewise::merge_into(&init, &work, &latest, &mut want),
            9
        );

        let cr = seg.commit(&mut b, None);
        assert_eq!((cr.pages, cr.merged), (1, 1));
        let mut got = [0u8; PAGE_SIZE];
        seg.read_latest(0, &mut got);
        assert_eq!(&got[..], &want[..]);
        assert_eq!((got[0], got[16]), (0xaa, 0xaa), "A's bytes around B's word");
    }

    #[test]
    fn last_writer_wins_on_same_byte() {
        let seg = Segment::new(1, 4);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1));
        a.write_bytes(0, &[10]);
        b.write_bytes(0, &[20]);
        seg.commit(&mut a, None);
        seg.commit(&mut b, None); // B commits second: B wins.
        let mut buf = [0u8; 1];
        seg.read_latest(0, &mut buf);
        assert_eq!(buf[0], 20);
    }

    #[test]
    fn unmodified_faulted_pages_are_not_published() {
        let seg = Segment::new(2, 2);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let before = a.ld_u64(0);
        a.st_u64(0, before); // fault, but write the same value
        let cr = seg.commit(&mut a, None);
        assert_eq!(cr.pages, 0);
        assert_eq!(seg.latest_id(), 0, "no version created");
    }

    #[test]
    fn commit_log_hash_is_deterministic() {
        let run = || {
            let seg = Segment::new(2, 2);
            let (mut a, _) = seg.new_workspace(Tid(0));
            let (mut b, _) = seg.new_workspace(Tid(1));
            a.write_bytes(0, &[1, 2, 3]);
            seg.commit(&mut a, None);
            b.write_bytes(4096, &[4]);
            seg.commit(&mut b, None);
            seg.log_hash()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gc_respects_live_bases_and_budget() {
        let seg = Segment::new(1, 2);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1));
        for i in 0..5 {
            a.write_bytes(0, &[i as u8 + 1]);
            seg.commit(&mut a, None);
            seg.update(&mut a);
        }
        assert_eq!(seg.retained_versions(), 5);
        // B is still at base 0: nothing can be dropped, but the pinned
        // history can be squashed down to a single version.
        assert_eq!(
            seg.gc(usize::MAX),
            GcResult {
                dropped: 0,
                squashed: 4
            },
            "four squash units"
        );
        assert_eq!(seg.retained_versions(), 1);
        // B replays the squashed history and sees the final value.
        seg.update(&mut b);
        let mut buf = [0u8; 1];
        b.read_bytes(0, &mut buf);
        assert_eq!(buf[0], 5);
        // Now everything is droppable.
        assert_eq!(
            seg.gc(usize::MAX),
            GcResult {
                dropped: 1,
                squashed: 0
            }
        );
        assert_eq!(seg.retained_versions(), 0);
        assert_eq!(seg.gc_totals(), (1, 4));
    }

    #[test]
    fn gc_budget_limits_work_per_call() {
        let seg = Segment::new(1, 2);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (_b, _) = seg.new_workspace(Tid(1)); // pins base 0
        for i in 0..6 {
            a.write_bytes(0, &[i as u8 + 1]);
            seg.commit(&mut a, None);
            seg.update(&mut a);
        }
        assert_eq!(seg.gc(2).spent(), 2);
        assert_eq!(seg.retained_versions(), 4);
        // A budget-limited pass must not arm the no-work early-out.
        assert_eq!(seg.gc(2).spent(), 2);
        assert_eq!(seg.retained_versions(), 2);
    }

    #[test]
    fn squashed_history_preserves_multi_page_replay() {
        let seg = Segment::new(3, 2);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1)); // pinned at base 0
                                                    // Three commits touching overlapping page sets.
        a.write_bytes(0, &[1]);
        a.write_bytes(4096, &[2]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
        a.write_bytes(4096, &[3]);
        a.write_bytes(8192, &[4]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
        a.write_bytes(0, &[5]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
        seg.gc(usize::MAX); // squash everything B pins
        seg.update(&mut b);
        let mut buf = [0u8; 1];
        b.read_bytes(0, &mut buf);
        assert_eq!(buf[0], 5);
        b.read_bytes(4096, &mut buf);
        assert_eq!(buf[0], 3);
        b.read_bytes(8192, &mut buf);
        assert_eq!(buf[0], 4);
    }

    /// `fine_locks`' shape: a joining thread pins an early base, so each
    /// collector pass squashes the history into one version, and every
    /// update of a thread based inside it replays the union of all pages
    /// committed so far. The pages it already maps are left alone: their
    /// reference counts do not move and only the changed page is remapped,
    /// while propagation is still counted from the per-commit records.
    #[test]
    fn an_update_through_a_squashed_version_leaves_mapped_pages_alone() {
        let seg = Segment::new(5, 3);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1));
        let (_pinning, _) = seg.new_workspace(Tid(2)); // never updates: base 0
        let mut commit = |pages: &[usize], val: u8| {
            pages.iter().for_each(|p| {
                a.write_bytes(p * PAGE_SIZE, &[val]);
            });
            seg.commit(&mut a, None);
            seg.update(&mut a);
        };
        // Four pages over three commits: 2 + 2 + 2 count records.
        commit(&[0, 1], 1);
        commit(&[1, 2], 2);
        commit(&[3, 0], 3);
        assert_eq!(seg.gc(usize::MAX).squashed, 2);
        assert_eq!(
            seg.update(&mut b).pages_propagated,
            6,
            "records, not the union"
        );
        let latest = |p: u32| Arc::clone(&seg.inner.lock().latest[p as usize]);
        assert!((0..4).all(|p| Arc::ptr_eq(b.mapped(p), &latest(p))));

        // One more page, squashed onto the rest: B's base (3) is inside it.
        commit(&[4], 4);
        assert_eq!(seg.gc(usize::MAX).squashed, 1);
        let counts = |b: &Workspace| -> Vec<usize> {
            (0..5).map(|p| Arc::strong_count(b.mapped(p))).collect()
        };
        let before = counts(&b);
        let old_page_4 = Arc::clone(b.mapped(4));
        assert_eq!(seg.update(&mut b).pages_propagated, 1);
        let after = counts(&b);
        assert_eq!(
            after[..4],
            before[..4],
            "the mapped copies were not touched"
        );
        assert!((0..4).all(|p| Arc::ptr_eq(b.mapped(p), &latest(p))));
        assert!(
            Arc::ptr_eq(b.mapped(4), &latest(4)),
            "the changed page is remapped"
        );
        assert!(!Arc::ptr_eq(&old_page_4, &latest(4)));
        let mut buf = [0u8; 1];
        b.read_bytes(4 * PAGE_SIZE, &mut buf);
        assert_eq!(buf[0], 4);
    }

    #[test]
    fn detach_unpins_history() {
        let seg = Segment::new(1, 2);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (_b, _) = seg.new_workspace(Tid(1));
        a.write_bytes(0, &[1]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
        assert_eq!(seg.gc(usize::MAX).spent(), 0, "B pins version 1");
        seg.detach(Tid(1));
        assert_eq!(seg.gc(usize::MAX).dropped, 1);
    }

    #[test]
    fn idle_gc_early_outs_until_state_changes() {
        let seg = Segment::new(1, 2);
        let (mut a, _) = seg.new_workspace(Tid(0));
        a.write_bytes(0, &[1]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
        assert_eq!(seg.gc(usize::MAX).dropped, 1);
        // No commit and no base change since the exhaustive pass: no-op.
        assert_eq!(seg.gc(usize::MAX), GcResult::default());
        // A new commit invalidates the early-out snapshot.
        a.write_bytes(0, &[2]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
        assert_eq!(seg.gc(usize::MAX).dropped, 1);
    }

    #[test]
    fn peak_pages_grow_with_uncollected_versions() {
        let seg = Segment::new(1, 1);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let base = seg.tracker().live();
        for i in 0..8 {
            a.write_bytes(0, &[i + 1]);
            seg.commit(&mut a, None);
            seg.update(&mut a);
        }
        // Without GC, all 8 page versions are retained.
        assert!(seg.tracker().live() >= base + 7);
        seg.gc(usize::MAX);
        assert!(seg.tracker().live() < base + 7);
    }

    #[test]
    #[should_panic(expected = "update requires a committed workspace")]
    fn update_with_dirty_pages_panics() {
        let seg = Segment::new(1, 1);
        let (mut a, _) = seg.new_workspace(Tid(0));
        a.write_bytes(0, &[1]);
        seg.update(&mut a);
    }

    #[test]
    fn empty_commit_returns_latest() {
        let seg = Segment::new(1, 1);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let cr = seg.commit(&mut a, None);
        assert_eq!(cr.version, 0);
        assert_eq!(cr.pages, 0);
    }
}
