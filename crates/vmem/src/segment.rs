//! The versioned shared-memory segment.

use std::collections::VecDeque;
use std::sync::Arc;

use dmt_api::sync::Mutex;

use dmt_api::{Addr, Counters, Fnv1a, PerturbHandle, PerturbSite, Tid, PAGE_SIZE};

use crate::merge::{self, DirtyMap};
use crate::page::{spans, PageBuf, PageRef, PageTracker};
use crate::registry::Registry;
use crate::version::Version;
use crate::workspace::{Diff, Workspace};

/// A pre-merged version ready to install: committing thread, its pages
/// (index, content) and, beside them, each page's write set.
pub(crate) type BuiltVersion = (Tid, Vec<(u32, PageRef)>, Vec<DirtyMap>);

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
    /// Running digest of `(id, committer, (page, map, values)*)` for every
    /// commit — what each version wrote, the determinism witness. Written
    /// by [`fold_commit_log`] only.
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
    /// the collector trims, so `RunReport::peak_versions` includes the
    /// intra-epoch spikes a post-GC reading would hide.
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
    /// the collector trims (`RunReport::peak_versions`).
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
        let mut maps: Vec<DirtyMap> = Vec::with_capacity(ws.dirty_count());
        let mut merged = 0u32;
        let mut page_set = Fnv1a::new();
        ws.take_modified(|d| {
            let p = d.page;
            let (page, map, was_merged) = build_page(&inner.latest[p as usize], [d]);
            merged += was_merged as u32;
            page_set.update_u64(p as u64);
            pages.push((p, page));
            maps.push(map);
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
            version: inner.install(ws.tid(), pages, &maps),
        }
    }

    /// Installs pre-merged versions produced by a
    /// [`crate::ParallelCommit`]. Caller must serialize with other commits.
    pub(crate) fn install_versions(&self, built: Vec<BuiltVersion>) {
        let mut inner = self.inner.lock();
        for (tid, pages, maps) in built {
            if !pages.is_empty() {
                inner.install(tid, pages, &maps);
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

    /// What a run report reads off the segment once, at teardown: the
    /// collector's totals and the page pool's hits into `counters`, and
    /// `(peak live pages, peak retained versions)` as the result. Every
    /// collector pass goes through the segment, so its totals are the
    /// run's count.
    pub fn harvest(&self, counters: &mut Counters) -> (usize, usize) {
        (counters.gc_versions_dropped, counters.gc_versions_squashed) = self.gc_totals();
        counters.page_pool_hits = self.tracker.pool_hits();
        (self.tracker.peak(), self.retained_peak())
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
    /// the pages that changed plus a walk of the union. The propagation
    /// count reads the window `ws.base() + 1 ..= upto` of the per-commit
    /// records by index, not by search.
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
            // Version ids are increasing but not dense (the collector
            // squashes adjacent versions), so locate by search.
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
            // above may traverse squashed (merged) representations. Their
            // ids are dense from `first_retained`, so the window is an
            // index range.
            debug_assert_eq!(
                inner.counts.front().map(|c| c.0),
                Some(inner.first_retained)
            );
            let first = inner.first_retained;
            for (_, npages, committer) in inner
                .counts
                .range((ws.base() + 1 - first) as usize..=(upto - first) as usize)
            {
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
    ///   their page sets, newer content winning, folded into the older
    ///   version's page list in place). Squashing is safe for an
    ///   updater based exactly between the two: the extra pages it applies
    ///   carry content it already has — the very copies it maps, which
    ///   `Workspace::remap` skips. This is how superseded page copies
    ///   get reclaimed even while a blocked thread pins an old base —
    ///   Conversion's collector does the equivalent at the page level.
    ///
    /// A finite budget models the paper's single-threaded collector, run by
    /// every installer: under page churn faster than the budget, retained
    /// versions (and thus live pages) outrun it — the mechanism the paper
    /// gives for Figure 12's `canneal`/`lu_ncb`. At the default budget it
    /// keeps up here; `figures extras` shows the blow-up at a starved one.
    /// The paper's proposed multi-threaded collector corresponds to a large
    /// budget.
    ///
    /// Calls are cheap when nothing changed: a pass that runs out of work
    /// records the registry generation and version count it saw, and
    /// subsequent calls return immediately until a commit, a workspace
    /// base change, or a pin release invalidates that snapshot. This keeps
    /// the per-chunk `gc()` call on the runtime hot path near-free in the
    /// steady state where every thread is up to date. A pass that runs
    /// reads the live bases of the registered slots only
    /// ([`Registry::min_live_base`]), and its squash costs what the newer
    /// version committed, not the union it is folded into, when that union
    /// already holds its pages.
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
    /// Publishes `pages` (non-empty, page-sorted), with their write sets
    /// `maps` beside them, as the next version committed by `tid` and
    /// returns its id — the tail of every commit, serial or barrier, so the
    /// two cannot disagree on what a version records.
    fn install(&mut self, tid: Tid, pages: Vec<(u32, PageRef)>, maps: &[DirtyMap]) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        fold_commit_log(self, id, tid, &pages, maps);
        for (p, r) in &pages {
            self.latest[*p as usize] = Arc::clone(r);
        }
        self.counts.push_back((id, pages.len() as u32, tid));
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

/// The adopt-or-merge rule of every commit: a page is built on its first
/// writer's working copy whenever nobody else committed the page since that
/// writer faulted it (`base` still is its twin), and the later diffs are
/// applied onto that copy in commit order, local bytes winning. A sole such
/// writer publishes its copy as is. Only a first diff whose twin is not
/// `base` costs a copy: the page is then a duplicate of `base` with every
/// diff applied.
///
/// Adopting is exact: the first diff's map is exact against its twin, so
/// applying it onto a copy of `base` would rebuild the working copy byte
/// for byte.
///
/// Returns the page, its write set and whether it was merged (it had more
/// than one diff, or was not adopted). An adopted sole writer's write set
/// is its diff's map, exact against `base`; any other page's is the union
/// of its diffs' maps, which covers every word that differs from `base`
/// ([`merge::apply_with_map`] writes no other).
///
/// # Panics
///
/// Panics if `diffs` is empty.
pub(crate) fn build_page(
    base: &PageRef,
    diffs: impl IntoIterator<Item = Diff>,
) -> (PageRef, DirtyMap, bool) {
    let mut diffs = diffs.into_iter();
    let first = diffs
        .next()
        .expect("a page is built from at least one diff");
    let mut map = first.map;
    let (mut out, mut merged) = if Arc::ptr_eq(base, &first.twin) {
        (first.work, false)
    } else {
        let mut out = PageBuf::duplicate(base);
        merge::apply_with_map(
            &first.map,
            first.twin.bytes(),
            first.work.bytes(),
            out.bytes_mut(),
        );
        (out, true)
    };
    for d in diffs {
        merge::apply_with_map(&d.map, d.twin.bytes(), d.work.bytes(), out.bytes_mut());
        map.union(&d.map);
        merged = true;
    }
    (Arc::new(out), map, merged)
}

/// Squashes the two oldest retained versions into one: union of their
/// page sets (newer content winning — both lists are page-sorted), id of
/// the newer, base id of the older. An updater based between the two
/// replays the whole union, and the extra pages it applies carry content
/// it already has — the same `Arc`s, so each costs it a compare and no
/// reference count (`Workspace::remap`).
///
/// The newer version is folded into the older one's page list, which the
/// squashed version keeps ([`fold_pages`]): a workload whose reader pins
/// an early base squashes every commit onto the accumulated union, and
/// that union is not copied to add a few pages to it.
fn squash_oldest_pair(versions: &mut VecDeque<Version>) {
    let newer = versions.remove(1).expect("squash needs two versions");
    let older = &mut versions[0];
    fold_pages(&mut older.pages, newer.pages);
    older.id = newer.id;
    older.committer = newer.committer;
}

/// Folds `newer` into `older`, both page-sorted: afterwards `older` holds
/// the union, `newer`'s page winning where both hold one.
///
/// The branch reads the two lengths. When `newer` is small against
/// `older` (`fine_locks` folds 5 pages into 68, `kv_server` 2 into 5),
/// each of its pages is a binary search in the rest of `older`: a hit
/// replaces the entry in place, and the misses, collected over `newer`'s
/// own buffer, go in by one backward merge that moves each entry of
/// `older` at most once. The searches cost at most `n + k` compares, by
/// the branch. Otherwise (the barrier shapes fold 64 into 128) it is the
/// linear merge into a fresh list. So no fold is worse than linear, and a
/// fold whose pages `older` already holds allocates nothing.
fn fold_pages(older: &mut Vec<(u32, PageRef)>, newer: Vec<(u32, PageRef)>) {
    let (n, k) = (older.len(), newer.len());
    // A search of `older` costs at most ⌈log2(n + 1)⌉ compares.
    let search = (usize::BITS - n.leading_zeros()) as usize;
    if k * search > n + k {
        let mut merged = Vec::with_capacity(n + k);
        let mut ai = std::mem::take(older).into_iter().peekable();
        let mut bi = newer.into_iter().peekable();
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
        *older = merged;
        return;
    }
    let mut lo = 0;
    let mut misses: Vec<(u32, PageRef)> = newer
        .into_iter()
        .filter_map(
            |(p, r)| match older[lo..].binary_search_by_key(&p, |e| e.0) {
                Ok(i) => {
                    lo += i + 1;
                    older[lo - 1].1 = r;
                    None
                }
                Err(i) => {
                    lo += i;
                    Some((p, r))
                }
            },
        )
        .collect();
    // Backward merge: the slots `[i, w)` are the room still to fill, one
    // per miss left, opened with clones of the misses that the merge
    // overwrites.
    let (mut i, mut w) = (n, n + misses.len());
    older.extend_from_slice(&misses);
    while let Some(miss) = misses.pop() {
        while i > 0 && older[i - 1].0 > miss.0 {
            i -= 1;
            w -= 1;
            older.swap(i, w);
        }
        w -= 1;
        older[w] = miss;
    }
}

/// Folds one version's record — `(id, committer, (page, map, values)*)`,
/// in page order — into the segment's running digest: `id`, the
/// committer, then per published page its index and
/// [`merge::record_term`] of its write set `map` and the page's words
/// under it. The only writer of `SegInner::log`, called by
/// [`SegInner::install`] only, before `latest` takes the new pages.
///
/// The record is as strong a witness as the pages' content. Every word
/// outside a page's map equals the page it replaces: an adopted page's map
/// is exact against its twin, which is the page it replaces, and a merged
/// page is a copy of the page it replaces with [`merge::apply_with_map`]
/// writing only words in its diffs' maps, whose union is the map. The
/// debug assertion below checks that at every commit. Initial memory is a
/// function of the program, so the record sequence determines every
/// version's content. It is also stricter than content: equal bytes
/// reached through different write sets give different logs. A merged
/// page records the union and not the words that ended up differing: the
/// union determines the same content, and costs nothing to form, where
/// comparing against the replaced page would cost the barrier merge a
/// scan of every marked word.
///
/// The cost follows the write set, not the page: a multiply per marked
/// word, plus a fixed fold per page.
fn fold_commit_log(
    inner: &mut SegInner,
    id: u64,
    tid: Tid,
    pages: &[(u32, PageRef)],
    maps: &[DirtyMap],
) {
    debug_assert_eq!(pages.len(), maps.len());
    inner.log.update_u64(id);
    inner.log.update_u64(tid.0 as u64);
    for ((p, r), map) in pages.iter().zip(maps) {
        let replaced = inner.latest[*p as usize].bytes();
        debug_assert!(DirtyMap::diff(replaced, r.bytes()).is_subset(map));
        inner.log.update_u64(*p as u64);
        inner.log.update_u64(merge::record_term(map, r.bytes()));
    }
}

/// One published page as the tests write its record: `(page, marked
/// words, published content)`.
#[cfg(test)]
pub(crate) type ModelPage = (u32, Vec<usize>, [u8; PAGE_SIZE]);

/// The commit log written out for the tests: `versions` are `(id,
/// committer, pages)`, folded as [`fold_commit_log`] folds them.
#[cfg(test)]
pub(crate) fn model_log(versions: &[(u64, Tid, Vec<ModelPage>)]) -> u64 {
    let mut log = Fnv1a::new();
    for (id, tid, pages) in versions {
        log.update_u64(*id);
        log.update_u64(tid.0 as u64);
        for (p, words, page) in pages {
            let mut map = DirtyMap::default();
            words.iter().for_each(|w| map.mark_u64(8 * w));
            log.update_u64(*p as u64);
            log.update_u64(merge::record_term(&map, page));
        }
    }
    log.digest()
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

    /// Equal bytes at every version, reached through different write
    /// sets: B's twin predates A's commit, so B re-storing the value A
    /// committed marks word 0 of its merged page, and leaving it alone
    /// does not. A digest of the page could not tell the two apart; the
    /// record can.
    #[test]
    fn equal_bytes_through_different_write_sets_give_different_logs() {
        let run = |b_restores: bool| {
            let seg = Segment::new(1, 2);
            let (mut a, _) = seg.new_workspace(Tid(0));
            let (mut b, _) = seg.new_workspace(Tid(1));
            let mut pages = [[0u8; PAGE_SIZE]; 2];
            a.st_u64(0, 7);
            seg.commit(&mut a, None);
            seg.read_latest(0, &mut pages[0]);
            if b_restores {
                b.st_u64(0, 7);
            }
            b.st_u64(8, 1);
            assert_eq!(seg.commit(&mut b, None).merged, 1);
            seg.read_latest(0, &mut pages[1]);
            (pages, seg.log_hash())
        };
        let (pages, log) = run(false);
        let (restored_pages, restored_log) = run(true);
        assert_eq!(pages, restored_pages, "equal bytes at every version");
        assert_ne!(log, restored_log);
        for (restores, log) in [(false, log), (true, restored_log)] {
            let b_words = if restores { vec![0, 1] } else { vec![1] };
            let model = model_log(&[
                (1, Tid(0), vec![(0, vec![0], pages[0])]),
                (2, Tid(1), vec![(0, b_words, pages[1])]),
            ]);
            assert_eq!(log, model, "B restores word 0: {restores}");
        }
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

    /// The squash as it was before it folded in place, kept as the oracle
    /// of [`squash_oldest_pair`]: a linear merge of both page lists into a
    /// new one, the newer version's page winning.
    fn squash_by_merge(versions: &mut VecDeque<Version>) {
        let va = versions.pop_front().expect("two versions");
        let vb = versions.front_mut().expect("two versions");
        let mut merged = Vec::new();
        let mut ai = va.pages.into_iter().peekable();
        let mut bi = std::mem::take(&mut vb.pages).into_iter().peekable();
        loop {
            match (ai.peek(), bi.peek()) {
                (Some((pa, _)), Some((pb, _))) if pa < pb => merged.push(ai.next().unwrap()),
                (Some((pa, _)), Some((pb, _))) if pa == pb => {
                    ai.next();
                    merged.push(bi.next().unwrap());
                }
                (_, Some(_)) => merged.push(bi.next().unwrap()),
                (Some(_), None) => merged.push(ai.next().unwrap()),
                (None, None) => break,
            }
        }
        vb.pages = merged;
        vb.base_id = va.base_id;
    }

    /// MMIX LCG, as in `parallel.rs`.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 11) % n as u64) as usize
        }
    }

    /// A version of `len` distinct pages out of `0..span`, each a fresh
    /// page of `tracker`.
    fn random_version(
        rng: &mut Lcg,
        tracker: &Arc<PageTracker>,
        id: u64,
        len: usize,
        span: usize,
    ) -> Version {
        let mut picked: Vec<u32> = (0..span as u32).collect();
        for i in 0..len {
            picked.swap(i, i + rng.below(span - i));
        }
        picked.truncate(len);
        picked.sort_unstable();
        Version {
            id,
            base_id: id - rng.below(2) as u64,
            committer: Tid(id as u32 % 3),
            pages: picked
                .into_iter()
                .map(|p| (p, Arc::new(PageBuf::zeroed(tracker))))
                .collect(),
        }
    }

    /// A random page of `tracker`.
    fn random_page(rng: &mut Lcg, tracker: &Arc<PageTracker>) -> PageRef {
        let mut page = PageBuf::zeroed(tracker);
        page.bytes_mut()
            .iter_mut()
            .for_each(|b| *b = rng.below(256) as u8);
        Arc::new(page)
    }

    /// A writer that faulted `twin` and stored `n` random bytes among its
    /// first `span`, as `take_modified` hands it over: the first store
    /// changes its byte, and the map is exact against the twin.
    fn random_diff(rng: &mut Lcg, twin: &PageRef, span: usize, n: usize) -> Diff {
        let mut work = PageBuf::duplicate(twin);
        let at = rng.below(span);
        work.bytes_mut()[at] ^= 1 + rng.below(255) as u8;
        for _ in 1..n {
            work.bytes_mut()[rng.below(span)] = rng.below(256) as u8;
        }
        let map = DirtyMap::diff(twin.bytes(), work.bytes());
        let twin = Arc::clone(twin);
        Diff {
            page: 0,
            twin,
            work,
            map,
        }
    }

    /// Building a page on its first writer's copy gives what a copy of
    /// `base` with every diff applied gives, in bytes, write set and the
    /// `merged` flag: 1–4 writers, the first faulted `base`, each later
    /// one `base` or an older page. A narrow span makes the diffs overlap,
    /// so later diffs win words and bytes of earlier ones.
    #[test]
    fn building_on_the_first_copy_matches_duplicate_and_apply() {
        let mut rng = Lcg(0xAD_0B_7E);
        for case in 0..400 {
            let tracker = PageTracker::new();
            let base = random_page(&mut rng, &tracker);
            let older = random_page(&mut rng, &tracker);
            let n = 1 + rng.below(4);
            let span = 16 << rng.below(9);
            let diffs: Vec<Diff> = (0..n)
                .map(|i| {
                    let twin = if i == 0 || rng.below(2) == 0 {
                        &base
                    } else {
                        &older
                    };
                    let stores = 1 + rng.below(64);
                    random_diff(&mut rng, twin, span, stores)
                })
                .collect();
            let mut want = PageBuf::duplicate(&base);
            let mut want_map = DirtyMap::default();
            for d in &diffs {
                merge::apply_with_map(&d.map, d.twin.bytes(), d.work.bytes(), want.bytes_mut());
                want_map.union(&d.map);
            }
            let first_copy = diffs[0].work.bytes().as_ptr();
            let (page, map, merged) = build_page(&base, diffs);
            assert_eq!(page.bytes(), want.bytes(), "case {case}: {n} diffs");
            assert_eq!(map, want_map, "case {case}");
            assert_eq!(merged, n > 1, "case {case}");
            assert_eq!(page.bytes().as_ptr(), first_copy, "case {case}: adopted");
        }
    }

    /// A first writer whose twin is not `base` (someone committed the page
    /// after it faulted) takes the fallback: a fresh copy of `base`.
    #[test]
    fn a_stale_first_twin_builds_on_a_copy_of_base() {
        let mut rng = Lcg(0x57_A1_E0);
        let tracker = PageTracker::new();
        let base = random_page(&mut rng, &tracker);
        let older = random_page(&mut rng, &tracker);
        let d = random_diff(&mut rng, &older, PAGE_SIZE, 8);
        let mut want = PageBuf::duplicate(&base);
        merge::apply_with_map(&d.map, d.twin.bytes(), d.work.bytes(), want.bytes_mut());
        let (first_copy, want_map) = (d.work.bytes().as_ptr(), d.map);
        let (page, map, merged) = build_page(&base, [d]);
        assert_eq!((page.bytes(), map, merged), (want.bytes(), want_map, true));
        assert_ne!(page.bytes().as_ptr(), first_copy);
    }

    /// The squash in place gives what the merge gave: the same page
    /// list, entry by entry the same `Arc`, the same ids, and no page kept
    /// alive that the merge released. Random pairs, plus the shapes the
    /// workloads squash: 5 pages into 68 (`fine_locks`), 2 into 5
    /// (`kv_server`), 64 into 128 (the barriers), 127 into 1 and an empty
    /// side.
    #[test]
    fn squash_in_place_matches_the_linear_merge() {
        let mut rng = Lcg(0x5A_5A_5A);
        let mut shapes = vec![(68, 5), (5, 2), (128, 64), (1, 127), (0, 9), (9, 0), (0, 0)];
        shapes.extend((0..400).map(|_| (rng.below(130), rng.below(130))));
        for (n, k) in shapes {
            // A narrow span makes most of the newer pages hits, a wide one
            // misses.
            let span = n.max(k) + rng.below(2 * (n + k) + 1);
            let tracker = PageTracker::new();
            let older = random_version(&mut rng, &tracker, 10, n, span);
            let newer = random_version(&mut rng, &tracker, 11, k, span);
            let mut oracle: VecDeque<Version> = [older.clone(), newer.clone()].into();
            let mut folded: VecDeque<Version> = [older, newer].into();
            squash_by_merge(&mut oracle);
            squash_oldest_pair(&mut folded);
            let (want, got) = (&oracle[0], &folded[0]);
            assert_eq!(
                (folded.len(), got.id, got.base_id),
                (1, want.id, want.base_id)
            );
            assert_eq!(got.committer, want.committer);
            assert_eq!(got.pages.len(), want.pages.len(), "{k} into {n}");
            for ((pg, rg), (pw, rw)) in got.pages.iter().zip(&want.pages) {
                assert!(pg == pw && Arc::ptr_eq(rg, rw), "{k} into {n}: page {pw}");
            }
            // Both lists hold the same `Arc`s: a page either side still
            // held beyond the union would show here.
            assert_eq!(tracker.live(), want.pages.len(), "{k} into {n}");
            drop(oracle);
            assert_eq!(tracker.live(), got.pages.len());
        }
    }

    /// `fine_locks`' sequence: every commit squashed onto the union of all
    /// the earlier ones, the union held by one list throughout.
    #[test]
    fn repeated_squashes_fold_into_the_oldest_list() {
        let mut rng = Lcg(0xF1_F1_F1);
        let tracker = PageTracker::new();
        let first = random_version(&mut rng, &tracker, 1, 5, 80);
        let mut oracle: VecDeque<Version> = [first.clone()].into();
        let mut folded: VecDeque<Version> = [first].into();
        for id in 2..200 {
            let len = 1 + rng.below(6);
            let v = random_version(&mut rng, &tracker, id, len, 80);
            oracle.push_back(v.clone());
            folded.push_back(v);
            squash_by_merge(&mut oracle);
            squash_oldest_pair(&mut folded);
            let (want, got) = (&oracle[0], &folded[0]);
            assert_eq!((got.id, got.base_id), (want.id, want.base_id));
            assert!(got
                .pages
                .iter()
                .zip(&want.pages)
                .all(|((pg, rg), (pw, rw))| pg == pw && Arc::ptr_eq(rg, rw)));
            assert_eq!(got.pages.len(), want.pages.len());
            assert_eq!(tracker.live(), want.pages.len());
        }
    }

    /// The propagation count reads the per-commit records by index: a
    /// prefix the collector dropped and a range it squashed give the
    /// counts the uncollected history gives.
    #[test]
    fn propagation_window_survives_a_dropped_prefix_and_a_squash() {
        let run = |collect: bool| {
            let seg = Segment::new(4, 3);
            let (mut a, _) = seg.new_workspace(Tid(0));
            let (mut b, _) = seg.new_workspace(Tid(1));
            let (mut c, _) = seg.new_workspace(Tid(2));
            let commit = |ws: &mut Workspace, pages: &[usize], val: u8| {
                for p in pages {
                    ws.write_bytes(p * PAGE_SIZE, &[val]);
                }
                seg.commit(ws, None);
                seg.update(ws);
            };
            commit(&mut a, &[0, 1], 1);
            commit(&mut a, &[2], 2);
            // Everyone replays 1..=2: the collector may drop them.
            seg.update(&mut b);
            seg.update(&mut c);
            commit(&mut a, &[0, 3], 3);
            commit(&mut b, &[1], 4);
            commit(&mut a, &[2, 3], 5);
            commit(&mut b, &[0, 1, 2], 6);
            seg.pin(4);
            if collect {
                // C holds base 2: 1..=2 go, 3..=4 squash up to the pin.
                let res = seg.gc(usize::MAX);
                assert_eq!((res.dropped, res.squashed), (2, 1));
                assert_eq!(seg.retained_versions(), 3);
            }
            [
                seg.update(&mut a).pages_propagated,
                seg.update_to(&mut c, 4).pages_propagated,
                seg.update(&mut c).pages_propagated,
            ]
        };
        // A, at 5, sees B's 6; C sees 3 and 4, then 5 and 6.
        assert_eq!(run(false), [3, 3, 5]);
        assert_eq!(run(true), [3, 3, 5]);
    }

    /// A pooled workspace handed to a higher thread id keeps pinning its
    /// base: the collector reads the slot it moved to.
    #[test]
    fn an_adopted_workspace_pins_from_its_new_slot() {
        let seg = Segment::new(1, 8);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut pooled, _) = seg.new_workspace(Tid(1));
        seg.detach(Tid(1));
        seg.adopt(&mut pooled, Tid(6));
        for i in 1..=3u8 {
            a.write_bytes(0, &[i]);
            seg.commit(&mut a, None);
            seg.update(&mut a);
        }
        assert_eq!(seg.gc(usize::MAX).dropped, 0, "slot 6 holds base 0");
        assert_eq!(seg.update(&mut pooled).pages_propagated, 3);
        let mut buf = [0u8; 1];
        pooled.read_bytes(0, &mut buf);
        assert_eq!(buf[0], 3);
        assert_eq!(seg.gc(usize::MAX).dropped, 1);
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
