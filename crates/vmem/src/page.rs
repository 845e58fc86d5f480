//! Pages, live-page accounting, and the freed-page pool with its
//! per-thread magazines.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use dmt_api::sync::Mutex;
use dmt_api::{Addr, PAGE_SIZE};

/// Shared, immutable reference to a committed or snapshot page.
pub type PageRef = Arc<PageBuf>;

/// The page walk and the bounds rule of every byte-range access to a
/// segment of `npages` pages: splits `addr..addr + len` at page boundaries
/// into `(page, offset within it, bytes)`, in address order; an empty range
/// yields nothing.
///
/// # Panics
///
/// Panics — here, not at the first `next` — unless the whole range lies
/// inside the segment, which a range whose end overflows `usize` does not.
pub(crate) fn spans(
    addr: Addr,
    len: usize,
    npages: usize,
) -> impl Iterator<Item = (usize, usize, usize)> {
    let limit = npages * PAGE_SIZE;
    assert!(
        addr.checked_add(len).is_some_and(|end| end <= limit),
        "segment access out of bounds: {addr}+{len} > {limit}"
    );
    let mut a = addr;
    std::iter::from_fn(move || {
        (a < addr + len).then(|| {
            let (page, off) = (a / PAGE_SIZE, a % PAGE_SIZE);
            let n = (PAGE_SIZE - off).min(addr + len - a);
            a += n;
            (page, off, n)
        })
    })
}

/// Upper bound on pooled free pages per segment (16 MiB of 4 KiB pages).
/// Beyond this the steady state is covered and extra frees go back to the
/// allocator, so a transient spike cannot pin memory forever.
const POOL_CAP: usize = 4096;

/// Free buffers a thread's [`Magazine`] keeps (256 KiB).
const MAGAZINE_CAP: usize = 64;

/// Buffers that move between a magazine and its owner's pool in one lock
/// section: a thread that only faults, or only frees, takes the pool lock
/// once every `BATCH` pages.
const BATCH: usize = 32;

/// A raw page buffer: free, or the bytes of a [`PageBuf`].
type Frame = Box<[u8; PAGE_SIZE]>;

/// Tracks the number of distinct live pages so a run can report its peak
/// memory footprint (Figure 12 of the Consequence paper), and recycles
/// freed page buffers so the commit/update steady state allocates nothing.
///
/// Every [`PageBuf`] holds a handle to the tracker of the segment that
/// created it; construction increments the live count and `Drop` decrements
/// it, so the count covers pages reachable from the latest version, retained
/// old versions, workspace snapshots, twins and working copies — exactly the
/// segment's physical footprint. Those two increments are the only atomic
/// read-modify-writes of a page's life in the steady state: `peak` is
/// raised only when `live` passes it.
///
/// A freed buffer goes to the freeing thread's magazine, a bounded
/// thread-local stack of free buffers (`MAGAZINE_CAP`, 64) that serves
/// one tracker at a time, and the next fault-time twin copy or merge output
/// on that thread reuses it without a lock. Buffers move between a magazine
/// and the tracker's shared pool (up to `POOL_CAP`, 4096 pages) in
/// batches of `BATCH` (32), under the pool's mutex, only when the
/// magazine runs empty or full, so a thread that faults and a thread that
/// frees (the barrier installer) still meet. A buffer only ever serves the
/// tracker it came from: a magazine that holds buffers of a live tracker
/// leaves another tracker's pages to that tracker's pool, one lock section
/// each, and changes owner only when it has nothing to hand back, or its
/// owner is gone. At thread exit it hands its buffers back. Pooled
/// buffers, in magazines or not, are *not* live pages.
#[derive(Debug, Default)]
pub struct PageTracker {
    live: AtomicUsize,
    peak: AtomicUsize,
    pool: Mutex<Vec<Frame>>,
    pool_hits: AtomicU64,
}

impl PageTracker {
    /// Creates a tracker with zero live pages and an empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(PageTracker::default())
    }

    /// Currently live pages.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest live-page count observed so far.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Page allocations served from a recycled buffer. A magazine counts
    /// its own and adds them here when it moves a batch, changes owner or
    /// its thread exits, and the calling thread's are added first: read
    /// after every other thread that served this tracker was joined, the
    /// count is exact.
    pub fn pool_hits(&self) -> u64 {
        with_magazine(|m| {
            if m.owned_by(self) {
                m.flush_hits(self);
            }
        });
        self.pool_hits.load(Ordering::Relaxed)
    }

    fn incr(&self) {
        let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        // `peak` only grows: a value it already holds needs no RMW.
        if now > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    fn decr(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Hands up to `n` pooled buffers to `each`: the one lock section a
    /// buffer leaves the pool by.
    fn refill(&self, n: usize, each: impl FnMut(Frame)) {
        let mut pool = self.pool.lock();
        let keep = pool.len().saturating_sub(n);
        pool.drain(keep..).for_each(each);
    }

    /// Pools `frames` up to [`POOL_CAP`] and frees the rest after the
    /// unlock: the one lock section a buffer enters the pool by.
    fn spill(&self, frames: impl IntoIterator<Item = Frame>) {
        let mut frames = frames.into_iter();
        let mut pool = self.pool.lock();
        let room = POOL_CAP.saturating_sub(pool.len());
        pool.extend(frames.by_ref().take(room));
        drop(pool);
        frames.for_each(drop);
    }

    /// One pooled buffer, counted as a hit at once: the path of a thread
    /// whose magazine serves another tracker, or is gone.
    fn take_one(&self) -> Option<Frame> {
        let mut got = None;
        self.refill(1, |f| got = Some(f));
        if got.is_some() {
            self.pool_hits.fetch_add(1, Ordering::Relaxed);
        }
        got
    }
}

/// The free buffers one thread keeps for the tracker it serves, its owner
/// (see [`PageTracker`]). `owner` is weak: a magazine keeps no segment's
/// pool alive, and a dead owner's buffers are freed at the next change.
#[derive(Default)]
struct Magazine {
    owner: Weak<PageTracker>,
    frames: Vec<Frame>,
    /// Allocations served from `frames` that the owner's `pool_hits` does
    /// not hold yet.
    hits: u64,
}

thread_local! {
    static MAGAZINE: RefCell<Magazine> = RefCell::new(Magazine::default());
}

/// Runs `f` on the calling thread's magazine; `None` while it is borrowed
/// or, during the thread's exit, gone — the caller then goes to the pool.
fn with_magazine<R>(f: impl FnOnce(&mut Magazine) -> R) -> Option<R> {
    MAGAZINE
        .try_with(|m| m.try_borrow_mut().ok().map(|mut m| f(&mut m)))
        .ok()
        .flatten()
}

/// A recycled buffer of `t`'s, or `None` when it has none.
fn take(t: &Arc<PageTracker>) -> Option<Frame> {
    with_magazine(|m| m.take(t)).unwrap_or_else(|| t.take_one())
}

/// Recycles `frame`, a buffer of `t`'s.
fn give(t: &Arc<PageTracker>, frame: Frame) {
    let mut frame = Some(frame);
    with_magazine(|m| frame.take().map(|f| m.give(t, f)));
    if let Some(f) = frame {
        t.spill([f]);
    }
}

impl Magazine {
    fn owned_by(&self, t: &PageTracker) -> bool {
        std::ptr::eq(self.owner.as_ptr(), t)
    }

    fn flush_hits(&mut self, owner: &PageTracker) {
        if self.hits > 0 {
            owner
                .pool_hits
                .fetch_add(std::mem::take(&mut self.hits), Ordering::Relaxed);
        }
    }

    /// Whether this magazine serves `t`, adopting it when it has nothing to
    /// hand back to a live owner.
    fn serves(&mut self, t: &Arc<PageTracker>) -> bool {
        if self.owned_by(t) {
            return true;
        }
        if !self.frames.is_empty() && self.owner.strong_count() > 0 {
            return false;
        }
        self.release();
        self.owner = Arc::downgrade(t);
        true
    }

    fn take(&mut self, t: &Arc<PageTracker>) -> Option<Frame> {
        if !self.serves(t) {
            return t.take_one();
        }
        if self.frames.is_empty() {
            self.flush_hits(t);
            t.refill(BATCH, |f| self.frames.push(f));
        }
        let f = self.frames.pop()?;
        self.hits += 1;
        Some(f)
    }

    fn give(&mut self, t: &Arc<PageTracker>, frame: Frame) {
        if !self.serves(t) {
            return t.spill([frame]);
        }
        if self.frames.len() == MAGAZINE_CAP {
            // The oldest go: the newest are the likeliest still cached.
            self.flush_hits(t);
            t.spill(self.frames.drain(..BATCH));
        }
        self.frames.push(frame);
    }

    /// Hands the buffers and the hit count back to a live owner, or frees
    /// the buffers of a dead one. Touches no magazine and drops no
    /// [`PageBuf`], so it cannot re-enter itself, and takes one lock at
    /// most.
    fn release(&mut self) {
        if self.frames.is_empty() && self.hits == 0 {
            return;
        }
        match self.owner.upgrade() {
            Some(owner) => {
                self.flush_hits(&owner);
                if !self.frames.is_empty() {
                    owner.spill(self.frames.drain(..));
                }
            }
            None => {
                self.frames.clear();
                self.hits = 0;
            }
        }
    }
}

impl Drop for Magazine {
    fn drop(&mut self) {
        self.release();
    }
}

/// One 4 KiB page of segment memory.
///
/// Pages are immutable once wrapped in a [`PageRef`]; mutation happens only
/// on a thread's private working copy (a `PageBuf` held by value) before it
/// is committed.
#[derive(Debug)]
pub struct PageBuf {
    /// `None` only transiently inside `Drop`, where the buffer is moved
    /// back to be recycled.
    data: Option<Frame>,
    tracker: Arc<PageTracker>,
}

impl PageBuf {
    /// A zero-filled page accounted against `tracker`.
    pub fn zeroed(tracker: &Arc<PageTracker>) -> PageBuf {
        tracker.incr();
        let data = match take(tracker) {
            Some(mut b) => {
                b.fill(0);
                b
            }
            None => Box::new([0u8; PAGE_SIZE]),
        };
        PageBuf {
            data: Some(data),
            tracker: Arc::clone(tracker),
        }
    }

    /// A copy of `src` accounted against the same tracker.
    pub fn duplicate(src: &PageBuf) -> PageBuf {
        src.tracker.incr();
        let data = match take(&src.tracker) {
            Some(mut b) => {
                b.copy_from_slice(src.bytes());
                b
            }
            None => Box::new(*src.bytes()),
        };
        PageBuf {
            data: Some(data),
            tracker: Arc::clone(&src.tracker),
        }
    }

    /// Read access to the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        self.data.as_ref().expect("page present outside drop")
    }

    /// [`PageBuf::bytes`] for the per-access path, which must not hold a
    /// panic: `None` goes where every other uncommon case of a load goes.
    #[inline(always)]
    pub(crate) fn try_bytes(&self) -> Option<&[u8; PAGE_SIZE]> {
        self.data.as_deref()
    }

    /// [`PageBuf::bytes_mut`], likewise.
    #[inline(always)]
    pub(crate) fn try_bytes_mut(&mut self) -> Option<&mut [u8; PAGE_SIZE]> {
        self.data.as_deref_mut()
    }

    /// Write access to the page bytes (only possible pre-publication, while
    /// the page is still uniquely owned).
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.data.as_mut().expect("page present outside drop")
    }
}

impl Drop for PageBuf {
    fn drop(&mut self) {
        self.tracker.decr();
        if let Some(frame) = self.data.take() {
            give(&self.tracker, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_split_a_range_at_page_boundaries() {
        let all = |addr, len| spans(addr, len, 4).collect::<Vec<_>>();
        assert_eq!(all(100, 0), vec![]);
        assert_eq!(all(4 * PAGE_SIZE, 0), vec![], "empty at the very end");
        assert_eq!(all(100, 5), vec![(0, 100, 5)]);
        assert_eq!(all(PAGE_SIZE - 3, 3), vec![(0, PAGE_SIZE - 3, 3)]);
        assert_eq!(
            all(PAGE_SIZE - 3, 8),
            vec![(0, PAGE_SIZE - 3, 3), (1, 0, 5)]
        );
        assert_eq!(
            all(PAGE_SIZE + 1, 2 * PAGE_SIZE),
            vec![(1, 1, PAGE_SIZE - 1), (2, 0, PAGE_SIZE), (3, 0, 1)]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn spans_reject_a_range_past_the_end_before_yielding() {
        let _ = spans(4 * PAGE_SIZE - 1, 2, 4);
    }

    #[test]
    fn tracker_counts_live_and_peak() {
        let t = PageTracker::new();
        let a = PageBuf::zeroed(&t);
        let b = PageBuf::duplicate(&a);
        assert_eq!(t.live(), 2);
        drop(a);
        assert_eq!(t.live(), 1);
        assert_eq!(t.peak(), 2);
        drop(b);
        assert_eq!(t.live(), 0);
        assert_eq!(t.peak(), 2);
    }

    #[test]
    fn duplicate_copies_bytes() {
        let t = PageTracker::new();
        let mut a = PageBuf::zeroed(&t);
        a.bytes_mut()[17] = 0xab;
        let b = PageBuf::duplicate(&a);
        assert_eq!(b.bytes()[17], 0xab);
        // And the copy is independent.
        a.bytes_mut()[17] = 0xcd;
        assert_eq!(b.bytes()[17], 0xab);
    }

    #[test]
    fn arc_sharing_does_not_inflate_count() {
        let t = PageTracker::new();
        let a: PageRef = Arc::new(PageBuf::zeroed(&t));
        let b = Arc::clone(&a);
        assert_eq!(t.live(), 1);
        drop(a);
        drop(b);
        assert_eq!(t.live(), 0);
    }

    /// Free buffers parked in `t`'s shared pool, outside every magazine.
    fn pooled(t: &PageTracker) -> usize {
        t.pool.lock().len()
    }

    #[test]
    fn dropped_pages_are_recycled_not_reallocated() {
        let t = PageTracker::new();
        let mut a = PageBuf::zeroed(&t);
        a.bytes_mut().fill(0xee);
        let buf = a.bytes().as_ptr();
        let hits_before = t.pool_hits();
        // The freed buffer waits in this thread's magazine, and the next
        // page takes it and re-zeroes it.
        drop(a);
        let b = PageBuf::zeroed(&t);
        assert_eq!(t.pool_hits(), hits_before + 1);
        assert_eq!(b.bytes().as_ptr(), buf, "the same buffer");
        assert!(b.bytes().iter().all(|&x| x == 0), "recycled page is zeroed");
    }

    #[test]
    fn duplicate_from_pool_copies_source() {
        let t = PageTracker::new();
        drop(PageBuf::zeroed(&t)); // seed the pool
        let mut src = PageBuf::zeroed(&t);
        src.bytes_mut()[5] = 9;
        drop(PageBuf::zeroed(&t)); // ensure a pooled buffer is available
        let hits = t.pool_hits();
        let dup = PageBuf::duplicate(&src);
        assert_eq!(t.pool_hits(), hits + 1);
        assert_eq!(dup.bytes()[5], 9);
    }

    /// The barrier installer's shape: one thread faults copies and another
    /// frees them, so buffers go from the freer's magazine through the pool
    /// to the faulter's, a batch at a time. First in rounds (`COPIES` live
    /// at once, then none), then one page at a time with the frees racing
    /// the next copies (at most three live at once). `live` ends where it
    /// started and `peak` is the hand count.
    #[test]
    fn a_faulting_and_a_freeing_thread_keep_live_and_peak_exact() {
        use std::sync::mpsc::sync_channel;
        const COPIES: usize = 3 * MAGAZINE_CAP / 2 + 5;
        let t = PageTracker::new();
        let src = PageBuf::zeroed(&t);
        let start = t.live();
        let (to_freer, freer_rx) = sync_channel::<Vec<PageBuf>>(0);
        let (freed_tx, freed) = sync_channel::<()>(0);
        let freer = std::thread::spawn(move || {
            for pages in freer_rx {
                let round = pages.len() > 1;
                drop(pages);
                if round {
                    freed_tx.send(()).unwrap();
                }
            }
        });
        for _ in 0..20 {
            let copies: Vec<PageBuf> = (0..COPIES).map(|_| PageBuf::duplicate(&src)).collect();
            assert_eq!(t.live(), start + COPIES);
            to_freer.send(copies).unwrap();
            freed.recv().unwrap();
            assert_eq!(t.live(), start);
        }
        for _ in 0..20 * COPIES {
            to_freer.send(vec![PageBuf::duplicate(&src)]).unwrap();
        }
        drop(to_freer);
        freer.join().unwrap();
        assert_eq!(t.live(), start);
        assert_eq!(t.peak(), start + COPIES);
        assert!(t.pool_hits() >= 19 * COPIES as u64, "{}", t.pool_hits());
    }

    /// A buffer serves only the tracker it came from. While this thread's
    /// magazine holds a live tracker A's buffers, B's pages are allocated
    /// fresh and B's hits start at 0; once A is gone, B takes the magazine
    /// over, and A's buffers are freed, not handed to B.
    #[test]
    fn a_magazine_holding_one_trackers_buffers_serves_no_other() {
        let (a, b) = (PageTracker::new(), PageTracker::new());
        drop((0..8).map(|_| PageBuf::zeroed(&a)).collect::<Vec<_>>());
        let bs: Vec<PageBuf> = (0..8).map(|_| PageBuf::zeroed(&b)).collect();
        assert_eq!(b.pool_hits(), 0);
        drop(bs);
        assert_eq!(pooled(&b), 8, "B's frees went to B's pool");
        let again: Vec<PageBuf> = (0..8).map(|_| PageBuf::zeroed(&a)).collect();
        assert_eq!(a.pool_hits(), 8, "A's buffers waited for A");
        drop(again);
        drop(a);
        let c = PageTracker::new();
        let cs: Vec<PageBuf> = (0..8).map(|_| PageBuf::zeroed(&c)).collect();
        assert_eq!(c.pool_hits(), 0, "a dead owner's buffers are freed");
        drop(cs);
        drop(PageBuf::zeroed(&c));
        assert_eq!(c.pool_hits(), 1);
    }

    /// A thread that exits with a full magazine hands its buffers and its
    /// hits back to the owner's pool, and `live` does not move; one whose
    /// owner died first frees them.
    #[test]
    fn an_exiting_thread_hands_its_magazine_back() {
        let t = PageTracker::new();
        let live = t.live();
        let owner = Arc::clone(&t);
        std::thread::spawn(move || {
            drop(
                (0..MAGAZINE_CAP)
                    .map(|_| PageBuf::zeroed(&owner))
                    .collect::<Vec<_>>(),
            );
            drop(PageBuf::zeroed(&owner));
            assert_eq!(pooled(&owner), 0, "all wait in this thread's magazine");
        })
        .join()
        .unwrap();
        assert_eq!(pooled(&t), MAGAZINE_CAP);
        assert_eq!(t.pool_hits(), 1);
        assert_eq!(t.live(), live);

        let dies = PageTracker::new();
        let owner = Arc::clone(&dies);
        let (go_tx, go) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            drop(
                (0..MAGAZINE_CAP)
                    .map(|_| PageBuf::zeroed(&owner))
                    .collect::<Vec<_>>(),
            );
            drop(owner);
            go.recv().unwrap();
        });
        drop(dies);
        go_tx.send(()).unwrap();
        h.join().unwrap();
    }

    /// Lock sections, counted by the `dmt_api::sync` shim (debug builds
    /// only; a release run checks nothing). On a warm workspace every
    /// round faults a page, and its commit, update and collection free the
    /// copy the round before published: three segment sections a round,
    /// and the pool's lock at most once a batch. Each page took two pool
    /// sections before it had magazines.
    #[test]
    fn warm_faults_and_frees_take_the_pool_lock_once_a_batch() {
        if !cfg!(debug_assertions) {
            return;
        }
        use crate::Segment;
        use dmt_api::sync::acquired;
        use dmt_api::Tid;
        const N: u64 = 256;
        let seg = Segment::new(4, 2);
        let (mut ws, _) = seg.new_workspace(Tid(0));
        let mut round = |i: u64| {
            assert_eq!(ws.st_u64((i % 4) as usize * PAGE_SIZE, i + 1), 1);
            seg.commit(&mut ws, None);
            seg.update(&mut ws);
            seg.gc(usize::MAX);
        };
        (0..8).for_each(&mut round);
        let before = acquired();
        (8..8 + N).for_each(&mut round);
        let pool = acquired() - before - 3 * N;
        assert!(
            pool <= N.div_ceil(BATCH as u64) + 2,
            "{pool} pool sections for {N} pages"
        );
    }
}
