//! Pages, live-page accounting, and the freed-page pool.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Tracks the number of distinct live pages so a run can report its peak
/// memory footprint (Figure 12 of the Consequence paper), and recycles
/// freed page buffers so the commit/update steady state allocates nothing.
///
/// Every [`PageBuf`] holds a handle to the tracker of the segment that
/// created it; construction increments the live count and `Drop` decrements
/// it, so the count covers pages reachable from the latest version, retained
/// old versions, workspace snapshots, twins and working copies — exactly the
/// segment's physical footprint. On drop the raw 4 KiB buffer is parked in
/// the tracker's pool (up to `POOL_CAP`, 4096 pages); the next fault-time twin copy or
/// merge output reuses it instead of hitting the allocator. Pooled buffers
/// are *not* live pages.
#[derive(Debug, Default)]
pub struct PageTracker {
    live: AtomicUsize,
    peak: AtomicUsize,
    pool: Mutex<Vec<Box<[u8; PAGE_SIZE]>>>,
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

    /// Page allocations served from the recycle pool.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits.load(Ordering::Relaxed)
    }

    /// Free pages currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.lock().len()
    }

    fn incr(&self) {
        let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn decr(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Takes a recycled buffer (contents unspecified), or `None` when the
    /// pool is empty.
    fn take(&self) -> Option<Box<[u8; PAGE_SIZE]>> {
        let got = self.pool.lock().pop();
        if got.is_some() {
            self.pool_hits.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    fn park(&self, buf: Box<[u8; PAGE_SIZE]>) {
        let mut pool = self.pool.lock();
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
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
    /// back to the tracker's pool.
    data: Option<Box<[u8; PAGE_SIZE]>>,
    tracker: Arc<PageTracker>,
}

impl PageBuf {
    /// A zero-filled page accounted against `tracker`.
    pub fn zeroed(tracker: &Arc<PageTracker>) -> PageBuf {
        tracker.incr();
        let data = match tracker.take() {
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
        let data = match src.tracker.take() {
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
        if let Some(buf) = self.data.take() {
            self.tracker.park(buf);
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

    #[test]
    fn dropped_pages_are_recycled_not_reallocated() {
        let t = PageTracker::new();
        let mut a = PageBuf::zeroed(&t);
        a.bytes_mut().fill(0xee);
        drop(a);
        assert_eq!(t.pooled(), 1);
        let hits_before = t.pool_hits();
        // The recycled buffer is reused and re-zeroed.
        let b = PageBuf::zeroed(&t);
        assert_eq!(t.pool_hits(), hits_before + 1);
        assert_eq!(t.pooled(), 0);
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
}
