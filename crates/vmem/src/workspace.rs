//! Per-thread isolated workspaces.

use std::sync::Arc;

use dmt_api::{Addr, Tid, PAGE_SIZE};

use crate::merge::DirtyMap;
use crate::page::{spans, PageBuf, PageRef};

/// A page the workspace has faulted and may have modified.
#[derive(Debug)]
struct DirtyPage {
    /// The pristine page as of fault time (shared with the snapshot the
    /// fault happened against, so twins cost no copy).
    twin: PageRef,
    /// The thread's private working copy.
    work: PageBuf,
    /// Every word stored to since the fault — TSO's store buffer, one bit a
    /// word: an upper bound on the words that differ from the twin, which
    /// [`Workspace::take_modified`] filters down to exactly those.
    marked: DirtyMap,
}

/// One mapped page. The entry stays two pointers wide whatever a faulted
/// page carries: a workspace maps every page of the segment and faults few.
#[derive(Debug)]
struct Mapped {
    /// The page in the version the workspace is based on.
    snap: PageRef,
    /// `Some` from the first store to the page until the next commit.
    dirty: Option<Box<DirtyPage>>,
}

impl Mapped {
    /// The page as the thread sees it.
    #[inline(always)]
    fn page(&self) -> &PageBuf {
        match &self.dirty {
            Some(d) => &d.work,
            None => &self.snap,
        }
    }
}

/// A page the workspace did modify, as a commit consumes it: the twin, the
/// working copy (still uniquely owned: a commit that publishes it wraps it
/// in a [`PageRef`] then) and the bitmap of the words that differ between
/// them.
pub(crate) struct Diff {
    pub page: u32,
    pub twin: PageRef,
    pub work: PageBuf,
    pub map: DirtyMap,
}

/// A thread's isolated view of a [`crate::Segment`].
///
/// Reads hit the working copy for dirty pages and the immutable snapshot
/// otherwise; the first write to a page takes a copy-on-write fault that
/// duplicates the page. All isolation costs are surfaced to the caller:
/// write operations return how many faults they took so the runtime can
/// charge virtual time.
#[derive(Debug)]
pub struct Workspace {
    tid: Tid,
    base: u64,
    pages: Vec<Mapped>,
    dirty_list: Vec<u32>,
}

impl Workspace {
    pub(crate) fn new(tid: Tid, base: u64, snap: &[PageRef]) -> Workspace {
        let map = |snap: &PageRef| Mapped {
            snap: Arc::clone(snap),
            dirty: None,
        };
        Workspace {
            tid,
            base,
            pages: snap.iter().map(map).collect(),
            dirty_list: Vec::new(),
        }
    }

    /// Owning thread.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Version this workspace is based on.
    pub fn base(&self) -> u64 {
        self.base
    }

    pub(crate) fn set_base(&mut self, base: u64) {
        self.base = base;
    }

    pub(crate) fn retag(&mut self, tid: Tid) {
        self.tid = tid;
    }

    /// Number of mapped pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Pages currently dirty (faulted this chunk).
    pub fn dirty_count(&self) -> usize {
        self.dirty_list.len()
    }

    /// Maps `page` to `content`, a newer version's copy of it — unless the
    /// workspace maps that very copy already, which costs one compare and
    /// no reference count. An update through a squashed version replays
    /// the union of every page committed since its base, and most of those
    /// are the copies an earlier update installed.
    #[inline]
    pub(crate) fn remap(&mut self, page: u32, content: &PageRef) {
        let snap = &mut self.pages[page as usize].snap;
        if !Arc::ptr_eq(snap, content) {
            *snap = Arc::clone(content);
        }
    }

    /// The copy of `page` the workspace is based on.
    #[cfg(test)]
    pub(crate) fn mapped(&self, page: u32) -> &PageRef {
        &self.pages[page as usize].snap
    }

    /// Drains the dirty set in ascending page order and hands `each` the
    /// modified pages with their dirty-word maps — where every commit,
    /// serial and barrier, gets them. No page is scanned: the stores marked
    /// the words they touched, and only those are compared with the twin,
    /// so that a word stored to and left unchanged counts as clean. The
    /// result is what a full scan would have found, which debug builds
    /// check at every commit.
    pub(crate) fn take_modified(&mut self, mut each: impl FnMut(Diff)) {
        self.dirty_list.sort_unstable();
        for page in self.dirty_list.drain(..) {
            let d = *self.pages[page as usize]
                .dirty
                .take()
                .expect("dirty list out of sync");
            let mut map = d.marked;
            map.retain_modified(d.twin.bytes(), d.work.bytes());
            debug_assert_eq!(map, DirtyMap::diff(d.twin.bytes(), d.work.bytes()));
            if !map.is_clean() {
                each(Diff {
                    page,
                    twin: d.twin,
                    work: d.work,
                    map,
                });
            }
        }
    }

    /// Faults page `p` if clean; returns its dirty state and 1 if a fault
    /// was taken.
    #[inline]
    fn fault(&mut self, p: usize) -> (&mut DirtyPage, u32) {
        let Mapped { snap, dirty } = &mut self.pages[p];
        let mut faults = 0;
        let d = dirty.get_or_insert_with(|| {
            faults = 1;
            self.dirty_list.push(p as u32);
            Box::new(DirtyPage {
                twin: Arc::clone(snap),
                work: PageBuf::duplicate(snap),
                marked: DirtyMap::default(),
            })
        });
        (d, faults)
    }

    /// Reads `buf.len()` bytes at `addr` from the isolated view.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let mut done = 0;
        for (p, off, n) in spans(addr, buf.len(), self.pages.len()) {
            buf[done..done + n].copy_from_slice(&self.pages[p].page().bytes()[off..off + n]);
            done += n;
        }
    }

    /// Writes `data` at `addr`; returns the number of faults taken.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) -> u32 {
        let mut done = 0;
        let mut faults = 0;
        for (p, off, n) in spans(addr, data.len(), self.pages.len()) {
            let (d, f) = self.fault(p);
            faults += f;
            d.marked.mark_bytes(off, n);
            d.work.bytes_mut()[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
        faults
    }

    /// The `u64` at `addr` when it lies inside one mapped page — the test
    /// every load makes once; `None` for a page-straddling or out-of-bounds
    /// one. Straight-line and panic-free, so that a caller which sends
    /// `None` out of line ([`Workspace::ld_u64`], the runtime's load) stays
    /// a leaf function.
    #[inline(always)]
    pub fn try_ld_u64(&self, addr: Addr) -> Option<u64> {
        let page = self.pages.get(addr / PAGE_SIZE)?.page();
        let off = addr % PAGE_SIZE;
        let b = page.try_bytes()?.get(off..off + 8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// `u64` load.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn ld_u64(&self, addr: Addr) -> u64 {
        #[cold]
        #[inline(never)]
        fn bytewise(ws: &Workspace, addr: Addr) -> u64 {
            let mut b = [0u8; 8];
            ws.read_bytes(addr, &mut b);
            u64::from_le_bytes(b)
        }
        self.try_ld_u64(addr)
            .unwrap_or_else(|| bytewise(self, addr))
    }

    /// Stores `v` at `addr` when that lies inside one mapped page the
    /// workspace has already faulted; otherwise stores nothing and returns
    /// `false`. Straight-line and panic-free like [`Workspace::try_ld_u64`].
    #[inline(always)]
    pub fn try_st_u64(&mut self, addr: Addr, v: u64) -> bool {
        let off = addr % PAGE_SIZE;
        let dirty = self.pages.get_mut(addr / PAGE_SIZE);
        let Some(d) = dirty.and_then(|m| m.dirty.as_deref_mut()) else {
            return false;
        };
        let work = d.work.try_bytes_mut();
        let Some(dst) = work.and_then(|b| b.get_mut(off..off + 8)) else {
            return false;
        };
        dst.copy_from_slice(&v.to_le_bytes());
        d.marked.mark_u64(off);
        true
    }

    /// `u64` store; returns the number of faults taken.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn st_u64(&mut self, addr: Addr, v: u64) -> u32 {
        if self.try_st_u64(addr, v) {
            0
        } else {
            self.write_bytes(addr, &v.to_le_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageTracker;

    fn ws(npages: usize) -> Workspace {
        let t = PageTracker::new();
        let snap: Vec<PageRef> = (0..npages).map(|_| Arc::new(PageBuf::zeroed(&t))).collect();
        Workspace::new(Tid(0), 0, &snap)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut w = ws(2);
        let faults = w.write_bytes(100, b"hello");
        assert_eq!(faults, 1);
        let mut buf = [0u8; 5];
        w.read_bytes(100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn second_write_to_same_page_takes_no_fault() {
        let mut w = ws(2);
        assert_eq!(w.write_bytes(0, &[1]), 1);
        assert_eq!(w.write_bytes(1, &[2]), 0);
        assert_eq!(w.dirty_count(), 1);
    }

    #[test]
    fn cross_page_write_faults_both_pages() {
        let mut w = ws(2);
        let data = [9u8; 16];
        let faults = w.write_bytes(PAGE_SIZE - 8, &data);
        assert_eq!(faults, 2);
        let mut buf = [0u8; 16];
        w.read_bytes(PAGE_SIZE - 8, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn u64_fast_path_matches_byte_path() {
        let mut w = ws(2);
        w.st_u64(16, 0xdead_beef);
        assert_eq!(w.ld_u64(16), 0xdead_beef);
        // Page-straddling store falls back to the byte path.
        w.st_u64(PAGE_SIZE - 3, 0x0102_0304_0506_0708);
        assert_eq!(w.ld_u64(PAGE_SIZE - 3), 0x0102_0304_0506_0708);
    }

    #[test]
    fn twin_preserves_fault_time_contents() {
        let mut w = ws(1);
        w.write_bytes(0, &[42]);
        let mut dirty = Vec::new();
        w.take_modified(|d| dirty.push(d));
        assert_eq!(dirty.len(), 1);
        let d = &dirty[0];
        assert_eq!(d.page, 0);
        assert_eq!(d.twin.bytes()[0], 0, "twin keeps the pre-write value");
        assert_eq!(d.work.bytes()[0], 42);
    }

    #[test]
    fn take_modified_returns_sorted_drops_clean_and_clears() {
        let mut w = ws(4);
        w.write_bytes(3 * PAGE_SIZE, &[1]);
        w.write_bytes(2 * PAGE_SIZE, &[0]); // faulted, stored what was there
        w.write_bytes(PAGE_SIZE, &[1]);
        assert_eq!(w.dirty_count(), 3);
        let mut pages = Vec::new();
        w.take_modified(|d| pages.push(d.page));
        assert_eq!(pages, vec![1, 3]);
        assert_eq!(w.dirty_count(), 0);
    }

    #[test]
    fn an_empty_write_faults_and_marks_nothing() {
        let mut w = ws(2);
        assert_eq!(w.write_bytes(PAGE_SIZE - 1, &[]), 0);
        assert_eq!(w.write_bytes(2 * PAGE_SIZE, &[]), 0, "at the very end");
        assert_eq!(w.dirty_count(), 0);
        assert!(w.pages.iter().all(|m| m.dirty.is_none()));
    }

    /// MMIX LCG, as in `parallel.rs`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The map the stores make is the map the scan made: random sequences
    /// of every kind of store, then one drain. Every page handed over
    /// carries exactly `DirtyMap::diff(twin, work)`, every page held back
    /// was left as its twin, and the view read back what a flat byte model
    /// says was written. Debug builds assert the first of these inside
    /// `take_modified`; here it holds in release builds too.
    #[test]
    fn stores_mark_what_a_scan_would_find() {
        const PAGES: usize = 4;
        const LEN: usize = PAGES * PAGE_SIZE;
        let t = PageTracker::new();
        let snap: Vec<PageRef> = (0..PAGES)
            .map(|p| {
                let mut page = PageBuf::zeroed(&t);
                for (i, b) in page.bytes_mut().iter_mut().enumerate() {
                    *b = (i * 7 + p * 13) as u8;
                }
                Arc::new(page)
            })
            .collect();
        let mut initial = vec![0u8; LEN];
        let mut w = Workspace::new(Tid(0), 0, &snap);
        w.read_bytes(0, &mut initial);

        for seed in 0..48u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
            let mut model = initial.clone();
            // `write`: the store under test and the same bytes into the model.
            let write = |w: &mut Workspace, model: &mut [u8], addr: usize, data: &[u8]| {
                if data.len() == 8 && addr.is_multiple_of(2) {
                    w.st_u64(addr, u64::from_le_bytes(data.try_into().unwrap()));
                } else {
                    w.write_bytes(addr, data);
                }
                model[addr..addr + data.len()].copy_from_slice(data);
            };
            for _ in 0..rng.below(24) {
                let fresh: Vec<u8> = (0..3 * PAGE_SIZE).map(|_| rng.next() as u8).collect();
                let page = rng.below(PAGES) * PAGE_SIZE;
                match rng.below(11) {
                    // Aligned, unaligned and page-straddling `st_u64`.
                    0 => write(&mut w, &mut model, page + 8 * rng.below(512), &fresh[..8]),
                    1 => write(&mut w, &mut model, page + 2 * rng.below(2044), &fresh[..8]),
                    2 => {
                        let before_boundary = page.max(PAGE_SIZE) - 2 * (1 + rng.below(3));
                        write(&mut w, &mut model, before_boundary, &fresh[..8]);
                    }
                    // Nothing, one byte, a pair across a word boundary.
                    3 => write(&mut w, &mut model, rng.below(LEN + 1), &[]),
                    4 => write(&mut w, &mut model, rng.below(LEN), &fresh[..1]),
                    5 => write(
                        &mut w,
                        &mut model,
                        page + 8 * rng.below(511) + 7,
                        &fresh[..2],
                    ),
                    // A run ending exactly at a page end; a run over three pages.
                    6 => {
                        let n = 1 + rng.below(300);
                        write(&mut w, &mut model, page + PAGE_SIZE - n, &fresh[..n]);
                    }
                    7 => {
                        let start = rng.below(PAGE_SIZE);
                        let n = 2 * PAGE_SIZE - start + 1 + rng.below(PAGE_SIZE);
                        write(&mut w, &mut model, start, &fresh[..n]);
                    }
                    // The value already there, by word and by run.
                    8 => {
                        let a = 2 * rng.below(LEN / 2 - 4);
                        let same = model[a..a + 8].to_vec();
                        write(&mut w, &mut model, a, &same);
                    }
                    9 => {
                        let a = rng.below(LEN - 100);
                        let same = model[a..a + 1 + rng.below(99)].to_vec();
                        write(&mut w, &mut model, a, &same);
                    }
                    // Written, then restored.
                    _ => {
                        let a = rng.below(LEN - 40);
                        let n = 1 + rng.below(40);
                        let old = model[a..a + n].to_vec();
                        write(&mut w, &mut model, a, &fresh[..n]);
                        write(&mut w, &mut model, a, &old);
                    }
                }
            }
            let mut view = vec![0u8; LEN];
            w.read_bytes(0, &mut view);
            assert_eq!(view, model, "seed {seed}: the view is what was written");

            let faulted: Vec<(u32, bool)> = w
                .dirty_list
                .iter()
                .map(|&p| {
                    let d = w.pages[p as usize].dirty.as_ref().expect("listed");
                    (p, d.work.bytes() != d.twin.bytes())
                })
                .collect();
            let mut handed = Vec::new();
            w.take_modified(|d| {
                let scan = DirtyMap::diff(d.twin.bytes(), d.work.bytes());
                assert_eq!(d.map, scan, "seed {seed}, page {}", d.page);
                let at = d.page as usize * PAGE_SIZE;
                assert_eq!(d.work.bytes()[..], model[at..at + PAGE_SIZE]);
                handed.push(d.page);
            });
            let mut modified: Vec<u32> = faulted.iter().filter(|f| f.1).map(|f| f.0).collect();
            modified.sort_unstable();
            assert_eq!(
                handed, modified,
                "seed {seed}: exactly the pages that differ"
            );
            // Nothing was committed: the view is the snapshot again.
            w.read_bytes(0, &mut view);
            assert_eq!(view, initial);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let w = ws(1);
        let mut b = [0u8; 16];
        w.read_bytes(PAGE_SIZE - 8, &mut b);
    }

    #[test]
    fn reads_never_fault() {
        let w = ws(1);
        let mut b = [0u8; 64];
        w.read_bytes(0, &mut b);
        assert_eq!(w.dirty_count(), 0);
    }
}
