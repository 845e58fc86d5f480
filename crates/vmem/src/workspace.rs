//! Per-thread isolated workspaces.

use std::sync::Arc;

use dmt_api::{Addr, Tid, PAGE_SIZE};

use crate::merge::DirtyMap;
use crate::page::{PageBuf, PageRef};

/// A page the workspace has faulted and may have modified.
#[derive(Debug)]
struct DirtyPage {
    /// The pristine page as of fault time (shared with the snapshot the
    /// fault happened against, so twins cost no copy).
    twin: PageRef,
    /// The thread's private working copy.
    work: Box<PageBuf>,
}

/// A page the workspace did modify, as a commit consumes it: the twin, the
/// working copy (now immutable) and the dirty-word bitmap of the one scan
/// that compared them.
pub(crate) struct Diff {
    pub page: u32,
    pub twin: PageRef,
    pub work: PageRef,
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
    snap: Vec<PageRef>,
    dirty: Vec<Option<DirtyPage>>,
    dirty_list: Vec<u32>,
}

impl Workspace {
    pub(crate) fn new(tid: Tid, base: u64, snap: Vec<PageRef>) -> Workspace {
        let n = snap.len();
        Workspace {
            tid,
            base,
            snap,
            dirty: (0..n).map(|_| None).collect(),
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
        self.snap.len()
    }

    /// Pages currently dirty (faulted this chunk).
    pub fn dirty_count(&self) -> usize {
        self.dirty_list.len()
    }

    pub(crate) fn snap_mut(&mut self) -> &mut Vec<PageRef> {
        &mut self.snap
    }

    /// Drains the dirty set in ascending page order, diffs each page
    /// against its twin once and hands `each` the modified ones, each right
    /// after its scan while it is still in cache. The dirty scan of every
    /// commit, serial and barrier: the one word-wide pass produces the bitmap
    /// that answers "was this page modified?" and "which words to merge?".
    pub(crate) fn take_modified(&mut self, mut each: impl FnMut(Diff)) {
        self.dirty_list.sort_unstable();
        for page in self.dirty_list.drain(..) {
            let d = self.dirty[page as usize]
                .take()
                .expect("dirty list out of sync");
            let map = DirtyMap::diff(d.twin.bytes(), d.work.bytes());
            if !map.is_clean() {
                each(Diff {
                    page,
                    twin: d.twin,
                    work: PageRef::from(d.work),
                    map,
                });
            }
        }
    }

    #[inline]
    fn check(&self, addr: Addr, len: usize) {
        let end = addr.checked_add(len).expect("address overflow");
        assert!(
            end <= self.snap.len() * PAGE_SIZE,
            "segment access out of bounds: {addr}+{len} > {}",
            self.snap.len() * PAGE_SIZE
        );
    }

    /// Faults page `p` if clean; returns 1 if a fault was taken.
    #[inline]
    fn fault(&mut self, p: usize) -> u32 {
        if self.dirty[p].is_some() {
            return 0;
        }
        let twin = Arc::clone(&self.snap[p]);
        let work = Box::new(PageBuf::duplicate(&twin));
        self.dirty[p] = Some(DirtyPage { twin, work });
        self.dirty_list.push(p as u32);
        1
    }

    /// Reads `buf.len()` bytes at `addr` from the isolated view.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut a = addr;
        let mut done = 0;
        while done < buf.len() {
            let p = a / PAGE_SIZE;
            let off = a % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let src: &[u8; PAGE_SIZE] = match &self.dirty[p] {
                Some(d) => d.work.bytes(),
                None => self.snap[p].bytes(),
            };
            buf[done..done + n].copy_from_slice(&src[off..off + n]);
            a += n;
            done += n;
        }
    }

    /// Writes `data` at `addr`; returns the number of faults taken.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) -> u32 {
        self.check(addr, data.len());
        let mut a = addr;
        let mut done = 0;
        let mut faults = 0;
        while done < data.len() {
            let p = a / PAGE_SIZE;
            let off = a % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(data.len() - done);
            faults += self.fault(p);
            let dst = self.dirty[p]
                .as_mut()
                .expect("just faulted")
                .work
                .bytes_mut();
            dst[off..off + n].copy_from_slice(&data[done..done + n]);
            a += n;
            done += n;
        }
        faults
    }

    /// Fast-path aligned-capable `u64` load.
    #[inline]
    pub fn ld_u64(&self, addr: Addr) -> u64 {
        let p = addr / PAGE_SIZE;
        let off = addr % PAGE_SIZE;
        if off + 8 <= PAGE_SIZE {
            self.check(addr, 8);
            let src: &[u8; PAGE_SIZE] = match &self.dirty[p] {
                Some(d) => d.work.bytes(),
                None => self.snap[p].bytes(),
            };
            u64::from_le_bytes(src[off..off + 8].try_into().unwrap())
        } else {
            let mut b = [0u8; 8];
            self.read_bytes(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Fast-path `u64` store; returns the number of faults taken.
    #[inline]
    pub fn st_u64(&mut self, addr: Addr, v: u64) -> u32 {
        let p = addr / PAGE_SIZE;
        let off = addr % PAGE_SIZE;
        if off + 8 <= PAGE_SIZE {
            self.check(addr, 8);
            let f = self.fault(p);
            let dst = self.dirty[p]
                .as_mut()
                .expect("just faulted")
                .work
                .bytes_mut();
            dst[off..off + 8].copy_from_slice(&v.to_le_bytes());
            f
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
        let snap = (0..npages).map(|_| Arc::new(PageBuf::zeroed(&t))).collect();
        Workspace::new(Tid(0), 0, snap)
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
