//! Per-thread base-version registry, consulted by the garbage collector.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dmt_api::Tid;

/// Sentinel base for threads that are not attached to the segment.
const DEAD: u64 = u64::MAX;

/// Tracks, for each thread slot, the version its workspace is based on.
///
/// The collector may only reclaim versions every live workspace has already
/// replayed, i.e. versions with id ≤ the minimum registered base. A
/// generation counter bumps on every base change so the collector can skip
/// rescanning history when nothing moved since its last pass.
#[derive(Debug)]
pub struct Registry {
    bases: Vec<AtomicU64>,
    /// One past the highest slot ever registered: every slot from it on is
    /// dead, so [`Registry::min_live_base`] stops there.
    registered: AtomicUsize,
    generation: AtomicU64,
}

impl Registry {
    /// Registry with `slots` thread slots, all initially dead.
    pub fn new(slots: usize) -> Self {
        Registry {
            bases: (0..slots).map(|_| AtomicU64::new(DEAD)).collect(),
            registered: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Marks `tid` live with base version `base`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` exceeds the slot count.
    pub fn set_base(&self, tid: Tid, base: u64) {
        // Indexed first, so `registered` never passes the slot count.
        let slot = &self.bases[tid.index()];
        // Raised (Release, paired with the scan's Acquire) before the base
        // is stored: a scan that misses the raise reads the registry as it
        // was before this call. `registered` only grows, so a stale load
        // costs at most a redundant RMW, and the load keeps the call of an
        // already registered slot free of one.
        if self.registered.load(Ordering::Relaxed) <= tid.index() {
            self.registered
                .fetch_max(tid.index() + 1, Ordering::Release);
        }
        slot.store(base, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Marks `tid` detached; its workspace no longer pins versions.
    pub fn mark_dead(&self, tid: Tid) {
        self.bases[tid.index()].store(DEAD, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Monotonic counter of base changes; equal values mean no workspace
    /// moved between two reads.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Minimum base version across live threads, or `None` if no thread is
    /// attached. Reads the slots up to the highest ever registered, not
    /// every slot the registry was made with.
    pub fn min_live_base(&self) -> Option<u64> {
        let registered = self.registered.load(Ordering::Acquire);
        let min = self.bases[..registered]
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .min()
            .unwrap_or(DEAD);
        if min == DEAD {
            None
        } else {
            Some(min)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_has_no_min() {
        let r = Registry::new(4);
        assert_eq!(r.min_live_base(), None);
    }

    #[test]
    fn min_tracks_live_threads_only() {
        let r = Registry::new(4);
        r.set_base(Tid(0), 10);
        r.set_base(Tid(2), 7);
        assert_eq!(r.min_live_base(), Some(7));
        r.mark_dead(Tid(2));
        assert_eq!(r.min_live_base(), Some(10));
        r.mark_dead(Tid(0));
        assert_eq!(r.min_live_base(), None);
    }

    /// The scan stops at the highest slot ever registered, which a death
    /// does not lower: a slot registered above dead ones is read, and a
    /// registry whose every slot died has no minimum.
    #[test]
    fn min_reads_every_slot_up_to_the_highest_registered() {
        let r = Registry::new(8);
        r.set_base(Tid(0), 5);
        r.set_base(Tid(1), 3);
        r.mark_dead(Tid(0));
        r.mark_dead(Tid(1));
        assert_eq!(r.min_live_base(), None, "every slot dead");
        r.set_base(Tid(5), 9);
        assert_eq!(r.min_live_base(), Some(9), "above two dead slots");
        r.set_base(Tid(2), 4);
        assert_eq!(r.min_live_base(), Some(4), "below the highest");
        r.mark_dead(Tid(5));
        r.mark_dead(Tid(2));
        assert_eq!(r.min_live_base(), None);
        r.set_base(Tid(7), 1);
        assert_eq!(r.min_live_base(), Some(1), "the last slot");
    }

    #[test]
    fn generation_bumps_on_every_base_change() {
        let r = Registry::new(2);
        let g0 = r.generation();
        r.set_base(Tid(0), 3);
        assert!(r.generation() > g0);
        let g1 = r.generation();
        r.mark_dead(Tid(0));
        assert!(r.generation() > g1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_tid_panics() {
        let r = Registry::new(2);
        r.set_base(Tid(5), 0);
    }
}
