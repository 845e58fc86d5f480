//! Replay grant source: drives token grants from a recorded schedule.
//!
//! During replay the scheduler does not *recompute* eligibility from
//! published clocks — it *follows* the recorded token-grant order. A
//! [`ReplayCtl`] holds that order; the runtime consults
//! [`ReplayCtl::admits`] where it would normally ask the clock table for
//! eligibility and [`ReplayCtl::next`] where it would ask for the thread
//! to wake, and calls [`ReplayCtl::granted`] at the grant point to
//! advance the cursor.
//!
//! Replay is self-releasing on divergence: once the trace is exhausted,
//! or a comparison sink flags a divergence via
//! [`ReplayCtl::mark_diverged`], both return `None` and the runtime
//! falls back to real (recomputed) eligibility so the run can complete
//! and report *where* it split instead of deadlocking on a schedule that
//! no longer fits the execution.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A recorded token-grant order, consumed concurrently by every thread
/// of a replaying runtime.
///
/// All methods are lock-free; the runtime calls them under its own
/// global lock, so the relaxed orderings below are never load-bearing
/// for correctness of the grant sequence itself.
#[derive(Debug)]
pub struct ReplayCtl {
    /// Grantee thread ids (`Tid.0`), in recorded schedule order.
    grants: Vec<u32>,
    /// Next grant to hand out.
    cursor: AtomicUsize,
    /// Replay abandoned: fall back to recomputed eligibility.
    diverged: AtomicBool,
}

impl ReplayCtl {
    /// Builds a grant source from the recorded grantee sequence.
    pub fn new(grants: Vec<u32>) -> ReplayCtl {
        ReplayCtl {
            grants,
            cursor: AtomicUsize::new(0),
            diverged: AtomicBool::new(false),
        }
    }

    /// The recorded next grantee. `None` when the replay no longer drives
    /// grants (trace exhausted or diverged) and the caller must fall back
    /// to recomputed eligibility.
    pub fn next(&self) -> Option<u32> {
        if self.diverged.load(Ordering::Acquire) {
            return None;
        }
        self.grants
            .get(self.cursor.load(Ordering::Acquire))
            .copied()
    }

    /// Whether thread `tid` is [`next`](ReplayCtl::next); `None` as there.
    pub fn admits(&self, tid: u32) -> Option<bool> {
        self.next().map(|n| n == tid)
    }

    /// Records that `tid` took the token, advancing the cursor when the
    /// grant matches the script. A mismatching grant (possible only
    /// after a fallback wake raced the divergence flag) marks the replay
    /// diverged rather than mis-advancing the script.
    pub fn granted(&self, tid: u32) {
        match self.next() {
            Some(next) if next == tid => {
                self.cursor.store(self.position() + 1, Ordering::Release);
            }
            Some(_) => self.mark_diverged(),
            None => {}
        }
    }

    /// Abandons grant driving: every subsequent [`ReplayCtl::admits`]
    /// returns `None`. Called by the comparison sink on the first
    /// divergent event so the run can finish under real eligibility.
    pub fn mark_diverged(&self) {
        self.diverged.store(true, Ordering::Release);
    }

    /// Whether the replay was abandoned.
    pub fn diverged(&self) -> bool {
        self.diverged.load(Ordering::Acquire)
    }

    /// Grants consumed so far.
    pub fn position(&self) -> usize {
        self.cursor.load(Ordering::Acquire)
    }

    /// Total grants in the script.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }

    /// Whether every scripted grant has been consumed.
    pub fn exhausted(&self) -> bool {
        self.position() >= self.grants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_only_the_scripted_next_grantee() {
        let ctl = ReplayCtl::new(vec![0, 2, 1]);
        assert_eq!(ctl.next(), Some(0));
        assert_eq!(ctl.admits(0), Some(true));
        assert_eq!(ctl.admits(2), Some(false));
        ctl.granted(0);
        assert_eq!(ctl.next(), Some(2));
        assert_eq!(ctl.admits(0), Some(false));
        assert_eq!(ctl.admits(2), Some(true));
        ctl.granted(2);
        ctl.granted(1);
        assert!(ctl.exhausted());
        // Exhausted: callers fall back to recomputed eligibility.
        assert_eq!((ctl.next(), ctl.admits(1)), (None, None));
        // So does a script abandoned half way.
        let ctl = ReplayCtl::new(vec![0, 2, 1]);
        ctl.granted(0);
        ctl.mark_diverged();
        assert_eq!((ctl.next(), ctl.position()), (None, 1));
    }

    #[test]
    fn divergence_releases_the_script() {
        let ctl = ReplayCtl::new(vec![0, 1]);
        ctl.mark_diverged();
        assert!(ctl.diverged());
        assert_eq!(ctl.admits(0), None);
        // Grants after divergence do not move the cursor.
        ctl.granted(0);
        assert_eq!(ctl.position(), 0);
    }

    #[test]
    fn offscript_grant_marks_divergence() {
        let ctl = ReplayCtl::new(vec![0, 1]);
        ctl.granted(1);
        assert!(ctl.diverged());
        assert_eq!(ctl.position(), 0);
    }
}
