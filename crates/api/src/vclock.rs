//! Vector clocks for the §5.3 happens-before study.
//!
//! Consequence itself needs no vector clocks (TSO commits are global); they
//! exist to *estimate* what a lazy-release-consistency system would have
//! propagated (Figure 16). `dmt-bench` folds that estimate from a run's
//! events, with one clock per thread and per synchronization object.

use crate::ids::Tid;

/// A fixed-width vector clock, one component per potential thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// A zero clock for `n` threads.
    pub fn new(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// Component for thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn get(&self, t: Tid) -> u64 {
        self.0[t.index()]
    }

    /// Increments thread `t`'s own component and returns its new value.
    pub fn tick(&mut self, t: Tid) -> u64 {
        self.0[t.index()] += 1;
        self.0[t.index()]
    }

    /// Joins `other` into `self` (component-wise max).
    pub fn join(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Whether `self` happened-before-or-equals `other` (component-wise ≤).
    pub fn leq(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get() {
        let mut v = VectorClock::new(3);
        assert_eq!(v.tick(Tid(1)), 1);
        assert_eq!(v.tick(Tid(1)), 2);
        assert_eq!(v.get(Tid(1)), 2);
        assert_eq!(v.get(Tid(0)), 0);
    }

    #[test]
    fn join_is_componentwise_max() {
        let mut a = VectorClock::new(3);
        a.tick(Tid(0));
        a.tick(Tid(0));
        let mut b = VectorClock::new(3);
        b.tick(Tid(2));
        a.join(&b);
        assert_eq!(a.get(Tid(0)), 2);
        assert_eq!(a.get(Tid(2)), 1);
    }

    #[test]
    fn leq_is_partial_order() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        assert!(a.leq(&b) && b.leq(&a));
        a.tick(Tid(0));
        b.tick(Tid(1));
        // Concurrent: neither ≤ the other.
        assert!(!a.leq(&b) && !b.leq(&a));
        b.join(&a);
        assert!(a.leq(&b));
    }
}
