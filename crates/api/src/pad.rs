//! Cache-line padding for hot per-thread slots.
//!
//! Every thread's context keeps its event counters in memory it alone
//! writes. Without padding, neighbouring threads' counters can share a
//! 64-byte cache line and every increment ping-pongs the line between
//! cores (false sharing). [`CachePadded`] aligns a value to a cache-line
//! boundary so each padded slot owns its line.

use std::ops::{Deref, DerefMut};

/// Wraps a value in its own 64-byte cache line.
///
/// 64 bytes is the line size of every x86-64 and most AArch64 parts; on
/// machines with larger lines the padding is merely less effective, never
/// incorrect.
///
/// # Examples
///
/// ```
/// use dmt_api::CachePadded;
/// use std::sync::atomic::AtomicU64;
///
/// let slots: Vec<CachePadded<AtomicU64>> =
///     (0..4).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
/// assert_eq!(std::mem::align_of_val(&slots[0]), 64);
/// assert_eq!(std::mem::size_of_val(&slots[0]) % 64, 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value` to a cache-line boundary.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> CachePadded<T> {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_are_line_aligned_and_line_sized() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<[u8; 65]>>(), 128);
    }

    #[test]
    fn deref_round_trip() {
        let mut p = CachePadded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn adjacent_slots_do_not_share_a_line() {
        let v: Vec<CachePadded<u64>> = vec![CachePadded::new(0), CachePadded::new(1)];
        let a = &*v[0] as *const u64 as usize;
        let b = &*v[1] as *const u64 as usize;
        assert!(b - a >= 64);
    }
}
