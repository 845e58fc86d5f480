//! Minimal synchronization primitives with a `parking_lot`-style API.
//!
//! The workspace builds in offline environments with no registry access,
//! so the runtime crates use this thin facade over [`std::sync`] instead
//! of an external lock crate. The API mirrors the subset of `parking_lot`
//! the runtimes need: `lock()` returns a guard directly (poisoning is
//! swallowed — a panicking thread aborts the test anyway, and the
//! runtimes' shared state has no invariants a poisoned lock would rescue),
//! and [`Condvar::wait`] takes the guard by `&mut` so callers can wait in
//! a loop without rebinding.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    static HELD: Cell<u32> = const { Cell::new(0) };
    static ACQUIRED: Cell<u64> = const { Cell::new(0) };
    static SLEPT: Cell<u64> = const { Cell::new(0) };
}

/// How many [`Mutex`]es the calling thread holds, counted in debug builds
/// only: a waker `debug_assert`s that it wakes nobody into its own lock.
pub fn held() -> u32 {
    HELD.with(Cell::get)
}

/// How many [`Mutex`] acquisitions the calling thread has made, counted in
/// debug builds only (0 in release): what a protocol step costs in lock
/// sections, for tests that pin it.
pub fn acquired() -> u64 {
    ACQUIRED.with(Cell::get)
}

/// How many sleeps the calling thread has [`count_sleep`]ed, counted in
/// debug builds only (0 in release). Each sleep relocks once, and how often
/// a thread sleeps is the host's timing: a test that pins [`acquired`]
/// subtracts this.
pub fn slept() -> u64 {
    SLEPT.with(Cell::get)
}

/// Counts one sleep of the calling thread for [`slept`]: its caller has just
/// relocked after it (debug builds only).
pub fn count_sleep() {
    if cfg!(debug_assertions) {
        SLEPT.with(|s| s.set(s.get() + 1));
    }
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking the current thread until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.0.lock();
        if cfg!(debug_assertions) {
            HELD.with(|h| h.set(h.get() + 1));
            ACQUIRED.with(|a| a.set(a.get() + 1));
        }
        MutexGuard(Some(guard.unwrap_or_else(|poisoned| poisoned.into_inner())))
    }
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The inner `Option` is only ever `None` transiently inside
/// [`Condvar::wait`], which moves the std guard through the wait and puts
/// it back before returning.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside wait")
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() - 1));
    }
}

/// A condition variable whose waits re-borrow the caller's guard.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically releases the lock behind `guard` and blocks until
    /// notified, re-acquiring before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present before wait");
        guard.0 = Some(
            self.0
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(5);
        let before = acquired();
        *m.lock() += 1;
        let g = m.lock();
        assert_eq!((*g, held()), (6, u32::from(cfg!(debug_assertions))));
        drop(g);
        assert_eq!(held(), 0);
        let debug = u64::from(cfg!(debug_assertions));
        assert_eq!(acquired() - before, 2 * debug);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }
}
