//! The deterministic failure taxonomy.
//!
//! A deterministic runtime cannot stop at deterministic *success*: when a
//! workload thread panics, wedges, or trips a runtime invariant, the
//! failure itself must be delivered deterministically — same error, same
//! observing thread, same point in the schedule, on every rerun of the
//! same seed. [`DmtError`] is the vocabulary for those outcomes. It is
//! runtime-agnostic (defined here, next to [`crate::ThreadCtx`]) so
//! workloads and the stress harness can match on failures without
//! depending on a specific runtime crate.
//!
//! The containment guarantees behind each variant are documented in
//! `docs/ROBUSTNESS.md` at the workspace root.

use std::fmt;

use crate::ids::{BarrierId, CondId, MutexId, RwLockId, Tid};

/// A deterministic runtime failure.
///
/// Every variant is delivered at a deterministic point in the schedule:
/// poison errors arrive in token-grant order, `ThreadPanicked` is observed
/// by `join` exactly where the join would have succeeded, and supervision
/// errors (`Deadlock`, `Shutdown`) tear the run down
/// with a diagnosis instead of hanging the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmtError {
    /// The joined (or otherwise awaited) thread panicked. Carries the
    /// panic payload rendered as a string.
    ThreadPanicked {
        /// The thread that panicked.
        tid: Tid,
        /// The panic message (payload downcast to a string, or a
        /// placeholder for non-string payloads).
        msg: String,
    },
    /// The mutex's owner panicked while holding it. Subsequent acquirers
    /// observe this error in deterministic token-grant order.
    MutexPoisoned {
        /// The poisoned mutex.
        mutex: MutexId,
        /// The thread whose panic poisoned it.
        by: Tid,
    },
    /// A thread waiting on a condition variable was woken because the
    /// owner of its associated mutex died, poisoning the mutex the waiter
    /// would have to re-acquire.
    CondOwnerDied {
        /// The condition variable being waited on.
        cond: CondId,
        /// The mutex the waiter held (and would re-acquire).
        mutex: MutexId,
        /// The thread whose panic poisoned the mutex.
        by: Tid,
    },
    /// A reader–writer lock's exclusive holder panicked while writing.
    RwLockPoisoned {
        /// The poisoned lock.
        lock: RwLockId,
        /// The writer whose panic poisoned it.
        by: Tid,
    },
    /// A barrier can never open again: a participant died before arriving,
    /// leaving fewer live threads than parties.
    BarrierBroken {
        /// The broken barrier.
        barrier: BarrierId,
    },
    /// The supervisor observed no logical progress while threads remain:
    /// either an all-threads-blocked cycle or a wedged token holder.
    /// Carries the watchdog's diagnosis (token holder, per-thread states,
    /// waiter queues).
    Deadlock {
        /// Multi-line human-readable diagnosis from the watchdog.
        diagnosis: String,
    },
    /// The runtime is shutting down (watchdog teardown after a diagnosed
    /// stall); blocked operations unwind instead of waiting forever.
    Shutdown,
}

impl fmt::Display for DmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmtError::ThreadPanicked { tid, msg } => {
                write!(f, "thread {} panicked: {msg}", tid.0)
            }
            DmtError::MutexPoisoned { mutex, by } => {
                write!(f, "mutex {} poisoned by panicked thread {}", mutex.0, by.0)
            }
            DmtError::CondOwnerDied { cond, mutex, by } => write!(
                f,
                "condvar {} wait aborted: mutex {} poisoned by panicked thread {}",
                cond.0, mutex.0, by.0
            ),
            DmtError::RwLockPoisoned { lock, by } => {
                write!(f, "rwlock {} poisoned by panicked thread {}", lock.0, by.0)
            }
            DmtError::BarrierBroken { barrier } => {
                write!(f, "barrier {} broken: a participant died", barrier.0)
            }
            DmtError::Deadlock { diagnosis } => {
                write!(f, "no logical progress (deadlock):\n{diagnosis}")
            }
            DmtError::Shutdown => f.write_str("runtime shutting down"),
        }
    }
}

impl std::error::Error for DmtError {}

/// Result alias for fallible deterministic operations.
pub type DmtResult<T> = Result<T, DmtError>;

/// Unwind payload used to deliver a [`DmtError`] through the infallible
/// [`crate::ThreadCtx`] methods.
///
/// The trait's blocking methods (`mutex_lock`, `cond_wait`, `join`, …)
/// return `()`; when a deterministic error must surface through them, the
/// runtime unwinds with this payload instead of a plain panic. The thread
/// boundary (`catch_unwind` in the runtime) recognizes it and converts it
/// back into the carried error without the panic-hook noise a real
/// workload bug produces. Workloads that prefer explicit handling call the
/// `try_*` variants, which return the error instead of unwinding.
#[derive(Clone, Debug)]
pub struct ContainedError(pub DmtError);

impl fmt::Display for ContainedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_actors() {
        let e = DmtError::MutexPoisoned {
            mutex: MutexId(3),
            by: Tid(7),
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('7'), "{s}");

        let e = DmtError::ThreadPanicked {
            tid: Tid(2),
            msg: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn errors_are_comparable_for_deterministic_assertions() {
        let a = DmtError::Shutdown;
        let b = DmtError::Shutdown;
        assert_eq!(a, b);
        assert_ne!(
            DmtError::BarrierBroken {
                barrier: BarrierId(0)
            },
            DmtError::BarrierBroken {
                barrier: BarrierId(1)
            }
        );
    }
}
