//! Deterministic logical clocks (§2.1, §3.2, §3.5 of the Consequence paper).
//!
//! A deterministic logical clock produces a total order over synchronization
//! operations that is a pure function of program behaviour. Two policies are
//! implemented:
//!
//! * **Instruction count (Kendo/GMIC):** a sync op performed at logical
//!   clock `c` by thread `t` is ordered by the pair `(c, t)`; a thread may
//!   proceed only when it holds the global minimum among threads that could
//!   still perform an earlier operation.
//! * **Round robin** (DThreads/DWC): threads take turns in id order; a
//!   thread's sync op waits for its turn regardless of how much work others
//!   still have — the Figure 1b pathology.
//!
//! The clock table ([`SchedTable`]) is a passive state machine mutated under
//! the owning runtime's global lock, and it exists once. On its own it is
//! the reference scheduler ([`SchedKind::Reference`]: eligibility read from
//! the table's entries, locked publication — what a failed-over run
//! executes, and the oracle of the differential tests); mirrored into the
//! lock-free [`Slots`], one atomic per thread, it is the fast one
//! ([`SchedKind::Fast`], module [`fast`]: lock-free publication,
//! eligibility read from the mirror). Both name the same successor of a
//! token release ([`SchedTable::successor`]).
//! Crucially the table also propagates **virtual time** along
//! wake edges: every externally visible change of a thread's effective
//! clock bound (publication, departure, turn advance) is recorded with its
//! virtual timestamp, and a waiter's wake time is read back from those
//! histories ([`SchedTable::crossing_v`]), so the waiter resumes no earlier
//! (in virtual time) than the event that released it. This is what makes
//! reported runtimes reflect deterministic waiting.

// Robustness gate: scheduler code must not panic on recoverable
// conditions. The few sanctioned `expect` sites carry `#[allow]` with an
// invariant comment proving they are unreachable absent caller API misuse.
// (Test code is exempt: asserting via unwrap/expect is the point there.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fast;
pub mod overflow;
pub mod replay;
pub mod table;

pub use fast::{PublishOutcome, Slots};
pub use overflow::OverflowPolicy;
pub use replay::ReplayCtl;
pub use table::{OrderPolicy, SchedKind, SchedTable, ThreadState};
