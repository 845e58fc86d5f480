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
//! the owning runtime's global lock, and it exists once: a counter-overflow
//! publication takes that lock like every other transition, eligibility is
//! a scan of the table's entries, and a token release wakes the one
//! successor it names ([`SchedTable::successor`]).
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

pub mod overflow;
pub mod table;

pub use overflow::OverflowPolicy;
pub use table::{OrderPolicy, SchedTable, ThreadState};

// Inert names, deleted with ROADMAP item 3(a): frozen `e2e/` builds its
// probe table through them. The kind is ignored; the slots are the thread
// capacity.

#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedKind;

#[doc(hidden)]
#[derive(Debug)]
pub struct Slots(usize);

impl Slots {
    #[doc(hidden)]
    pub fn new(threads: usize) -> Slots {
        Slots(threads)
    }
}

impl SchedTable {
    #[doc(hidden)]
    pub fn new(_: SchedKind, policy: OrderPolicy, slots: Slots) -> SchedTable {
        SchedTable::with_policy(policy, slots.0)
    }
}
