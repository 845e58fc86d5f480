//! Runtime-agnostic API for deterministic multithreading (DMT) runtimes.
//!
//! This crate defines the contract shared by every runtime in the
//! Consequence reproduction: the nondeterministic pthreads baseline, the
//! DThreads and DWC baselines, and Consequence itself (round-robin and
//! instruction-count ordered). A benchmark kernel is written once against
//! [`ThreadCtx`] / [`Runtime`] and runs unmodified under all five.
//!
//! # Model
//!
//! A program is a [`Job`] — a closure receiving a [`ThreadCtx`] — started by
//! [`Runtime::run`]. Jobs may spawn further jobs, synchronize through
//! mutexes / condition variables / barriers created before the run, and
//! share a flat byte-addressable heap accessed through the context.
//!
//! Time is **virtual**: each thread accrues virtual cycles for the work it
//! declares via [`ThreadCtx::tick`], for its memory accesses, and for the
//! runtime-internal operations priced by a [`CostModel`]. Blocking
//! propagates virtual time along wake edges, so the reported
//! [`RunReport::virtual_cycles`] is the critical-path execution time on an
//! idealized machine with one core per thread. See `DESIGN.md` at the
//! workspace root for the rationale (the evaluation host is single-core).
//!
//! # Observability
//!
//! The [`trace`] module records the deterministic total order itself:
//! runtimes emit compact [`trace::Event`]s (token grants, lock tickets,
//! barrier generations, commit page-sets, …) through a [`TraceHandle`]
//! carried in [`CommonConfig`]. A [`trace::HashSink`] folds the schedule
//! into the incremental FNV-1a [`RunReport::schedule_hash`] — two runs of
//! a deterministic runtime must agree on it bit-for-bit — and
//! [`trace::diagnose`] pinpoints the first divergent event when they do
//! not. See `docs/DETERMINISM.md` at the workspace root.
//!
//! The [`perturb`] module is the adversarial counterpart: a seeded fault
//! injector carried as a [`PerturbHandle`] in [`CommonConfig`]. Runtimes
//! fire its hook points at timing-sensitive moments; the `dmt-stress`
//! harness then asserts the schedule hash never moves. See
//! `docs/STRESS.md`.

/// Declares a fieldless enum whose members each have a stable name, once:
/// the enum (`repr(u8)`, each discriminant its place in declaration
/// order), `ALL`, the name accessor `fn $acc`, a lookup by name when a
/// second `fn` is given, and `Display` as the name.
#[macro_export]
macro_rules! named_enum {
    ($(#[$meta:meta])* pub enum $name:ident, fn $acc:ident $(, fn $lookup:ident)? {
        $($(#[$vmeta:meta])* $v:ident => $s:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $v,)+
        }

        impl $name {
            /// Every member, in declaration order.
            pub const ALL: [$name; [$($s),+].len()] = [$($name::$v),+];

            /// The member's stable name, as reports and command lines spell it.
            pub fn $acc(self) -> &'static str {
                match self {
                    $($name::$v => $s,)+
                }
            }

            $(
                /// The member that `name` names, if any.
                pub fn $lookup(name: &str) -> Option<$name> {
                    $name::ALL.into_iter().find(|m| m.$acc() == name)
                }
            )?
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.$acc())
            }
        }
    };
}

pub mod cost;
pub mod ctx;
pub mod error;
pub mod hash;
pub mod ids;
pub mod mem;
pub mod pad;
pub mod perturb;
pub mod report;
pub mod runtime;
pub mod sync;
pub mod trace;
pub mod vclock;

pub use cost::CostModel;
pub use ctx::{Job, ThreadCtx};
pub use error::{ContainedError, DmtError, DmtResult};
pub use hash::Fnv1a;
pub use ids::{Addr, BarrierId, CondId, DomainId, MutexId, RwLockId, Tid};
pub use mem::{MemExt, RuntimeMemExt};
pub use pad::CachePadded;
pub use perturb::{
    FixedPanic, InjectedPanic, IoFaultKind, IoFaultPlan, PanicSite, PerturbEntry, PerturbHandle,
    PerturbPlan, PerturbSite, Perturber, PlanPerturber,
};
pub use report::{Breakdown, Class, Closed, Counters, Ledger, Row, RunReport};
pub use runtime::{CommonConfig, Runtime};
pub use trace::{
    Divergence, Event, EventCounts, EventKind, HashSink, MemorySink, TraceHandle, TraceSink,
};
pub use vclock::VectorClock;

/// Page size used by every versioned-memory runtime, in bytes.
///
/// This mirrors the 4 KiB hardware page granularity at which the paper's
/// Conversion kernel module tracks modifications.
pub const PAGE_SIZE: usize = 4096;
