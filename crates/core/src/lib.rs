//! **Consequence**: high-performance deterministic multithreading with
//! total-store-order consistency.
//!
//! This crate is the core of the reproduction of Merrifield, Devietti &
//! Eriksson, *"High-Performance Determinism with Total Store Order
//! Consistency"* (EuroSys 2015). It provides [`ConsequenceRuntime`], a
//! deterministic implementation of the [`dmt_api::Runtime`] contract:
//! programs written against [`dmt_api::ThreadCtx`] execute with
//! reproducible synchronization outcomes, reproducible data-race
//! resolutions, and reproducible final memory — while retaining the TSO
//! memory model of x86.
//!
//! # Architecture
//!
//! * ordering — a Kendo-style instruction-count logical clock with a
//!   single global token ([`det_clock`]), or round-robin for the
//!   Consequence-RR / DWC configurations;
//! * isolation — version-controlled memory with byte-granularity
//!   last-writer-wins merging ([`conversion`]);
//! * synchronization — blocking deterministic mutexes with wait queues and
//!   `clockDepart`, condition variables, and a barrier with two-phase
//!   parallel commit (§4);
//! * adaptation — adaptive chunk coarsening, adaptive counter overflow,
//!   clock fast-forward, user-space counter reads, and thread-pool reuse
//!   (§3), each independently toggleable through [`Options`] for the
//!   Figure 13 ablations;
//! * measurement — deterministic virtual-time accounting (see the
//!   workspace `DESIGN.md`). The §5.3 propagation estimate (Figure 16) is
//!   not kept here: `dmt-bench` folds it from the emitted events.

// Robustness gate: runtime code must not panic on recoverable
// conditions — recoverable failures travel as `DmtError` and workload
// panics are contained at the thread boundary. The few sanctioned
// `expect` sites carry `#[allow]` with an invariant comment proving they
// are unreachable absent caller API misuse. (Tests are exempt.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coarsen;
mod ctx;
pub mod options;
pub mod runtime;
mod shared;

pub use options::{options_for_label, Options};
pub use runtime::ConsequenceRuntime;
