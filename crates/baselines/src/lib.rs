//! Baseline runtimes for the Consequence evaluation.
//!
//! The paper (Figure 10–12) compares Consequence-IC against:
//!
//! * **pthreads** — the nondeterministic baseline every result is
//!   normalized to ([`PthreadsRuntime`]);
//! * **DThreads** — round-robin ordering, *synchronous* commits (all
//!   threads rendezvous at every synchronization point and commit
//!   serially), `mprotect`-style isolation and a single global lock
//!   ([`DThreadsRuntime`]);
//! * **DWC** — DThreads-with-Conversion: round-robin ordering but
//!   asynchronous commits (a [`consequence::ConsequenceRuntime`] preset);
//! * **Consequence-RR** — Consequence with round-robin ordering (another
//!   preset).
//!
//! [`RuntimeKind`] and [`make_runtime`] give harnesses one switch for all
//! five systems.

pub mod dthreads;
pub mod pthreads;

use consequence::{ConsequenceRuntime, Options};
use dmt_api::{CommonConfig, Runtime};

pub use dthreads::DThreadsRuntime;
pub use pthreads::PthreadsRuntime;

dmt_api::named_enum! {
    /// The five runtimes evaluated in the paper, in the paper's presentation
    /// order; each label is the runtime's [`Runtime::name`], matching the
    /// paper's figures.
    pub enum RuntimeKind, fn label, fn by_label {
        /// Nondeterministic pthreads.
        Pthreads => "pthreads",
        /// DThreads: round robin + synchronous commits + single global lock.
        DThreads => "dthreads",
        /// DThreads-with-Conversion: round robin + asynchronous commits.
        Dwc => "dwc",
        /// Consequence with round-robin ordering.
        ConsequenceRr => "consequence-rr",
        /// Consequence with instruction-count (GMIC) ordering — the paper's
        /// headline system.
        ConsequenceIc => "consequence-ic",
    }
}

/// Builds a runtime of the given kind.
pub fn make_runtime(kind: RuntimeKind, cfg: CommonConfig) -> Box<dyn Runtime> {
    match kind {
        RuntimeKind::Pthreads => Box::new(PthreadsRuntime::new(cfg)),
        RuntimeKind::DThreads => Box::new(DThreadsRuntime::new(cfg)),
        RuntimeKind::Dwc => Box::new(ConsequenceRuntime::new(cfg, Options::dwc())),
        RuntimeKind::ConsequenceRr => {
            Box::new(ConsequenceRuntime::new(cfg, Options::consequence_rr()))
        }
        RuntimeKind::ConsequenceIc => {
            Box::new(ConsequenceRuntime::new(cfg, Options::consequence_ic()))
        }
    }
}

/// Builds a Consequence-IC runtime with custom options (ablations, Fig 13/14).
pub fn make_consequence(cfg: CommonConfig, opts: Options) -> Box<dyn Runtime> {
    Box::new(ConsequenceRuntime::new(cfg, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each kind, in declaration order, builds the runtime its label names,
    /// and the labels are distinct and look the kinds up.
    #[test]
    fn factory_builds_all_kinds() {
        for (i, kind) in RuntimeKind::ALL.into_iter().enumerate() {
            let rt = make_runtime(kind, CommonConfig::default());
            assert_eq!((kind as usize, rt.name()), (i, kind.label()));
            assert_eq!(rt.is_deterministic(), kind != RuntimeKind::Pthreads);
            assert_eq!(RuntimeKind::by_label(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(RuntimeKind::by_label("nope"), None);
    }
}
