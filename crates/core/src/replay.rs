//! Replay engine: re-executes a workload and checks it against a
//! recorded trace.
//!
//! A `.dmtrace` container (see `dmt_trace` and `docs/TRACE_FORMAT.md`)
//! holds the deterministic schedule of one run. The grant order is an
//! output of `(program, input, options)`, so replay does not feed it back
//! in: it rebuilds the runtime from the recorded inputs (the preset named
//! by the label, checked against the options fingerprint, the perturbation
//! plan and the injected-panic triple), runs it with ordinary eligibility,
//! and attaches a [`dmt_trace::ReplaySink`] that compares every live
//! schedule event — and every per-page cumulative-hash checkpoint —
//! against the recording as it is emitted.
//!
//! On the first mismatch the sink records the first-divergent-event
//! diagnosis (`dmt_api::trace::Divergence`, the same report the stress
//! harness emits); the run goes on to its end, so the verdict also says
//! whether output and commit log reproduced.

use std::fmt;
use std::sync::Arc;

use dmt_api::{
    CommonConfig, CostModel, FixedPanic, PanicSite, PerturbHandle, PerturbPlan, PlanPerturber,
    RunReport, Tid, TraceHandle,
};
use dmt_trace::{PartialTrace, ReplaySink, Replayed, Trace, TraceError, TraceMeta};

use crate::options::Options;
use crate::runtime::ConsequenceRuntime;

/// Why a trace could not be replayed at all (as opposed to replaying and
/// diverging, which is a [`Replayed`] verdict).
#[derive(Debug)]
pub enum ReplayError {
    /// The container failed to open or validate.
    Trace(TraceError),
    /// The trace was recorded under a runtime this engine cannot drive
    /// (e.g. `pthreads`, which makes no determinism promise).
    UnsupportedRuntime(String),
    /// The current build's schedule-relevant options differ from the
    /// recorded fingerprint: the schedule is not expected to apply.
    OptionsMismatch {
        /// Fingerprint stored in the trace.
        recorded: u64,
        /// Fingerprint of this build's options for the same runtime.
        current: u64,
    },
    /// The trace was recorded under a perturbation plan that cannot be
    /// reconstructed from its seed (a shrunk plan); replay would not be
    /// comparing like with like.
    UnsupportedPerturbation {
        /// Master seed stored in the trace.
        seed: u64,
        /// Plan digest stored in the trace.
        plan: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "trace error: {e}"),
            ReplayError::UnsupportedRuntime(r) => {
                write!(f, "cannot replay runtime {r:?} (not a Consequence preset)")
            }
            ReplayError::OptionsMismatch { recorded, current } => write!(
                f,
                "options fingerprint mismatch: trace {recorded:#018x}, build {current:#018x} \
                 (schedule-relevant options changed since recording)"
            ),
            ReplayError::UnsupportedPerturbation { seed, plan } => write!(
                f,
                "trace recorded under an irreproducible perturbation plan \
                 (seed {seed:#x}, digest {plan:#x}): only unperturbed and \
                 full-strength plans replay"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> ReplayError {
        ReplayError::Trace(e)
    }
}

/// Observer side of a replaying runtime: holds the comparison sink and
/// renders the verdict after the run.
pub struct ReplayMonitor {
    sink: Arc<ReplaySink>,
}

impl ReplayMonitor {
    /// Final verdict ([`ReplaySink::finish`]), with its rendered diagnosis
    /// stamped into `report.replay_divergence`. The output and commit-log
    /// digests are the caller's to compare ([`Replayed::digests`]).
    pub fn finish(self, report: &mut RunReport) -> Replayed {
        let r = self.sink.finish();
        report.replay_divergence = r.divergence.clone();
        r
    }
}

/// The Consequence preset matching a recorded runtime label, as written
/// by the recording side ([`dmt_api::Runtime::name`]).
pub fn options_for_label(label: &str) -> Option<Options> {
    match label {
        "consequence-ic" => Some(Options::consequence_ic()),
        "consequence-rr" => Some(Options::consequence_rr()),
        "dwc" => Some(Options::dwc()),
        _ => None,
    }
}

impl ConsequenceRuntime {
    /// Builds a runtime that will re-execute the run recorded in `trace`,
    /// plus the [`ReplayMonitor`] that judges the result.
    ///
    /// The caller must prepare the same workload the trace names (see
    /// [`TraceMeta::workload`] and the input parameters in the META
    /// stream) before calling [`dmt_api::Runtime::run`]; this constructor only
    /// validates that the *runtime configuration* matches the recording
    /// — label, options fingerprint, perturbation plan.
    pub fn new_replaying(
        trace: &Trace,
    ) -> Result<(ConsequenceRuntime, ReplayMonitor), ReplayError> {
        ConsequenceRuntime::new_replaying_inner(trace, ReplaySink::new(trace))
    }

    /// Like [`new_replaying`](ConsequenceRuntime::new_replaying), but for
    /// a salvaged [`PartialTrace`]: the comparison sink runs in partial
    /// mode (the live run outliving the recovered prefix is clean
    /// exhaustion, not divergence), and if the recording carried an
    /// injected-panic triple the same deterministic death is re-injected
    /// — so replaying a salvaged crashed run drives it back to the same
    /// fault point.
    pub fn new_replaying_partial(
        partial: &PartialTrace,
    ) -> Result<(ConsequenceRuntime, ReplayMonitor), ReplayError> {
        ConsequenceRuntime::new_replaying_inner(&partial.trace, ReplaySink::new_partial(partial))
    }

    fn new_replaying_inner(
        trace: &Trace,
        sink: ReplaySink,
    ) -> Result<(ConsequenceRuntime, ReplayMonitor), ReplayError> {
        let opts = options_for_label(&trace.meta.runtime)
            .ok_or_else(|| ReplayError::UnsupportedRuntime(trace.meta.runtime.clone()))?;
        let current = opts.fingerprint();
        if current != trace.meta.options_fingerprint {
            return Err(ReplayError::OptionsMismatch {
                recorded: trace.meta.options_fingerprint,
                current,
            });
        }
        let perturb = reconstruct_perturb(&trace.meta)?;
        let sink = Arc::new(sink);
        let cfg = CommonConfig {
            heap_pages: trace.meta.heap_pages as usize,
            max_threads: trace.meta.max_threads as usize,
            cost: CostModel::default(),
            track_lrc: false,
            gc_budget: 4,
            trace: TraceHandle::to(Arc::clone(&sink) as _),
            perturb,
        };
        Ok((ConsequenceRuntime::new(cfg, opts), ReplayMonitor { sink }))
    }
}

/// Rebuilds the perturbation handle a trace was recorded under: off, or
/// a full-strength seeded plan — anything else (a shrunk plan) cannot be
/// reconstructed from the seed and is refused — then, when the metadata
/// carries an injected-panic triple, wraps it in a [`FixedPanic`] so the
/// replay re-injects the same deterministic death the recording died of.
fn reconstruct_perturb(meta: &TraceMeta) -> Result<PerturbHandle, ReplayError> {
    let timing = if meta.perturb_seed == 0 && meta.perturb_plan == 0 {
        PerturbHandle::off()
    } else {
        let plan = PerturbPlan::full(meta.perturb_seed);
        if plan.digest() != meta.perturb_plan {
            return Err(ReplayError::UnsupportedPerturbation {
                seed: meta.perturb_seed,
                plan: meta.perturb_plan,
            });
        }
        PerturbHandle::to(Arc::new(PlanPerturber::new(plan)))
    };
    if meta.panic_site == 0 {
        return Ok(timing);
    }
    let site =
        PanicSite::from_code(meta.panic_site).ok_or(ReplayError::Trace(TraceError::Corrupt {
            what: "panic site code",
        }))?;
    let victim = u32::try_from(meta.panic_victim).map(Tid).map_err(|_| {
        ReplayError::Trace(TraceError::Corrupt {
            what: "panic victim",
        })
    })?;
    Ok(PerturbHandle::to(Arc::new(FixedPanic {
        site,
        victim,
        nth: meta.panic_nth,
        inner: timing,
    })))
}
