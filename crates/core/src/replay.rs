//! Replay engine: re-executes a workload driven by a recorded trace.
//!
//! A `.dmtrace` container (see `dmt_trace` and `docs/TRACE_FORMAT.md`)
//! holds the deterministic schedule of one run. Replay rebuilds the
//! runtime the trace describes, feeds the recorded token-grant order to
//! the scheduler as a [`det_clock::ReplayCtl`] grant script, and attaches
//! a [`dmt_trace::ReplaySink`] that compares every live schedule event —
//! and every per-page cumulative-hash checkpoint — against the recording.
//!
//! On the first mismatch the sink produces the first-divergent-event
//! diagnosis (`dmt_api::trace::Divergence`, the same report the stress
//! harness emits) and releases the grant script, so the run completes
//! under recomputed eligibility and *reports* where it split instead of
//! deadlocking on a schedule that no longer fits.
//!
//! One option override is applied during replay, schedule-neutral and
//! therefore excluded from [`Options::fingerprint`]: the watchdog stall
//! threshold is lowered so a grant-order deadlock — possible only against
//! a trace from different code — is diagnosed quickly (the census names
//! the scripted grantee the run waits for). Replay runs on the configured
//! scheduler kind: a release wakes the scripted next grantee.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use det_clock::ReplayCtl;
use dmt_api::{
    CommonConfig, CostModel, FixedPanic, Job, PanicSite, PerturbHandle, PerturbPlan, PlanPerturber,
    RunReport, Runtime, Tid, TraceHandle, TraceSink,
};
use dmt_trace::{PartialTrace, ReplaySink, Trace, TraceError, TraceMeta};

use crate::options::Options;
use crate::runtime::ConsequenceRuntime;

/// Watchdog stall threshold during replay, in milliseconds. Low: a
/// replay that stalls is almost certainly waiting on a grant the current
/// build will never produce, and the point is to diagnose that fast.
pub const REPLAY_STALL_MS: u64 = 2_000;

/// Why a trace could not be replayed at all (as opposed to replaying and
/// diverging, which is a [`ReplayOutcome`]).
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

/// The verdict of a finished replay.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Schedule events in the recording.
    pub recorded_events: u64,
    /// Schedule events the re-execution produced.
    pub replayed_events: u64,
    /// Schedule hash stored in the trace META stream.
    pub recorded_hash: u64,
    /// Schedule hash the re-execution produced.
    pub replayed_hash: u64,
    /// Cumulative-hash checkpoints that matched.
    pub checkpoints_passed: u64,
    /// Checkpoints the recording carries.
    pub checkpoints_total: u64,
    /// Rendered first-divergent-event diagnosis, `None` when the replay
    /// tracked the recording exactly (including its length).
    pub divergence: Option<String>,
    /// Whether the recording was a salvaged prefix
    /// ([`ConsequenceRuntime::new_replaying_partial`]): the live run
    /// outliving it is clean exhaustion, not divergence.
    pub partial: bool,
    /// Partial replays: live event index at which the recorded prefix
    /// ran out, `None` when the live run ended at or before the
    /// recording's length.
    pub exhausted_at: Option<u64>,
    /// Live schedule hash at the moment the replay had consumed exactly
    /// the recorded events — the bit-identical-prefix check. `None` when
    /// the live run ended inside the prefix.
    pub prefix_hash: Option<u64>,
}

impl ReplayOutcome {
    /// Whether the re-execution reproduced the recorded schedule exactly:
    /// same events, same length, same hash, every checkpoint passed. For
    /// partial recordings use
    /// [`prefix_matches`](ReplayOutcome::prefix_matches).
    pub fn matches(&self) -> bool {
        self.divergence.is_none()
            && self.replayed_events == self.recorded_events
            && self.replayed_hash == self.recorded_hash
            && self.checkpoints_passed == self.checkpoints_total
    }

    /// Whether the re-execution reproduced the recorded *prefix* exactly:
    /// no divergence inside it, every checkpoint passed, the live hash at
    /// the crossing point equal to the recorded prefix hash, and the live
    /// run at least as long as the recording. This is the partial-trace
    /// verdict: a salvaged crashed run replays to (at least) its fault
    /// point bit-identically.
    pub fn prefix_matches(&self) -> bool {
        self.divergence.is_none()
            && self.replayed_events >= self.recorded_events
            && self.prefix_hash == Some(self.recorded_hash)
            && self.checkpoints_passed == self.checkpoints_total
    }

    /// The verdict appropriate to the recording's kind: `matches` for
    /// full traces, `prefix_matches` for salvaged partials.
    pub fn reproduced(&self) -> bool {
        if self.partial {
            self.prefix_matches()
        } else {
            self.matches()
        }
    }
}

/// Observer side of a replaying runtime: holds the comparison sink and
/// grant script, and renders the verdict after the run.
pub struct ReplayMonitor {
    sink: Arc<ReplaySink>,
    ctl: Arc<ReplayCtl>,
    recorded_events: u64,
    recorded_hash: u64,
    partial: bool,
}

impl ReplayMonitor {
    /// Final verdict. Runs the end-of-trace check (a replay that stopped
    /// short diverged at its end — in partial mode too: the salvaged
    /// prefix itself must replay fully), stamps the rendered diagnosis
    /// into `report.replay_divergence`, and returns the outcome.
    pub fn finish(self, report: &mut RunReport) -> ReplayOutcome {
        let divergence = self.sink.finish_check().map(|d| d.to_string());
        report.replay_divergence = divergence.clone();
        ReplayOutcome {
            recorded_events: self.recorded_events,
            replayed_events: self.sink.replayed_events(),
            recorded_hash: self.recorded_hash,
            replayed_hash: self.sink.schedule_hash(),
            checkpoints_passed: self.sink.checkpoints_passed(),
            checkpoints_total: self.sink.checkpoints_total(),
            divergence,
            partial: self.partial,
            exhausted_at: self.sink.exhausted_at(),
            prefix_hash: self.sink.prefix_hash(),
        }
    }

    /// Grants consumed from the script so far (diagnostic).
    pub fn grants_consumed(&self) -> usize {
        self.ctl.position()
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
    /// Builds a runtime that will re-execute under the schedule recorded
    /// in `trace`, plus the [`ReplayMonitor`] that judges the result.
    ///
    /// The caller must prepare the same workload the trace names (see
    /// [`TraceMeta::workload`] and the input parameters in the META
    /// stream) before calling [`Runtime::run`]; this constructor only
    /// validates that the *runtime configuration* matches the recording
    /// — label, options fingerprint, perturbation plan.
    pub fn new_replaying(
        trace: &Trace,
    ) -> Result<(ConsequenceRuntime, ReplayMonitor), ReplayError> {
        ConsequenceRuntime::new_replaying_inner(trace, false)
    }

    /// Like [`new_replaying`](ConsequenceRuntime::new_replaying), but for
    /// a salvaged [`PartialTrace`]: the comparison sink runs in partial
    /// mode (the live run outliving the recovered prefix is clean
    /// exhaustion, not divergence), and if the recording carried an
    /// injected-panic triple the same deterministic death is re-injected
    /// — so replaying a salvaged crashed run drives it back to the same
    /// fault point. The grant script is exactly the recovered prefix;
    /// once it is exhausted the scheduler falls back to recomputed
    /// eligibility, which is deterministic and therefore completes a
    /// healthy run's tail identically on every replay.
    pub fn new_replaying_partial(
        partial: &PartialTrace,
    ) -> Result<(ConsequenceRuntime, ReplayMonitor), ReplayError> {
        ConsequenceRuntime::new_replaying_inner(&partial.trace, true)
    }

    fn new_replaying_inner(
        trace: &Trace,
        partial: bool,
    ) -> Result<(ConsequenceRuntime, ReplayMonitor), ReplayError> {
        let mut opts = options_for_label(&trace.meta.runtime)
            .ok_or_else(|| ReplayError::UnsupportedRuntime(trace.meta.runtime.clone()))?;
        let current = opts.fingerprint();
        if current != trace.meta.options_fingerprint {
            return Err(ReplayError::OptionsMismatch {
                recorded: trace.meta.options_fingerprint,
                current,
            });
        }
        // Schedule-neutral replay override (excluded from the
        // fingerprint): a fast deadlock diagnosis.
        opts.watchdog_stall_ms = Some(REPLAY_STALL_MS);

        let perturb = reconstruct_perturb(&trace.meta)?;
        let ctl = Arc::new(ReplayCtl::new(trace.grants().iter().map(|t| t.0).collect()));
        let sink = Arc::new(if partial {
            ReplaySink::new_partial(trace, Arc::clone(&ctl))
        } else {
            ReplaySink::new(trace, Arc::clone(&ctl))
        });
        let cfg = CommonConfig {
            heap_pages: trace.meta.heap_pages as usize,
            max_threads: trace.meta.max_threads as usize,
            cost: CostModel::default(),
            track_lrc: false,
            gc_budget: 4,
            trace: TraceHandle::to(Arc::clone(&sink) as _),
            perturb,
            witness: dmt_api::WitnessHandle::off(),
        };
        let monitor = ReplayMonitor {
            sink,
            ctl: Arc::clone(&ctl),
            recorded_events: trace.meta.event_count,
            recorded_hash: trace.meta.schedule_hash,
            partial,
        };
        Ok((
            ConsequenceRuntime::new_with_replay(cfg, opts, Some(ctl)),
            monitor,
        ))
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

/// One-call replay: opens `path`, rebuilds the recorded runtime, lets
/// `prepare` stage the workload (create sync objects, initialize the
/// heap, return the job), runs it under the recorded grant script, and
/// returns the report plus the replay verdict.
///
/// # Examples
///
/// ```no_run
/// use consequence::replay::run_replayed;
///
/// let (report, outcome) = run_replayed("run.dmtrace", |rt| {
///     // Re-stage the same workload the trace names.
///     Box::new(|_ctx| {})
/// })?;
/// assert!(outcome.matches(), "{:?}", outcome.divergence);
/// # Ok::<(), consequence::replay::ReplayError>(())
/// ```
pub fn run_replayed<P, F>(path: P, prepare: F) -> Result<(RunReport, ReplayOutcome), ReplayError>
where
    P: AsRef<Path>,
    F: FnOnce(&mut ConsequenceRuntime) -> Job,
{
    let trace = Trace::open(path)?;
    let (mut rt, monitor) = ConsequenceRuntime::new_replaying(&trace)?;
    let job = prepare(&mut rt);
    let mut report = rt.run(job);
    let outcome = monitor.finish(&mut report);
    Ok((report, outcome))
}
