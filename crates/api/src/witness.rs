//! Resource witnessing: continuous memory-bound assertions for long runs.
//!
//! The paper's scalability story is only credible if the runtime's
//! bookkeeping stays *bounded* while the schedule grows: version chains
//! must be collected (Fig. 12), the page pool must recycle rather than
//! accumulate, clock histories must stay under their pruning watermark,
//! and a bounded trace ring must drop rather than grow. Each of those
//! bounds was asserted piecemeal by earlier work (the clock-history
//! watermark regression tests being the precedent); a [`ResourceWitness`]
//! generalizes them into one sampled invariant: the soak harness attaches
//! a witness through [`CommonConfig::witness`](crate::CommonConfig), the
//! runtime observes the four gauges at every commit epoch (and once at
//! teardown), and the witness records maxima and any bound violation.
//!
//! Witnessing is **observation-only**: it never changes virtual time or
//! the schedule, so it is deliberately *not* part of the options
//! fingerprint — a witnessed run records and replays interchangeably
//! with an unwitnessed one.

use std::sync::{Arc, Mutex};

/// Upper bounds the witness asserts on every sample. `usize::MAX` means
/// "not asserted" for that gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceBounds {
    /// Version-chain length: peak versions retained by the segment
    /// (including the intra-commit peak, before the collector trims).
    pub max_retained_versions: usize,
    /// Live 4 KiB pages allocated by the versioned heap and workspaces.
    pub max_live_pages: usize,
    /// Longest per-thread clock history on the scheduling table.
    pub max_clock_history: usize,
    /// Events resident in the attached trace sink (ring occupancy).
    pub max_trace_ring: usize,
}

impl ResourceBounds {
    /// Bounds that assert nothing (gauges still recorded).
    pub fn unbounded() -> ResourceBounds {
        ResourceBounds {
            max_retained_versions: usize::MAX,
            max_live_pages: usize::MAX,
            max_clock_history: usize::MAX,
            max_trace_ring: usize::MAX,
        }
    }
}

/// One observation of the four gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceSample {
    /// Peak retained versions on the segment's version chains.
    pub retained_versions: usize,
    /// Live pages (heap versions + workspaces), tracker gauge.
    pub live_pages: usize,
    /// Longest per-thread clock history.
    pub clock_history: usize,
    /// Trace-sink ring occupancy (0 for non-buffering sinks).
    pub trace_ring: usize,
}

/// What a witnessed run observed: sample count, per-gauge maxima, and
/// the first few bound violations (described, deterministic text).
#[derive(Clone, Debug)]
pub struct WitnessSummary {
    /// The bounds that were asserted.
    pub bounds: ResourceBounds,
    /// Samples taken (≥ 1 for any completed witnessed run: the runtime
    /// samples at every commit and once at teardown).
    pub samples: u64,
    /// Per-gauge maxima over all samples.
    pub maxima: ResourceSample,
    /// Violation descriptions, at most [`ResourceWitness::MAX_RECORDED`]
    /// retained (the count keeps growing in `violation_count`).
    pub violations: Vec<String>,
    /// Total samples that violated at least one bound.
    pub violation_count: u64,
}

impl WitnessSummary {
    /// Whether every sample stayed within every asserted bound.
    pub fn within_bounds(&self) -> bool {
        self.violation_count == 0
    }
}

#[derive(Debug, Default)]
struct WitnessState {
    samples: u64,
    maxima: ResourceSample,
    violations: Vec<String>,
    violation_count: u64,
}

/// A sampled resource-bound monitor (see the module docs).
///
/// Shared by `Arc`: the harness keeps one clone to read the
/// [`summary`](ResourceWitness::summary) after the run, the runtime holds
/// another through its [`WitnessHandle`]. Violations are recorded, not
/// panicked — the harness decides whether a violation fails the run, so a
/// witness can never turn a passing workload into a mid-run abort.
#[derive(Debug)]
pub struct ResourceWitness {
    bounds: ResourceBounds,
    state: Mutex<WitnessState>,
}

impl ResourceWitness {
    /// Violation descriptions retained verbatim; later ones only count.
    pub const MAX_RECORDED: usize = 8;

    /// A witness asserting `bounds`.
    pub fn new(bounds: ResourceBounds) -> Arc<ResourceWitness> {
        Arc::new(ResourceWitness {
            bounds,
            state: Mutex::new(WitnessState::default()),
        })
    }

    /// Records one observation, updating maxima and checking every bound.
    pub fn observe(&self, s: ResourceSample) {
        let mut st = match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        st.samples += 1;
        let sample_no = st.samples;
        st.maxima.retained_versions = st.maxima.retained_versions.max(s.retained_versions);
        st.maxima.live_pages = st.maxima.live_pages.max(s.live_pages);
        st.maxima.clock_history = st.maxima.clock_history.max(s.clock_history);
        st.maxima.trace_ring = st.maxima.trace_ring.max(s.trace_ring);
        let checks = [
            (
                "retained_versions",
                s.retained_versions,
                self.bounds.max_retained_versions,
            ),
            ("live_pages", s.live_pages, self.bounds.max_live_pages),
            (
                "clock_history",
                s.clock_history,
                self.bounds.max_clock_history,
            ),
            ("trace_ring", s.trace_ring, self.bounds.max_trace_ring),
        ];
        let mut violated = false;
        for (gauge, got, bound) in checks {
            if got > bound {
                violated = true;
                if st.violations.len() < Self::MAX_RECORDED {
                    st.violations.push(format!(
                        "sample #{sample_no}: {gauge} {got} > bound {bound}"
                    ));
                }
            }
        }
        if violated {
            st.violation_count += 1;
        }
    }

    /// The bounds this witness asserts.
    pub fn bounds(&self) -> ResourceBounds {
        self.bounds
    }

    /// Snapshot of everything observed so far.
    pub fn summary(&self) -> WitnessSummary {
        let st = match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        WitnessSummary {
            bounds: self.bounds,
            samples: st.samples,
            maxima: st.maxima,
            violations: st.violations.clone(),
            violation_count: st.violation_count,
        }
    }
}

/// The runtime-facing handle: off by default, so every sampling site
/// reduces to one branch and benchmark figures are unaffected.
#[derive(Clone, Debug, Default)]
pub struct WitnessHandle(Option<Arc<ResourceWitness>>);

impl WitnessHandle {
    /// No witnessing (the default).
    pub fn off() -> WitnessHandle {
        WitnessHandle(None)
    }

    /// Observe into `w`.
    pub fn to(w: Arc<ResourceWitness>) -> WitnessHandle {
        WitnessHandle(Some(w))
    }

    /// Whether a witness is attached (sampling sites gate on this).
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation (no-op when off).
    pub fn observe(&self, s: ResourceSample) {
        if let Some(w) = &self.0 {
            w.observe(s);
        }
    }

    /// The attached witness's summary, if any.
    pub fn summary(&self) -> Option<WitnessSummary> {
        self.0.as_ref().map(|w| w.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxima_track_every_gauge_and_bounds_trip() {
        let w = ResourceWitness::new(ResourceBounds {
            max_retained_versions: 10,
            max_live_pages: usize::MAX,
            max_clock_history: 5,
            max_trace_ring: usize::MAX,
        });
        let h = WitnessHandle::to(Arc::clone(&w));
        h.observe(ResourceSample {
            retained_versions: 3,
            live_pages: 100,
            clock_history: 2,
            trace_ring: 7,
        });
        h.observe(ResourceSample {
            retained_versions: 11,
            live_pages: 50,
            clock_history: 9,
            trace_ring: 1,
        });
        let s = w.summary();
        assert_eq!(s.samples, 2);
        assert_eq!(s.maxima.retained_versions, 11);
        assert_eq!(s.maxima.live_pages, 100);
        assert_eq!(s.maxima.clock_history, 9);
        assert_eq!(s.maxima.trace_ring, 7);
        // One violating sample, two violated gauges described.
        assert_eq!(s.violation_count, 1);
        assert_eq!(s.violations.len(), 2);
        assert!(s.violations[0].contains("retained_versions 11 > bound 10"));
        assert!(!s.within_bounds());
    }

    #[test]
    fn off_handle_is_inert_and_unbounded_never_trips() {
        let off = WitnessHandle::off();
        assert!(!off.enabled());
        off.observe(ResourceSample::default());
        assert!(off.summary().is_none());

        let w = ResourceWitness::new(ResourceBounds::unbounded());
        WitnessHandle::to(Arc::clone(&w)).observe(ResourceSample {
            retained_versions: usize::MAX,
            live_pages: usize::MAX,
            clock_history: usize::MAX,
            trace_ring: usize::MAX,
        });
        assert!(w.summary().within_bounds());
    }

    #[test]
    fn violation_descriptions_are_capped_but_counted() {
        let w = ResourceWitness::new(ResourceBounds {
            max_retained_versions: 0,
            ..ResourceBounds::unbounded()
        });
        for _ in 0..20 {
            w.observe(ResourceSample {
                retained_versions: 1,
                ..ResourceSample::default()
            });
        }
        let s = w.summary();
        assert_eq!(s.violation_count, 20);
        assert_eq!(s.violations.len(), ResourceWitness::MAX_RECORDED);
    }
}
