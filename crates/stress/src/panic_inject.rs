//! `stress --inject-panic`: seeded panic injection against the
//! containment contract.
//!
//! The runtime's robustness claim (see `docs/ROBUSTNESS.md`) is that a
//! workload thread dying *anywhere* — at a lock acquisition, a barrier
//! arrival, a chunk commit — is contained deterministically: the dying
//! thread departs the clock under the token, poisons what it held, and
//! every survivor observes the fallout (`MutexPoisoned`, `BarrierBroken`,
//! `ThreadPanicked`) at a schedule point that is a pure function of the
//! program. In other words, **a panicking run is exactly as reproducible
//! as a healthy one**.
//!
//! This mode attacks that claim the same way the main fuzzer attacks the
//! timing claim. For every workload × Consequence-backed runtime × seed it
//! derives a victim `(site, tid, nth)` triple — a pure function of the
//! seed, so the injected death lands at the same point in the victim's
//! instruction stream on every rerun — runs the cell twice, and requires
//! both runs to produce the same schedule hash *and* the same contained
//! panic set. A cell where no panic fires (the victim never reaches the
//! armed site) is still a valid probe: the run must then match the
//! sequential reference like any healthy run. Completing at all is the
//! third oracle — a hang here is a containment bug, and the runtimes'
//! watchdog turns it into a diagnosed failure rather than a stuck CI job.

use std::sync::Arc;

use consequence::options_for_label;
use dmt_api::{FixedPanic, PanicSite, PerturbHandle, Tid};

use crate::report::{yes_no, Col, Notes, Report, Table};
use crate::{mix64, StressConfig};

/// One seeded death: thread `victim`, at its `nth` operation of class
/// `site`. A [`FixedPanic`] injects it, so reruns die at the identical
/// point.
#[derive(Clone, Copy, Debug)]
pub struct PanicInjector {
    pub site: PanicSite,
    pub victim: Tid,
    pub nth: u64,
}

impl PanicInjector {
    /// Derives the victim triple from a seed: site, a non-main thread id
    /// below `threads`, and a small occurrence index.
    pub fn from_seed(seed: u64, threads: usize) -> PanicInjector {
        let h = mix64(seed ^ DEAD_PANIC_SALT);
        let site = PanicSite::ALL[(h % PanicSite::ALL.len() as u64) as usize];
        let victim = Tid(1 + ((h >> 8) % threads.max(1) as u64) as u32);
        let nth = (h >> 32) % 6;
        PanicInjector { site, victim, nth }
    }

    /// A handle injecting this death and no timing perturbation.
    pub(crate) fn handle(self) -> PerturbHandle {
        let PanicInjector { site, victim, nth } = self;
        PerturbHandle::to(Arc::new(FixedPanic {
            site,
            victim,
            nth,
            inner: PerturbHandle::off(),
        }))
    }
}

/// Salt mixed into the seed stream (distinct from the timing fuzzer's).
const DEAD_PANIC_SALT: u64 = 0xD1E5_EED5;

dmt_bench::json_record! {
    /// One workload × runtime cell of the panic-injection matrix.
    #[derive(Clone, Debug)]
    pub struct PanicCell {
        pub workload: String,
        pub runtime: String,
        /// Total runs in the cell: 2 per seed (run + rerun).
        pub runs: u64,
        /// Seeds whose injected death actually fired (victim reached the site).
        pub hits: u64,
        /// Distinct contained panics observed across all firing seeds.
        pub panics: u64,
        /// Every rerun reproduced its run's schedule hash and panic set.
        pub reproducible: bool,
        /// Every non-firing run still matched the sequential reference.
        pub validated: bool,
    }
}

dmt_bench::json_record! {
    /// What panic injection reports beside its cells.
    #[derive(Clone, Copy, Debug)]
    pub struct PanicExtra {
        /// Runs in which an injected death fired, across the whole matrix.
        pub total_hits: u64,
    }
}

/// The full panic-injection result.
pub type PanicInjectReport = Report<PanicCell, PanicExtra>;

impl Table for PanicCell {
    const COLS: &'static [Col<Self>] = &[
        ("workload", -16, |c| c.workload.clone()),
        ("runtime", -16, |c| c.runtime.clone()),
        ("runs", 6, |c| c.runs.to_string()),
        ("hits", 6, |c| c.hits.to_string()),
        ("panics", 8, |c| c.panics.to_string()),
        ("reproducible", 14, |c| yes_no(c.reproducible)),
        ("validated", 11, |c| yes_no(c.validated)),
    ];

    fn ok(&self) -> bool {
        self.reproducible && self.validated
    }
}

impl Notes for PanicInjectReport {
    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} injected deaths contained",
            self.extra.total_hits
        )]
    }
}

/// Runs the panic-injection matrix and returns the report.
///
/// Only the Consequence family makes a containment promise; other kinds
/// (pthreads, dthreads) are skipped. Passing requires every cell to be
/// reproducible and validated, and at least one injected death to have
/// fired somewhere — a matrix where no victim ever dies proves nothing
/// about containment.
pub fn run_panic_inject(
    cfg: &StressConfig,
    mut progress: impl FnMut(&PanicCell),
) -> PanicInjectReport {
    let mut cells = Vec::new();
    let mut total_runs = 0u64;
    let mut total_hits = 0u64;

    for (name, kind, cell_salt) in cfg.grid(0xFA17_0CE5) {
        if options_for_label(kind.label()).is_none() {
            continue;
        }
        let mut cell = PanicCell {
            workload: name.to_string(),
            runtime: kind.label().to_string(),
            runs: 2 * cfg.seeds,
            hits: 0,
            panics: 0,
            reproducible: true,
            validated: true,
        };
        for seed in cfg.round_seeds(cell_salt) {
            let inj = PanicInjector::from_seed(seed, cfg.threads);
            let run_once = || cfg.cell(name, kind, inj.handle()).run();
            let a = run_once();
            let b = run_once();
            total_runs += 2;
            if !a.report.panics.is_empty() {
                cell.hits += 1;
                cell.panics += a.report.panics.len() as u64;
            } else {
                // No death: the armed-but-unhit run must behave like a
                // healthy one.
                cell.validated &= a.validation.matches_reference && b.validation.matches_reference;
            }
            cell.reproducible &= a.report.schedule_hash == b.report.schedule_hash
                && a.report.panics == b.report.panics
                && a.validation.output_hash == b.validation.output_hash;
        }
        total_hits += cell.hits;
        progress(&cell);
        cells.push(cell);
    }

    let mut report = Report::new(cfg, total_runs, cells, PanicExtra { total_hits });
    report.passed &= total_hits > 0;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_bench::json::ToJson;

    #[test]
    fn injector_is_a_pure_function_of_the_seed() {
        let a = PanicInjector::from_seed(7, 4);
        let b = PanicInjector::from_seed(7, 4);
        assert_eq!(a.site, b.site);
        assert_eq!(a.victim, b.victim);
        assert_eq!(a.nth, b.nth);
        assert!(a.victim.0 >= 1 && a.victim.0 <= 4, "never kills main");
        // Different seeds spread over sites and victims.
        let spread: std::collections::BTreeSet<_> = (0..64)
            .map(|s| {
                let i = PanicInjector::from_seed(s, 4);
                (i.site.name(), i.victim.0, i.nth)
            })
            .collect();
        assert!(spread.len() > 16, "only {} distinct triples", spread.len());
    }

    #[test]
    fn report_serializes_to_json() {
        let r = PanicInjectReport {
            threads: 4,
            seeds: 2,
            base_seed: 1,
            total_runs: 4,
            extra: PanicExtra { total_hits: 1 },
            cells: vec![PanicCell {
                workload: "histogram".into(),
                runtime: "consequence-ic".into(),
                runs: 4,
                hits: 1,
                panics: 2,
                reproducible: true,
                validated: true,
            }],
            passed: true,
        };
        let j = r.to_json();
        assert!(j.contains("\"total_hits\":1"));
        assert!(j.contains("\"reproducible\":true"));
    }
}
