//! Adaptive counter-overflow (§3.2) under forced-overflow perturbations.
//!
//! PR 1 asserted schedule determinism only with adaptive overflow *off*;
//! the paper says publication frequency has "no effect on determinism, only
//! on real time". This closes the gap: with adaptation ON (the
//! `consequence-ic` default), forcing every publication interval to its
//! minimum (a publication storm) or stretching it a thousandfold must leave
//! the schedule hash bit-identical — while the publication counters prove
//! the perturbation actually fired. Fixed intervals (adaptation off) are
//! the same schedule too: the policy decides how often a clock is
//! published, never which thread gets the token.

use std::sync::Arc;

use consequence::Options;
use dmt_api::{PerturbHandle, PerturbSite, Perturber, Tid};
use dmt_baselines::RuntimeKind;
use dmt_bench::cell::CellRun;
use dmt_stress::StressConfig;

/// Forces every policy-chosen overflow interval to a fixed value.
struct ForceInterval(u64);

impl Perturber for ForceInterval {
    fn hit(&self, _site: PerturbSite, _tid: Tid) -> u64 {
        0
    }

    fn overflow_interval(&self, _tid: Tid, _interval: u64) -> u64 {
        self.0
    }
}

fn at_threads(threads: usize) -> StressConfig {
    StressConfig {
        threads,
        ..StressConfig::smoke()
    }
}

fn run_with_interval(name: &str, adaptive_overflow: bool, forced: Option<u64>) -> CellRun {
    let perturb = match forced {
        Some(iv) => PerturbHandle::to(Arc::new(ForceInterval(iv))),
        None => PerturbHandle::off(),
    };
    let opts = Options {
        adaptive_overflow,
        ..Options::consequence_ic()
    };
    let run = at_threads(4).cell(name, opts, perturb).run();
    assert!(run.validation.matches_reference, "{name} output diverged");
    run
}

#[test]
fn forced_overflow_never_moves_the_schedule_with_adaptation_on() {
    // kmeans is publication-heavy: fork-join rounds keep threads waiting on
    // each other's published clocks.
    let base = run_with_interval("kmeans", true, None);
    let early = run_with_interval("kmeans", true, Some(1));
    let late = run_with_interval("kmeans", true, Some(u64::MAX));
    let fixed = run_with_interval("kmeans", false, None);

    for (what, run) in [
        ("publication storm", &early),
        ("starved publication", &late),
        ("fixed intervals", &fixed),
    ] {
        let (got, want) = (&run.report, &base.report);
        assert_eq!(
            got.schedule_hash, want.schedule_hash,
            "{what} moved the schedule"
        );
        assert_eq!(
            got.commit_log_hash, want.commit_log_hash,
            "{what} moved the commit log"
        );
        assert_eq!(
            run.validation.output_hash, base.validation.output_hash,
            "{what} moved the output"
        );
    }

    // The perturbation must actually have fired: a forced interval of 1
    // publishes far more often than the adaptive policy, a near-infinite
    // one far less.
    let pubs = |run: &CellRun| run.report.counters.publications;
    let (base_pubs, early_pubs, late_pubs) = (pubs(&base), pubs(&early), pubs(&late));
    assert!(
        early_pubs > base_pubs,
        "interval=1 did not increase publications ({early_pubs} vs {base_pubs})"
    );
    assert!(
        late_pubs < early_pubs,
        "interval=MAX did not decrease publications ({late_pubs} vs {early_pubs})"
    );
}

#[test]
fn biased_overflow_is_invariant_across_runtimes() {
    for kind in [RuntimeKind::ConsequenceRr, RuntimeKind::Dwc] {
        let run = |perturb| at_threads(2).cell("histogram", kind, perturb).run();
        let base = run(PerturbHandle::off());
        let storm = run(PerturbHandle::to(Arc::new(ForceInterval(1))));
        assert_eq!(
            storm.report.schedule_hash,
            base.report.schedule_hash,
            "{} schedule moved under forced overflow",
            kind.label()
        );
    }
}
