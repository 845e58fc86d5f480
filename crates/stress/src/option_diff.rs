//! `stress --sched-diff`: A/B differential validation of an optimization
//! against the path it replaced.
//!
//! One optimization in the Consequence runtime exists beside the path it
//! was written to replace, selected by an option: the **fast scheduler**
//! (`fast_sched`) — lock-free publication slots and eligibility read from
//! those slots (`det_clock::fast`) in place of the reference scheduler's
//! locked publication and eligibility read from the table's entries. It
//! may change how fast a grant happens, never which thread gets it.
//!
//! The contract is checked the same way for any such option: for every
//! workload × every Consequence-backed runtime (dwc, consequence-rr,
//! consequence-ic) run the preset with the optimization set on (A) and
//! with it off (B) over the same perturbation-seed matrix the main fuzzer
//! uses — neither side is "whatever the preset says", so a default that
//! flips cannot turn the differential into a run compared with itself
//! ([`OptionDiff::sides`] refuses two equal sides) — and require every run —
//! baseline and perturbed, A and B — to produce the same schedule hash,
//! the same output hash **and the same commit-log hash**. A single
//! divergent grant anywhere in the run changes the schedule hash; the
//! commit-log digest folds `(version, committer, page, page-content
//! digest)` for every committed page, so a commit that merged wrong bytes
//! or landed in a different order diverges even when the program output
//! happens not to.

use consequence::replay::options_for_label;
use consequence::Options;
use det_clock::SchedKind;
use dmt_api::{PerturbHandle, PerturbPlan};
use dmt_bench::json::ToJson;

use crate::report::{hex, Col, NoExtra, Notes, Report, Table};
use crate::{plan_handle, StressConfig};

/// One row of the A/B differential: the option under test (how side A
/// sets it on, the `Options::without` name that sets it off for side B),
/// the salt that keeps the row on plans of its own, and what the two
/// sides are called in the report.
#[derive(Clone, Copy, Debug)]
pub struct OptionDiff {
    /// The `Options::without` name of the optimization under test.
    pub toggle: &'static str,
    /// Sets the optimization on: the inverse of `without(toggle)`.
    pub enable: fn(&mut Options),
    pub salt: u64,
    /// Label of the A side (optimization on).
    pub with: &'static str,
    /// Label of the B side (optimization off).
    pub without: &'static str,
}

/// Fast vs reference scheduler.
pub const SCHED_DIFF: OptionDiff = OptionDiff {
    toggle: "fast_sched",
    enable: |o| o.sched = SchedKind::Fast,
    salt: 0x5C4E_D1FF,
    with: "fast",
    without: "reference",
};

impl OptionDiff {
    /// The two sides for `preset`: A with the optimization set on, B with
    /// it off, equal in every other field.
    ///
    /// # Panics
    ///
    /// Panics when the sides come out equal (the differential would
    /// compare a configuration with itself and pass vacuously), or when
    /// they differ in more than the toggle.
    pub fn sides(&self, preset: Options) -> (Options, Options) {
        let mut with = preset;
        (self.enable)(&mut with);
        let without = with.clone().without(self.toggle);
        assert_ne!(
            with, without,
            "{} differential is vacuous: both sides have the same options",
            self.toggle
        );
        let mut back = without.clone();
        (self.enable)(&mut back);
        assert_eq!(
            back, with,
            "{} differential sides differ in more than the toggle",
            self.toggle
        );
        (with, without)
    }
}

/// One workload × runtime cell of an A/B matrix.
#[derive(Clone, Debug)]
pub struct OptionDiffCell {
    /// The row this cell belongs to (names the two hash members).
    pub diff: OptionDiff,
    pub workload: String,
    pub runtime: String,
    /// Total runs in the cell: (A + B) × (baseline + seeds).
    pub runs: u64,
    /// Unperturbed schedule hash with the optimization on.
    pub with_hash: u64,
    /// Unperturbed schedule hash under the oracle.
    pub without_hash: u64,
    /// Every run (both sides, every seed) hashed to `with_hash`.
    pub schedules_match: bool,
    /// Every run produced the same output hash.
    pub outputs_match: bool,
    /// Every run folded the same commit-log digest.
    pub commit_logs_match: bool,
    /// Every run matched the sequential reference output.
    pub validated: bool,
}

impl ToJson for OptionDiffCell {
    /// The two hash members are keyed by the row's side labels
    /// (`fast_hash` / `reference_hash`).
    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"workload\":{},\"runtime\":{},\"runs\":{},\"{}_hash\":{},\"{}_hash\":{},\
             \"schedules_match\":{},\"outputs_match\":{},\"commit_logs_match\":{},\
             \"validated\":{}}}",
            self.workload.to_json(),
            self.runtime.to_json(),
            self.runs,
            self.diff.with,
            self.with_hash,
            self.diff.without,
            self.without_hash,
            self.schedules_match,
            self.outputs_match,
            self.commit_logs_match,
            self.validated
        ));
    }
}

impl Table for OptionDiffCell {
    const COLS: &'static [Col<Self>] = &[
        ("workload", -16, |c| c.workload.clone()),
        ("runtime", -16, |c| c.runtime.clone()),
        ("runs", 6, |c| c.runs.to_string()),
        ("with", 20, |c| hex(c.with_hash)),
        ("without", 20, |c| hex(c.without_hash)),
        ("verdict", 11, |c| {
            if c.ok() { "identical" } else { "DIVERGED" }.to_string()
        }),
    ];

    fn ok(&self) -> bool {
        self.schedules_match && self.outputs_match && self.commit_logs_match && self.validated
    }
}

impl Notes for Report<OptionDiffCell> {}

/// Runs the A/B matrix of `diff` and returns the report.
///
/// Non-Consequence runtimes in `cfg.runtimes` are skipped (they have no
/// scheduler to swap). `progress` is called once per finished cell.
pub fn run_option_diff(
    cfg: &StressConfig,
    diff: OptionDiff,
    mut progress: impl FnMut(&OptionDiffCell),
) -> Report<OptionDiffCell> {
    let mut cells = Vec::new();
    let mut total_runs = 0u64;

    for (name, kind, cell_salt) in cfg.grid(diff.salt) {
        let Some(preset) = options_for_label(kind.label()) else {
            continue;
        };
        let (with, without) = diff.sides(preset);
        // One A run and one B run, each under its own executor of `plan`.
        let mut pair = |plan: Option<&PerturbPlan>| {
            total_runs += 2;
            [&with, &without].map(|opts| {
                let perturb = plan.map_or_else(PerturbHandle::off, plan_handle);
                cfg.cell(name, opts.clone(), perturb).run()
            })
        };

        let [a, b] = pair(None);
        let mut cell = OptionDiffCell {
            diff,
            workload: name.to_string(),
            runtime: kind.label().to_string(),
            runs: 2 * (1 + cfg.seeds),
            with_hash: a.report.schedule_hash,
            without_hash: b.report.schedule_hash,
            schedules_match: true,
            outputs_match: true,
            commit_logs_match: true,
            validated: true,
        };
        let perturbed = cfg.plans(cell_salt).flat_map(|plan| pair(Some(&plan)));
        for run in [a.clone(), b].into_iter().chain(perturbed) {
            cell.schedules_match &= run.report.schedule_hash == a.report.schedule_hash;
            cell.outputs_match &= run.validation.output_hash == a.validation.output_hash;
            cell.commit_logs_match &= run.report.commit_log_hash == a.report.commit_log_hash;
            cell.validated &= run.validation.matches_reference;
        }
        progress(&cell);
        cells.push(cell);
    }
    Report::new(cfg, total_runs, cells, NoExtra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sides_differ_in_the_toggle_and_in_nothing_else() {
        for preset in [Options::consequence_ic(), Options::dwc()] {
            let (with, without) = SCHED_DIFF.sides(preset.clone());
            assert_ne!(with, without);
            assert!(with == preset || without == preset);
        }
    }

    /// Were side A "the preset" (a no-op `enable`), a preset whose default
    /// flipped to off would leave both sides on the reference scheduler.
    #[test]
    #[should_panic(expected = "differential is vacuous")]
    fn a_flipped_preset_default_fires_the_guard() {
        let preset_is_side_a = OptionDiff {
            enable: |_| {},
            ..SCHED_DIFF
        };
        preset_is_side_a.sides(Options {
            sched: SchedKind::Reference,
            ..Options::consequence_ic()
        });
    }
}
