//! Stress-report types, their terminal rendering and JSON serialization.
//!
//! Every mode reports the same envelope — [`Report`]: what was swept, how
//! many executions it took, one cell per grid point, one verdict — and adds
//! what only it knows as a typed `extra`. A cell type says once how it
//! tabulates ([`Table`]); the CLI prints every mode through that.
//!
//! Serialized with `dmt-bench`'s hand-rolled [`dmt_bench::json_struct!`]
//! macro — the workspace builds offline with no serde dependency. A report
//! is self-describing: every violation carries the master seed, the plan
//! digest and the shrunk plan text, so `stress --workloads W --runtimes R
//! --base-seed S` plus the printed plan reproduces the failure (see
//! `docs/STRESS.md`).

use dmt_api::PerturbPlan;
use dmt_baselines::RuntimeKind;
use dmt_bench::json::ToJson;

use crate::StressConfig;

/// One table column: title, width (negative left-aligns), and how a cell
/// renders in it.
pub type Col<T> = (&'static str, i32, fn(&T) -> String);

/// How a report cell renders as one row of a fixed-width table.
pub trait Table: Sized + 'static {
    const COLS: &'static [Col<Self>];

    /// Whether every oracle the cell carries held.
    fn ok(&self) -> bool;
}

fn line<T: Table>(value: impl Fn(&Col<T>) -> String) -> String {
    let pad = |col: &Col<T>| {
        let (v, w) = (value(col), col.1.unsigned_abs() as usize);
        if col.1 < 0 {
            format!("{v:<w$}")
        } else {
            format!("{v:>w$}")
        }
    };
    T::COLS.iter().map(pad).collect()
}

/// The header line of `T`'s table.
pub fn header<T: Table>() -> String {
    line::<T>(|col| col.0.to_string())
}

/// `cell` as one aligned line of its table.
pub fn row<T: Table>(cell: &T) -> String {
    line::<T>(|col| col.2(cell))
}

/// Drives one table mode on stdout: column header, a row per finished
/// cell, the report's notes, the verdict line; then writes the report to
/// `target/stress/<file>.json`. Returns the verdict.
pub fn table<C: Table + ToJson, X: ToJson>(
    file: &str,
    run: impl FnOnce(&mut dyn FnMut(&C)) -> Report<C, X>,
) -> bool
where
    Report<C, X>: Notes,
{
    println!("{}", header::<C>());
    let report = run(&mut |cell| println!("{}", row(cell)));
    for note in report.notes() {
        println!("{note}");
    }
    let (cells, runs) = (report.cells.len(), report.total_runs);
    println!("{}: {cells} cells, {runs} runs", verdict(report.passed));
    dmt_bench::json::dump("target/stress", file, &report);
    report.passed
}

/// The word a mode's last line opens with.
pub fn verdict(passed: bool) -> &'static str {
    if passed {
        "PASSED"
    } else {
        "FAILED"
    }
}

pub(crate) fn yes_no(b: bool) -> String {
    if b { "yes" } else { "NO" }.to_string()
}

pub(crate) fn hex(h: u64) -> String {
    format!("{h:#x}")
}

/// What every mode reports: the swept configuration, the executions spent,
/// the cells, the verdict — plus the mode's own `extra` members, which
/// serialize flat beside the envelope's.
#[derive(Clone, Debug)]
pub struct Report<C, X = NoExtra> {
    pub threads: usize,
    pub seeds: u64,
    pub base_seed: u64,
    pub total_runs: u64,
    pub cells: Vec<C>,
    /// Every cell's oracles held (and, where a mode adds conditions of its
    /// own to `extra`, those too).
    pub passed: bool,
    pub extra: X,
}

impl<C: Table, X> Report<C, X> {
    /// Folds `cells` into a report: it passes when there is at least one
    /// cell and every cell is [`Table::ok`].
    pub fn new(cfg: &StressConfig, total_runs: u64, cells: Vec<C>, extra: X) -> Report<C, X> {
        Report {
            threads: cfg.threads,
            seeds: cfg.seeds,
            base_seed: cfg.base_seed,
            total_runs,
            passed: !cells.is_empty() && cells.iter().all(Table::ok),
            cells,
            extra,
        }
    }
}

/// What a report says under its table, beyond the verdict: one line per
/// thing its `extra` members (or its failing cells) have to tell.
pub trait Notes {
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// The `extra` of a mode with nothing to add.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoExtra;

impl ToJson for NoExtra {
    fn write_json(&self, out: &mut String) {
        out.push_str("{}");
    }
}

impl<C: ToJson, X: ToJson> ToJson for Report<C, X> {
    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"threads\":{},\"seeds\":{},\"base_seed\":{},\"total_runs\":{},\"cells\":",
            self.threads, self.seeds, self.base_seed, self.total_runs
        ));
        self.cells.write_json(out);
        out.push_str(&format!(",\"passed\":{}", self.passed));
        // `extra` is an object; its members follow the envelope's, flat.
        let extra = self.extra.to_json();
        if extra.len() > 2 {
            out.push(',');
            out.push_str(&extra[1..extra.len() - 1]);
        }
        out.push('}');
    }
}

dmt_bench::json_record! {
    /// Per-cell summary: one workload under one runtime across all seeds.
    #[derive(Clone, Debug)]
    pub struct CellSummary {
        pub workload: String,
        pub runtime: String,
        /// Total runs in the cell (baseline + one per seed).
        pub runs: u64,
        /// Schedule hash of the unperturbed baseline run.
        pub baseline_hash: u64,
        /// Distinct schedule hashes observed (1 = invariant; pthreads is
        /// expected to exceed 1).
        pub distinct_hashes: u64,
        /// Whether every checked run matched the sequential reference.
        pub validated: bool,
    }
}

impl Table for CellSummary {
    const COLS: &'static [Col<Self>] = &[
        ("workload", -16, |c| c.workload.clone()),
        ("runtime", -16, |c| c.runtime.clone()),
        ("runs", 6, |c| c.runs.to_string()),
        ("baseline_hash", 20, |c| hex(c.baseline_hash)),
        ("distinct", 10, |c| c.distinct_hashes.to_string()),
        ("validated", 11, |c| yes_no(c.validated)),
    ];

    /// The pthreads control promises nothing per cell; a deterministic
    /// cell must be invariant and validated.
    fn ok(&self) -> bool {
        self.runtime == RuntimeKind::Pthreads.label()
            || (self.validated && self.distinct_hashes == 1)
    }
}

dmt_bench::json_record! {
    /// One oracle violation, with its minimized reproducer.
    #[derive(Clone, Debug)]
    pub struct Violation {
        pub workload: String,
        pub runtime: String,
        /// Which oracle failed: `"schedule_hash"` or `"output"`.
        pub oracle: String,
        /// Master seed of the triggering plan (0 for the unperturbed baseline).
        pub perturb_seed: u64,
        /// Digest of the triggering plan.
        pub plan_digest: u64,
        pub baseline_hash: u64,
        pub observed_hash: u64,
        /// Sites surviving the shrink (empty = fails even unperturbed).
        pub shrunk_sites: Vec<String>,
        /// The shrunk plan, printed (reproducer input).
        pub shrunk_plan: String,
        /// Digest of the shrunk plan.
        pub shrunk_digest: u64,
        /// Formatted first-divergent-event diagnosis, when one was captured.
        pub diagnosis: Option<String>,
    }
}

impl Violation {
    /// A schedule-hash invariance violation with its shrunk reproducer.
    pub fn schedule(
        workload: &str,
        kind: RuntimeKind,
        plan: &PerturbPlan,
        shrunk: &PerturbPlan,
        baseline_hash: u64,
        observed_hash: u64,
        diagnosis: Option<String>,
    ) -> Violation {
        Violation {
            workload: workload.to_string(),
            runtime: kind.label().to_string(),
            oracle: "schedule_hash".to_string(),
            perturb_seed: plan.seed,
            plan_digest: plan.digest(),
            baseline_hash,
            observed_hash,
            shrunk_sites: shrunk
                .entries
                .iter()
                .map(|e| e.site.name().to_string())
                .collect(),
            shrunk_plan: shrunk.to_string(),
            shrunk_digest: shrunk.digest(),
            diagnosis,
        }
    }

    /// An output-oracle violation (no schedule divergence to shrink):
    /// `plan` is the triggering plan, `None` for the unperturbed baseline.
    pub fn output(
        workload: &str,
        kind: RuntimeKind,
        plan: Option<&PerturbPlan>,
        baseline_output: u64,
        observed_output: u64,
    ) -> Violation {
        Violation {
            workload: workload.to_string(),
            runtime: kind.label().to_string(),
            oracle: "output".to_string(),
            perturb_seed: plan.map_or(0, |p| p.seed),
            plan_digest: plan.map_or(0, |p| p.digest()),
            baseline_hash: baseline_output,
            observed_hash: observed_output,
            shrunk_sites: Vec::new(),
            shrunk_plan: String::new(),
            shrunk_digest: 0,
            diagnosis: None,
        }
    }
}

dmt_bench::json_record! {
    /// What the differential matrix reports beside its cells.
    #[derive(Clone, Debug)]
    pub struct MatrixExtra {
        /// `"smoke"`, `"deep"` or `"custom"` (set by the CLI).
        pub mode: String,
        pub pthreads_runs: u64,
        /// Distinct pthreads schedule hashes across the whole matrix; > 1 means
        /// the negative control varied as expected.
        pub pthreads_distinct_hashes: u64,
        pub violations: Vec<Violation>,
    }
}

/// The full matrix result.
pub type StressReport = Report<CellSummary, MatrixExtra>;

impl Notes for StressReport {
    /// Every violation with its reproducer, then the negative control.
    fn notes(&self) -> Vec<String> {
        let x = &self.extra;
        let mut out = Vec::new();
        for v in &x.violations {
            out.push(format!(
                "VIOLATION [{}] {} under {}: baseline {:#x} vs observed {:#x}",
                v.oracle, v.workload, v.runtime, v.baseline_hash, v.observed_hash
            ));
            if !v.shrunk_plan.is_empty() {
                out.push(format!("  shrunk reproducer: {}", v.shrunk_plan));
            }
            out.extend(v.diagnosis.clone());
        }
        if x.pthreads_runs > 0 {
            out.push(format!(
                "pthreads negative control: {} distinct hashes over {} runs{}",
                x.pthreads_distinct_hashes,
                x.pthreads_runs,
                if x.pthreads_distinct_hashes > 1 {
                    " (varies, as expected)"
                } else {
                    " — NEVER varied; perturbation instrumentation looks dead"
                }
            ));
        }
        out.push(format!("{} violations", x.violations.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_to_json() {
        let r = StressReport {
            threads: 4,
            seeds: 8,
            base_seed: 1,
            total_runs: 9,
            cells: vec![CellSummary {
                workload: "histogram".into(),
                runtime: "consequence-ic".into(),
                runs: 9,
                baseline_hash: 0xabc,
                distinct_hashes: 1,
                validated: true,
            }],
            passed: true,
            extra: MatrixExtra {
                mode: "smoke".into(),
                pthreads_runs: 0,
                pthreads_distinct_hashes: 0,
                violations: vec![],
            },
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"violations\":[]"));
        assert!(j.contains("\"distinct_hashes\":1"));
        // The mode's members sit flat beside the envelope's.
        assert!(j.contains("\"passed\":true,\"mode\":\"smoke\""));
        dmt_bench::jsonparse::parse(&j).expect("valid JSON");
    }

    #[test]
    fn a_report_without_extras_is_just_the_envelope() {
        let r: Report<CellSummary> = Report {
            threads: 2,
            seeds: 1,
            base_seed: 7,
            total_runs: 0,
            cells: vec![],
            passed: false,
            extra: NoExtra,
        };
        assert_eq!(
            r.to_json(),
            r#"{"threads":2,"seeds":1,"base_seed":7,"total_runs":0,"cells":[],"passed":false}"#
        );
    }

    #[test]
    fn rows_align_under_their_header() {
        let c = CellSummary {
            workload: "kmeans".into(),
            runtime: "dwc".into(),
            runs: 9,
            baseline_hash: 0xabc,
            distinct_hashes: 1,
            validated: true,
        };
        let (h, r) = (header::<CellSummary>(), row(&c));
        assert_eq!(h.len(), r.len());
        assert!(h.starts_with("workload        runtime"));
        assert!(r.ends_with("      0xabc         1        yes"));
    }

    #[test]
    fn violation_carries_the_reproducer() {
        let plan = PerturbPlan::full(5);
        let shrunk = PerturbPlan::only(5, &[dmt_api::PerturbSite::Commit]);
        let v = Violation::schedule(
            "kmeans",
            RuntimeKind::ConsequenceIc,
            &plan,
            &shrunk,
            1,
            2,
            Some("schedules diverge at event #3".into()),
        );
        assert_eq!(v.perturb_seed, 5);
        assert_eq!(v.plan_digest, plan.digest());
        assert_eq!(v.shrunk_sites, vec!["commit".to_string()]);
        assert_eq!(v.shrunk_digest, shrunk.digest());
        let j = v.to_json();
        assert!(j.contains("\"oracle\":\"schedule_hash\""));
        assert!(j.contains("diverge at event"));
    }
}
