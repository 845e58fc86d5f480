//! `dmt-stress`: deterministic fault-injection and schedule-perturbation
//! fuzzing for the whole workspace.
//!
//! The paper's core claim (§2.1, §3.5) is that a Consequence schedule is a
//! pure function of the program, invariant under arbitrary physical timing.
//! This crate attacks that claim adversarially: it attaches a seeded
//! [`PlanPerturber`] to every runtime hook point (see `dmt_api::perturb`),
//! runs a workload × runtime × seed matrix, and checks three oracles per
//! cell:
//!
//! 1. **Schedule-hash invariance** — a deterministic runtime's schedule
//!    hash, and its commit-log digest, must be bit-identical across every
//!    perturbation seed (`PerturbSite::Overflow` forces early, late and
//!    storm publication intervals: publication policy never moves them);
//! 2. **Output correctness** — the output hash must equal the sequential
//!    reference on every run;
//! 3. **Negative control** — pthreads, which makes no determinism promise,
//!    is expected to vary (if it never does, the perturbation
//!    instrumentation itself is dead).
//!
//! On a violation the harness records [`dmt_api::MemorySink`] traces, runs the
//! divergence [`diagnose`] pass, and [`shrink`]s the failing plan to a
//! minimal reproducer naming the first divergent event. See
//! `docs/STRESS.md`.

pub mod inject;
pub mod matrix;
pub mod panic_inject;
pub mod report;
pub mod shrink;
pub mod trace_chaos;

use std::collections::BTreeSet;
use std::sync::Arc;

use dmt_api::trace::{diagnose, Event};
use dmt_api::{PerturbHandle, PerturbPlan, PlanPerturber};
use dmt_baselines::RuntimeKind;
use dmt_bench::cell::{Cell, CellRun, Sink, System};
use dmt_workloads::Params;

pub use inject::{run_inject_bug, InjectOutcome};
pub use matrix::{run_mixed_matrix, MatrixCell, MatrixReport, MATRIX_SHARDS};
pub use panic_inject::{run_panic_inject, PanicCell, PanicInjectReport, PanicInjector};
pub use report::{CellSummary, MatrixExtra, Notes, Report, StressReport, Table, Violation};
pub use shrink::shrink_plan;
pub use trace_chaos::{run_chaos_child, run_trace_chaos, ChaosCell, FaultyMedia, TraceChaosReport};

/// Events a repro-trace sink retains (oldest dropped beyond this).
pub const TRACE_CAP: usize = 1 << 16;

/// SplitMix64: derives independent per-cell plan seeds from the master seed.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Matrix configuration: the cross product the driver sweeps.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Workload names (see `dmt_workloads::all_workloads`).
    pub workloads: Vec<String>,
    /// Runtimes to drive.
    pub runtimes: Vec<RuntimeKind>,
    /// Perturbation seeds per cell (on top of one unperturbed baseline).
    pub seeds: u64,
    /// Master seed all per-cell plan seeds derive from.
    pub base_seed: u64,
    /// Worker threads per run.
    pub threads: usize,
    /// Workload problem-size multiplier.
    pub scale: u32,
    /// Workload input seed.
    pub input_seed: u64,
}

impl StressConfig {
    /// CI-sized matrix: 3 workloads × 5 runtimes × 8 seeds at 4 threads.
    pub fn smoke() -> StressConfig {
        StressConfig {
            workloads: ["histogram", "kmeans", "reverse_index"]
                .into_iter()
                .map(String::from)
                .collect(),
            runtimes: RuntimeKind::ALL.to_vec(),
            seeds: 8,
            base_seed: 0xC0FF_EE00,
            threads: 4,
            scale: 1,
            input_seed: 42,
        }
    }

    /// Overnight-sized matrix: the hard benchmarks, more seeds, more
    /// threads.
    pub fn deep() -> StressConfig {
        StressConfig {
            workloads: [
                "histogram",
                "kmeans",
                "reverse_index",
                "ferret",
                "dedup",
                "ocean_cp",
                "lu_cb",
                "canneal",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            runtimes: RuntimeKind::ALL.to_vec(),
            seeds: 16,
            base_seed: 0xC0FF_EE00,
            threads: 8,
            scale: 1,
            input_seed: 42,
        }
    }
}

impl std::fmt::Display for StressConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} workloads x {} runtimes x {} seeds, {} threads, scale {}, base seed {:#x}",
            self.workloads.len(),
            self.runtimes.len(),
            self.seeds,
            self.threads,
            self.scale,
            self.base_seed
        )
    }
}

impl StressConfig {
    /// The configuration flags of the `stress` CLI: flag, value, what it
    /// sets. Explicit values override the preset's.
    pub const FLAGS: [(&'static str, &'static str, &'static str); 6] = [
        ("--workloads", "a,b,..", "workloads to sweep"),
        ("--runtimes", "a,b,..", "runtimes to drive, by label"),
        ("--seeds", "N", "perturbation seeds per cell"),
        ("--threads", "N", "worker threads per run"),
        ("--scale", "N", "workload problem-size multiplier"),
        (
            "--base-seed",
            "N",
            "master seed every plan seed derives from",
        ),
    ];

    /// Applies one of [`Self::FLAGS`] as given on the command line.
    pub fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        let num = || {
            let n = value.parse::<u64>();
            n.map_err(|_| format!("{flag} needs a number, got {value:?}"))
        };
        match flag {
            "--workloads" => self.workloads = value.split(',').map(String::from).collect(),
            "--runtimes" => {
                let kinds = value.split(',').map(|l| {
                    RuntimeKind::by_label(l).ok_or_else(|| {
                        let labels = RuntimeKind::ALL.map(RuntimeKind::label).join(", ");
                        format!("unknown runtime {l:?} (labels: {labels})")
                    })
                });
                self.runtimes = kinds.collect::<Result<_, _>>()?;
            }
            "--seeds" => self.seeds = num()?,
            "--threads" => self.threads = num()? as usize,
            "--scale" => self.scale = num()? as u32,
            "--base-seed" => self.base_seed = num()?,
            _ => return Err(format!("unknown configuration flag {flag}")),
        }
        Ok(())
    }

    /// Every workload × runtime cell in sweep order, each with the salt
    /// its per-round seeds derive from. `mode_salt` keeps the modes on
    /// distinct plans for one master seed.
    pub fn grid(&self, mode_salt: u64) -> impl Iterator<Item = (&str, RuntimeKind, u64)> + '_ {
        self.workloads.iter().enumerate().flat_map(move |(wi, w)| {
            self.runtimes.iter().enumerate().map(move |(ki, &kind)| {
                let salt = mix64(self.base_seed ^ mode_salt ^ ((wi as u64) << 32) ^ (ki as u64));
                (w.as_str(), kind, salt)
            })
        })
    }

    /// The seed of each perturbation round of the cell salted `cell_salt`.
    pub fn round_seeds(&self, cell_salt: u64) -> impl Iterator<Item = u64> {
        (0..self.seeds).map(move |s| cell_salt ^ (s + 1))
    }

    /// One full-strength perturbation plan per round of the cell.
    pub fn plans(&self, cell_salt: u64) -> impl Iterator<Item = PerturbPlan> {
        self.round_seeds(cell_salt)
            .map(|seed| PerturbPlan::full(mix64(seed)))
    }

    /// The stress cell for `workload` under `system`: this configuration's
    /// geometry and input with the runner's defaults (hash-only tracing,
    /// 64-thread tables, GC budget 4).
    pub fn cell(&self, workload: &str, system: impl Into<System>, perturb: PerturbHandle) -> Cell {
        let params = Params::new(self.threads, self.scale, self.input_seed);
        Cell {
            perturb,
            ..Cell::new(workload, params, system)
        }
    }
}

/// A handle executing `plan` at full strength.
pub fn plan_handle(plan: &PerturbPlan) -> PerturbHandle {
    PerturbHandle::to(Arc::new(PlanPerturber::new(plan.clone())))
}

/// An abstract system under test: how to run it once under a perturber
/// with a given sink. Lets the shrinker and diagnoser work on both workload
/// cells and the synthetic inject-bug program.
pub struct Target<'a>(pub Box<dyn Fn(PerturbHandle, Sink) -> CellRun + 'a>);

impl Target<'_> {
    /// Runs once under `perturb`, returning the schedule hash.
    pub fn hash(&self, perturb: PerturbHandle) -> u64 {
        (self.0)(perturb, Sink::Hash).report.schedule_hash
    }

    /// Runs once while recording, returning the events and the hash.
    pub fn record(&self, perturb: PerturbHandle) -> (Vec<Event>, u64) {
        let run = (self.0)(perturb, Sink::Memory(TRACE_CAP));
        let (events, _dropped) = run.events.expect("memory sink hands its events back");
        (events, run.report.schedule_hash)
    }

    /// Whether `plan` makes the target's hash diverge from `base_hash`
    /// within `attempts` tries. Divergence under a real determinism bug
    /// depends on physical timing, so one quiet run does not prove a plan
    /// innocent; `runs` is bumped per executed probe.
    pub fn diverges(
        &self,
        plan: &PerturbPlan,
        base_hash: u64,
        attempts: u32,
        runs: &mut u64,
    ) -> bool {
        for _ in 0..attempts {
            *runs += 1;
            if self.hash(plan_handle(plan)) != base_hash {
                return true;
            }
        }
        false
    }
}

/// Full violation workup: shrinks `plan` to a minimal still-failing
/// reproducer, then records an unperturbed and a perturbed trace and
/// diagnoses the first divergent event. Returns the shrunk plan and the
/// diagnosis (formatted), if one could be captured.
pub fn investigate(
    target: &Target<'_>,
    plan: &PerturbPlan,
    base_hash: u64,
    runs: &mut u64,
) -> (PerturbPlan, Option<String>) {
    let shrunk = shrink_plan(plan.clone(), |cand| {
        target.diverges(cand, base_hash, 3, runs)
    });
    let (base_events, _) = target.record(PerturbHandle::off());
    *runs += 1;
    // Divergence under a real bug is timing-dependent, and the timing that
    // made the shrunk plan fail during shrinking may have drifted by the
    // time we record traces (e.g. a loaded CI host). Probe the shrunk plan
    // first, then fall back to the original full-strength plan — a
    // diagnosis from either names the same first divergent event class.
    let mut diagnosis = None;
    'plans: for candidate in [&shrunk, plan] {
        for _ in 0..8 {
            let (events, hash) = target.record(plan_handle(candidate));
            *runs += 1;
            if hash == base_hash {
                continue;
            }
            if let Some(d) = diagnose(&base_events, &events) {
                diagnosis = Some(d.to_string());
                break 'plans;
            }
        }
    }
    (shrunk, diagnosis)
}

/// Runs the full differential-fuzzing matrix and returns the report.
///
/// `progress` is called once per finished cell with a one-line summary
/// (pass `|_| {}` to stay quiet).
pub fn run_matrix(cfg: &StressConfig, mut progress: impl FnMut(&CellSummary)) -> StressReport {
    let mut cells = Vec::new();
    let mut violations = Vec::new();
    let mut total_runs = 0u64;
    let mut pthreads_hashes: BTreeSet<u64> = BTreeSet::new();
    let mut pthreads_runs = 0u64;

    for (name, kind, cell_salt) in cfg.grid(0) {
        let deterministic = kind != RuntimeKind::Pthreads;
        let base = cfg.cell(name, kind, PerturbHandle::off()).run();
        let base_hash = base.report.schedule_hash;
        let base_out = base.validation.output_hash;
        let base_log = base.report.commit_log_hash;
        total_runs += 1;
        let mut distinct = BTreeSet::from([base_hash]);
        let mut validated = base.validation.matches_reference;
        if deterministic && !validated {
            violations.push(Violation::digest(
                "output", name, kind, None, base_out, base_out,
            ));
        }

        for plan in cfg.plans(cell_salt) {
            let run = cfg.cell(name, kind, plan_handle(&plan)).run();
            let hash = run.report.schedule_hash;
            total_runs += 1;
            distinct.insert(hash);
            if !deterministic {
                continue;
            }
            validated &= run.validation.matches_reference;
            if hash != base_hash {
                let target = Target(Box::new(|p, sink| {
                    Cell {
                        sink,
                        ..cfg.cell(name, kind, p)
                    }
                    .run()
                }));
                let (shrunk, diagnosis) = investigate(&target, &plan, base_hash, &mut total_runs);
                violations.push(Violation::schedule(
                    name, kind, &plan, &shrunk, base_hash, hash, diagnosis,
                ));
            }
            let out = run.validation.output_hash;
            if !run.validation.matches_reference || out != base_out {
                let v = Violation::digest("output", name, kind, Some(&plan), base_out, out);
                violations.push(v);
            }
            let log = run.report.commit_log_hash;
            if log != base_log {
                let v = Violation::digest("commit_log", name, kind, Some(&plan), base_log, log);
                violations.push(v);
            }
        }

        if !deterministic {
            pthreads_hashes.extend(&distinct);
            pthreads_runs += 1 + cfg.seeds;
        }
        let cell = CellSummary {
            workload: name.to_string(),
            runtime: kind.label().to_string(),
            runs: 1 + cfg.seeds,
            baseline_hash: base_hash,
            distinct_hashes: distinct.len() as u64,
            validated,
        };
        progress(&cell);
        cells.push(cell);
    }

    let extra = MatrixExtra {
        mode: String::new(),
        pthreads_runs,
        pthreads_distinct_hashes: pthreads_hashes.len() as u64,
        violations,
    };
    let mut report = Report::new(cfg, total_runs, cells, extra);
    // The negative control: if pthreads never varies, the perturbation
    // instrumentation itself is dead.
    let control_dead = pthreads_runs > 0 && pthreads_hashes.len() <= 1;
    report.passed &= report.extra.violations.is_empty() && !control_dead;
    report
}
