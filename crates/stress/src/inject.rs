//! End-to-end proof that the harness catches real determinism bugs.
//!
//! `stress --inject-bug` enables `consequence`'s deliberate
//! [`Options::inject_eligibility_bug`]: a thread arriving at a free token
//! takes it *without* the deterministic eligibility check, so physical
//! arrival order leaks into the schedule — the bug class where a
//! `clockDepart` / publication update is missed and the clock table grants
//! out of order. (Literally skipping a `clockDepart` deadlocks the GMIC —
//! the departed thread stays the minimum forever — so the injected bug is
//! the strictly-more-permissive variant that keeps running and misbehaves
//! observably.)
//!
//! Under the bug the schedule hash of a lock-contended program varies with
//! physical timing; the harness must detect the variance, shrink the
//! triggering plan, and name the first divergent event. A harness that
//! cannot catch *this* would not catch an accidental regression either.

use consequence::Options;
use dmt_api::{Fnv1a, MutexId, PerturbHandle, PerturbPlan, Runtime, RuntimeMemExt, ThreadCtx};
use dmt_bench::cell::{Cell, CellRun, Sink};
use dmt_workloads::{Params, Prepared, Validation, Workload};

use crate::{investigate, mix64, Target};

fn contended_worker(ctx: &mut dyn ThreadCtx, m: MutexId, iters: u64, salt: u64) {
    for k in 0..iters {
        // Uneven local work per thread and iteration, so logical clocks
        // interleave and the token is contended on every acquisition.
        ctx.tick(1 + (salt * 7 + k) % 13);
        ctx.mutex_lock(m);
        let v = ctx.ld_u64(0);
        ctx.st_u64(0, v + 1);
        ctx.mutex_unlock(m);
    }
}

/// The lock-contended synthetic program: `Params::threads` workers hammer
/// one mutex-protected counter `iters` times each with skewed per-thread
/// work. Its reference output is the exact counter total.
pub struct Contended {
    pub iters: u64,
}

impl Workload for Contended {
    fn name(&self) -> &'static str {
        "contended"
    }

    fn suite(&self) -> &'static str {
        "synthetic"
    }

    /// One counter word is all it needs.
    fn heap_pages(&self, _p: &Params) -> usize {
        16
    }

    fn prepare(&self, rt: &mut dyn Runtime, p: &Params) -> Prepared {
        let m = rt.create_mutex();
        let (threads, iters) = (p.threads, self.iters);
        Prepared {
            job: Box::new(move |ctx| {
                let workers: Vec<_> = (1..threads)
                    .map(|i| {
                        ctx.spawn(Box::new(move |c: &mut dyn ThreadCtx| {
                            contended_worker(c, m, iters, i as u64);
                        }))
                    })
                    .collect();
                contended_worker(ctx, m, iters, 0);
                for t in workers {
                    ctx.join(t);
                }
            }),
            validate: Box::new(move |rt| {
                let total = rt.final_u64(0);
                let mut h = Fnv1a::new();
                h.update(&total.to_le_bytes());
                Validation {
                    output_hash: h.digest(),
                    matches_reference: total == threads as u64 * iters,
                }
            }),
        }
    }
}

/// Runs the contended program once under Consequence-IC, with or without
/// the injected eligibility bug.
pub fn run_contended(
    bug: bool,
    perturb: PerturbHandle,
    threads: usize,
    iters: u64,
    sink: Sink,
) -> CellRun {
    let mut opts = Options::consequence_ic();
    opts.inject_eligibility_bug = bug;
    Cell {
        perturb,
        sink,
        ..Cell::of(
            Box::new(Contended { iters }),
            Params::new(threads, 1, 0),
            opts,
        )
    }
    .run()
}

dmt_bench::json_record! {
    /// Result of the `--inject-bug` end-to-end check.
    #[derive(Clone, Debug)]
    pub struct InjectOutcome {
        /// Whether the harness caught the injected bug (it must).
        pub caught: bool,
        /// Schedule hash of the first (reference) run.
        pub baseline_hash: u64,
        /// First divergent schedule hash observed.
        pub observed_hash: u64,
        /// Master seed of the plan that triggered the divergence (0 when the
        /// program diverged even unperturbed).
        pub trigger_seed: u64,
        /// Sites surviving the shrink.
        pub shrunk_sites: Vec<String>,
        /// The shrunk reproducer plan, printed.
        pub shrunk_plan: String,
        /// Digest of the shrunk plan.
        pub shrunk_digest: u64,
        /// First-divergent-event diagnosis, when captured.
        pub diagnosis: Option<String>,
        /// Total executions spent (detection + shrinking + diagnosis).
        pub runs: u64,
    }
}

impl InjectOutcome {
    /// The outcome for a terminal.
    pub fn summary(&self) -> Vec<String> {
        if !self.caught {
            return vec![format!(
                "NOT CAUGHT after {} runs — the harness failed to detect the injected bug",
                self.runs
            )];
        }
        vec![
            "CAUGHT: schedule hash moved under the injected bug".to_string(),
            format!(
                "  baseline {:#x} vs observed {:#x} (trigger seed {:#x}, {} runs)",
                self.baseline_hash, self.observed_hash, self.trigger_seed, self.runs
            ),
            format!("  shrunk reproducer: {}", self.shrunk_plan),
            format!("  surviving sites: [{}]", self.shrunk_sites.join(", ")),
            self.diagnosis
                .clone()
                .unwrap_or("  (no divergence trace captured)".to_string()),
        ]
    }
}

/// Drives the injected-bug detection end to end: run a reference execution,
/// sweep perturbation seeds until the schedule hash moves, then shrink the
/// triggering plan and diagnose the first divergent event.
pub fn run_inject_bug(seeds: u64, threads: usize, iters: u64) -> InjectOutcome {
    let mut runs = 0u64;
    let target = Target(Box::new(move |p, sink| {
        run_contended(true, p, threads, iters, sink)
    }));
    let base = target.hash(PerturbHandle::off());
    runs += 1;

    // Sweep perturbed runs first (the harness's normal mode), then
    // unperturbed reruns — under the bug either may expose the variance.
    // An unperturbed divergence is the empty plan's: nothing to shrink.
    let unperturbed = PerturbPlan {
        seed: 0,
        entries: Vec::new(),
    };
    let perturbed = (0..seeds).map(|s| PerturbPlan::full(mix64(0xB06 ^ (s + 1))));
    for plan in perturbed.chain((0..seeds).map(|_| unperturbed.clone())) {
        runs += 1;
        let observed = target.hash(if plan.is_empty() {
            PerturbHandle::off()
        } else {
            crate::plan_handle(&plan)
        });
        if observed == base {
            continue;
        }
        let (shrunk, diagnosis) = investigate(&target, &plan, base, &mut runs);
        return InjectOutcome {
            caught: true,
            baseline_hash: base,
            observed_hash: observed,
            trigger_seed: plan.seed,
            shrunk_sites: shrunk
                .entries
                .iter()
                .map(|e| e.site.name().to_string())
                .collect(),
            shrunk_plan: shrunk.to_string(),
            shrunk_digest: shrunk.digest(),
            diagnosis,
            runs,
        };
    }
    InjectOutcome {
        caught: false,
        baseline_hash: base,
        observed_hash: base,
        trigger_seed: 0,
        shrunk_sites: Vec::new(),
        shrunk_plan: String::new(),
        shrunk_digest: 0,
        diagnosis: None,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_program_is_deterministic_without_the_bug() {
        let run = |p| run_contended(false, p, 4, 120, Sink::Hash);
        let a = run(PerturbHandle::off());
        let b = run(PerturbHandle::off());
        let c = run(crate::plan_handle(&PerturbPlan::full(17)));
        assert_eq!(a.report.schedule_hash, b.report.schedule_hash);
        assert_eq!(
            a.report.schedule_hash, c.report.schedule_hash,
            "perturbation moved a correct runtime's schedule"
        );
    }

    #[test]
    fn counter_totals_are_exact_under_contention() {
        let run = run_contended(false, PerturbHandle::off(), 3, 50, Sink::Hash);
        assert!(run.validation.matches_reference, "counter != 3 * 50");
    }
}
