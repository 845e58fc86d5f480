//! `stress --soak`: the mixed-scenario matrix.
//!
//! Every adversarial subsystem in this workspace attacks the determinism
//! contract along **one** axis: timing perturbation (`run_matrix`),
//! injected deaths (`run_panic_inject`), token-domain sharding
//! (`tests/shard_server.rs`), live trace recording (`--record`). Real
//! failures compose. This module runs the deterministic request server
//! under every on/off combination of the four axes — all 16 compositions,
//! including perturb × panic × shard × record in a *single run* — and
//! holds each composition to the same oracles as the single-axis modes:
//!
//! 1. **Reproducibility** — two runs of one composition produce identical
//!    schedule hashes, semantic digests, contained-panic counts and
//!    completion states;
//! 2. **Timing invariance** — within a `(panic, shard)` group, turning
//!    perturbation or recording on must not move the schedule hash: both
//!    are observation/noise, never schedule input;
//! 3. **Semantics** — panic-free compositions must serve every request
//!    and reproduce the sequential reference store; panic compositions
//!    must actually fire their injected death and (sharded) report the
//!    loss instead of hanging — the [`dmt_shard::PhaseGate`] resignation
//!    protocol under test;
//! 4. **Recording fidelity** — recorded compositions must buffer the full
//!    event stream (nothing dropped) and the buffered stream must fold to
//!    the run's schedule hash bit for bit.
//!
//! A cross-axis leak — a perturbation draw that feeds the scheduler, a
//! panic whose containment point depends on recording overhead, a
//! rendezvous that deadlocks when its peer died — moves exactly one of
//! these digests. See `docs/SOAK.md`.

use std::sync::Arc;

use consequence::Options;
use dmt_api::trace::Tally;
use dmt_api::{DomainId, FixedPanic, PanicSite, PerturbHandle, PerturbPlan, Tid};
use dmt_bench::cell::{Cell, Sink};
use dmt_shard::{
    reference_store_hash, run_sharded_server_hooked, CaptureMode, DomainHooks, ShardCfg,
};
use dmt_workloads::server::ServerSpec;
use dmt_workloads::Params;

use crate::report::{hex, Col, Notes, Report, Table};
use crate::{mix64, plan_handle, StressConfig};

/// Token domains of the sharded compositions.
pub const MATRIX_SHARDS: u32 = 2;

/// Event capacity of the recording compositions' sink — sized so nothing
/// is ever dropped (fidelity is an oracle here, unlike the soak's
/// recording cells, whose ring drops its oldest events).
const MATRIX_RING: usize = 1 << 20;

/// Salt deriving the matrix's perturbation-plan seeds.
const MATRIX_SALT: u64 = 0x50AC_AB1E;

/// One on/off composition of the four scenario axes.
#[derive(Clone, Copy, Debug)]
struct Comp {
    perturb: bool,
    panic: bool,
    shard: bool,
    record: bool,
}

impl Comp {
    /// All 16 compositions, base case first.
    fn all() -> impl Iterator<Item = Comp> {
        (0u32..16).map(|bits| Comp {
            perturb: bits & 1 != 0,
            panic: bits & 2 != 0,
            shard: bits & 4 != 0,
            record: bits & 8 != 0,
        })
    }
}

/// One perturber handle carrying both scenario axes into a runtime: the
/// timing plan, if any, and a [`FixedPanic`] killing `victim` at its second
/// commit, if any.
fn perturber(timing: Option<PerturbPlan>, victim: Option<Tid>) -> PerturbHandle {
    let inner = timing.as_ref().map_or_else(PerturbHandle::off, plan_handle);
    match victim {
        Some(victim) => PerturbHandle::to(Arc::new(FixedPanic {
            site: PanicSite::Commit,
            victim,
            nth: 1,
            inner,
        })),
        None => inner,
    }
}

/// What one execution of a composition reports to the oracles.
struct CompRun {
    schedule_hash: u64,
    /// Semantic digest: final-store hash (sharded) or output hash
    /// (unsharded).
    semantic_hash: u64,
    panics: u64,
    /// Served every request and matched the sequential reference.
    complete: bool,
    /// Recording fidelity held (vacuously true when not recording).
    record_ok: bool,
}

dmt_bench::json_record! {
    /// One composition's row in the report.
    #[derive(Clone, Debug)]
    pub struct MatrixCell {
        /// Timing perturbation attached.
        pub perturb: bool,
        /// Deterministic thread death injected.
        pub panic: bool,
        /// Run across token domains.
        pub shard: bool,
        /// Live trace recording attached.
        pub record: bool,
        /// Runs executed (2: run + rerun).
        pub runs: u64,
        /// The composition's schedule hash.
        pub schedule_hash: u64,
        /// Contained panics per run.
        pub panics: u64,
        /// Both runs agreed on every digest.
        pub deterministic: bool,
        /// The composition's semantic oracle held (see module docs).
        pub oracle_ok: bool,
        /// Recording fidelity held.
        pub record_ok: bool,
        /// Schedule hash matches the composition's `(panic, shard)` group —
        /// perturbation and recording did not move the schedule.
        pub invariant: bool,
    }
}

dmt_bench::json_record! {
    /// What the mixed matrix reports beside its cells.
    #[derive(Clone, Copy, Debug)]
    pub struct MatrixCount {
        /// Compositions run (16).
        pub compositions: u64,
    }
}

/// The full mixed-scenario result. `threads` are workers per runtime (per
/// domain when sharded); `seeds` is the invoking configuration's and does
/// not size this mode (each composition runs twice).
pub type MatrixReport = Report<MatrixCell, MatrixCount>;

impl Table for MatrixCell {
    const COLS: &'static [Col<Self>] = &[
        ("perturb", -9, |c| on_off(c.perturb)),
        ("panic", -7, |c| on_off(c.panic)),
        ("shard", -7, |c| on_off(c.shard)),
        ("record", -8, |c| on_off(c.record)),
        ("schedule_hash", 20, |c| hex(c.schedule_hash)),
        ("panics", 8, |c| c.panics.to_string()),
        ("verdict", 8, |c| {
            if c.ok() { "ok" } else { "FAILED" }.to_string()
        }),
    ];

    fn ok(&self) -> bool {
        self.deterministic && self.oracle_ok && self.record_ok && self.invariant
    }
}

fn on_off(axis: bool) -> String {
    if axis { "on" } else { "-" }.to_string()
}

impl Notes for MatrixReport {}

/// The unsharded server under one composition: the registry `dmt_server`
/// workload on a single Consequence-IC runtime.
fn run_unsharded(c: Comp, cfg: &StressConfig) -> CompRun {
    let timing = c
        .perturb
        .then(|| PerturbPlan::full(mix64(cfg.base_seed ^ MATRIX_SALT)));
    // The victim is a pool worker (never the driver): its death is
    // contained, the survivors keep serving, the run completes short.
    let victim = c.panic.then_some(Tid(1));
    let mut opts = Options::consequence_ic();
    if c.panic {
        // A dead worker can starve the epoch; a short watchdog turns that
        // into a prompt contained shutdown instead of a 5 s stall.
        opts.watchdog_stall_ms = Some(500);
    }
    // The configuration one shard domain runs its server under, so the
    // unsharded groups are comparable with the sharded ones.
    let r = Cell {
        max_threads: cfg.threads + 2,
        gc_budget: usize::MAX,
        sink: if c.record {
            Sink::Memory(MATRIX_RING)
        } else {
            Sink::Hash
        },
        ..cfg.cell("dmt_server", opts, perturber(timing, victim))
    }
    .run();
    let record_ok = r.events.is_none_or(|(events, dropped)| {
        let mut t = Tally::default();
        for ev in &events {
            t.record(ev, true, DomainId::ROOT);
        }
        dropped == 0 && !events.is_empty() && t.hash() == r.report.schedule_hash
    });
    CompRun {
        schedule_hash: r.report.schedule_hash,
        semantic_hash: r.validation.output_hash,
        panics: r.report.panics.len() as u64,
        complete: r.validation.matches_reference,
        record_ok,
    }
}

/// The sharded server under one composition: [`MATRIX_SHARDS`] token
/// domains, hooks carrying the scenario into each domain's config.
fn run_sharded(c: Comp, stress: &StressConfig) -> CompRun {
    let workers = stress.threads;
    let base_seed = stress.base_seed;
    let mut cfg = ShardCfg::new(
        MATRIX_SHARDS,
        workers,
        Params::new(workers, stress.scale, stress.input_seed),
    );
    cfg.capture = if c.record {
        CaptureMode::Events
    } else {
        CaptureMode::Hash
    };
    if c.panic {
        cfg.opts.watchdog_stall_ms = Some(300);
    }
    let reference = reference_store_hash(&ServerSpec::of(&cfg.params));
    let hooks = DomainHooks {
        perturb: (0..MATRIX_SHARDS as usize)
            .map(|d| {
                let timing = c
                    .perturb
                    .then(|| PerturbPlan::full(mix64(base_seed ^ MATRIX_SALT ^ (d as u64 + 1))));
                // Kill the *driver* of the last domain: the hardest case —
                // the whole domain goes dark mid-run and its siblings must
                // resign it from the rendezvous instead of hanging.
                let victim = (c.panic && d == MATRIX_SHARDS as usize - 1).then_some(Tid(0));
                perturber(timing, victim)
            })
            .collect(),
        tolerate_losses: c.panic,
    };
    let r = run_sharded_server_hooked(&cfg, &hooks);
    let record_ok = !c.record || !r.canonical_events().is_empty();
    CompRun {
        schedule_hash: r.schedule_hash,
        semantic_hash: r.store_hash,
        panics: r.panics,
        complete: r.complete && r.store_hash == reference,
        record_ok,
    }
}

/// Runs all 16 compositions on `cfg`'s geometry and master seed and
/// returns the report. `progress` is called once per finished composition.
pub fn run_mixed_matrix(cfg: &StressConfig, mut progress: impl FnMut(&MatrixCell)) -> MatrixReport {
    // Group anchor: schedule and semantic hash per (panic, shard); the
    // other two axes must not move either.
    let mut anchors: [Option<(u64, u64)>; 4] = [None; 4];
    let mut cells = Vec::with_capacity(16);
    for c in Comp::all() {
        let run = || {
            if c.shard {
                run_sharded(c, cfg)
            } else {
                run_unsharded(c, cfg)
            }
        };
        let (a, b) = (run(), run());
        let deterministic = a.schedule_hash == b.schedule_hash
            && a.semantic_hash == b.semantic_hash
            && a.panics == b.panics
            && a.complete == b.complete;
        let oracle_ok = if c.panic {
            // The death must fire; sharded, the lost tail must be
            // reported (not hung, not silently healed).
            a.panics >= 1 && (!c.shard || !a.complete)
        } else {
            a.panics == 0 && a.complete
        };
        let group = (c.panic as usize) | ((c.shard as usize) << 1);
        let anchor = *anchors[group].get_or_insert((a.schedule_hash, a.semantic_hash));
        let cell = MatrixCell {
            perturb: c.perturb,
            panic: c.panic,
            shard: c.shard,
            record: c.record,
            runs: 2,
            schedule_hash: a.schedule_hash,
            panics: a.panics,
            deterministic,
            oracle_ok,
            record_ok: a.record_ok && b.record_ok,
            invariant: (a.schedule_hash, a.semantic_hash) == anchor,
        };
        progress(&cell);
        cells.push(cell);
    }
    let compositions = cells.len() as u64;
    Report::new(cfg, 2 * compositions, cells, MatrixCount { compositions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_bench::json::ToJson;

    #[test]
    fn mixed_matrix_passes_at_smoke_size() {
        let cfg = StressConfig {
            threads: 3,
            input_seed: 7,
            ..StressConfig::smoke()
        };
        let report = run_mixed_matrix(&cfg, |_| {});
        assert_eq!(report.extra.compositions, 16);
        for c in &report.cells {
            assert!(c.ok(), "composition failed: {c:?}");
        }
        assert!(report.passed);
        // The flagship composition — all four axes in one run — must have
        // actually fired its death.
        let flagship = report
            .cells
            .iter()
            .find(|c| c.perturb && c.panic && c.shard && c.record)
            .expect("16 compositions include the full one");
        assert!(flagship.panics >= 1);
        let j = report.to_json();
        assert!(j.contains("\"compositions\":16"));
    }
}
