//! `soak` — bounded-resource determinism at scale (`BENCH_soak.json`).
//!
//! The paper's claims are asymptotic: determinism must survive *scale*
//! (64–256 threads) and *duration* (schedules long enough that any
//! unbounded bookkeeping would show). This module drives workload kernels
//! and the `dmt_server` request workload — unsharded and across token
//! domains — in seeded soak cells. Each cell:
//!
//! 1. runs once with an unasserted [`ResourceWitness`] to learn the
//!    resource *envelope* (peak retained versions, live pages, clock
//!    history, trace-ring occupancy),
//! 2. then iterates the same seeded run under a witness asserting
//!    `envelope × ENVELOPE_SLACK + ENVELOPE_PAD` until its time budget
//!    elapses, sampling at **every commit epoch**.
//!
//! Because every iteration replays the same seed, any monotone leak —
//! version chains the collector cannot trim, pages that never return to
//! the pool, clock histories growing past their pruning watermark, a
//! trace ring that buffers instead of dropping — must cross the envelope
//! and trip the witness. Alongside the bounds, every iteration must
//! reproduce the first iteration's schedule hash bit for bit: soaking
//! re-proves determinism, not just boundedness.
//!
//! The artifact is validated by [`SoakReport::validate`] (the CI gate
//! `bench soak --check` runs). See `docs/SOAK.md`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dmt_api::{ResourceBounds, ResourceWitness, WitnessHandle};
use dmt_baselines::RuntimeKind;
use dmt_shard::{run_sharded_server_hooked, CaptureMode, DomainHooks, ShardCfg};
use dmt_workloads::Params;

use crate::cell::{Cell, Sink};
use crate::jsonparse::{self, Value};

/// Format version tag of the emitted document.
pub const SCHEMA: &str = "bench-soak/1";

/// Long-phase bounds are the warm-up maxima times this…
pub const ENVELOPE_SLACK: usize = 2;
/// …plus this pad, so tiny warm-up maxima cannot produce a zero-width
/// envelope that ordinary jitter-free reruns would still trip.
pub const ENVELOPE_PAD: usize = 8;
/// Bounded trace-ring capacity of recording soak cells. The ring gauge's
/// bound in those cells is the capacity itself: a ring that buffers
/// beyond its capacity instead of dropping is a leak.
pub const RING_CAP: usize = 1 << 14;

/// Envelope transform applied to each warm-up maximum.
fn envelope(max: usize) -> usize {
    max.saturating_mul(ENVELOPE_SLACK) + ENVELOPE_PAD
}

/// What one soak cell drives.
#[derive(Clone, Debug)]
enum Drive {
    /// A registry workload on one Consequence runtime.
    Kernel {
        workload: &'static str,
        kind: RuntimeKind,
        threads: usize,
        /// Record events into a bounded ring ([`RING_CAP`]) instead of
        /// hash-only tracing, making the ring gauge live.
        record: bool,
    },
    /// The sharded request server across token domains.
    Server { shards: u32, workers: usize },
}

/// One soak cell specification.
#[derive(Clone, Debug)]
struct CellSpec {
    drive: Drive,
    seed: u64,
    scale: u32,
}

impl CellSpec {
    fn label(&self) -> (String, String, usize, bool) {
        match &self.drive {
            Drive::Kernel {
                workload,
                kind,
                threads,
                record,
            } => (
                workload.to_string(),
                kind.label().to_string(),
                *threads,
                *record,
            ),
            Drive::Server { shards, workers } => (
                format!("dmt_server/sharded-{shards}"),
                "consequence-ic".to_string(),
                *shards as usize * (*workers + 2),
                false,
            ),
        }
    }
}

crate::json_record! {
    /// Witnessed resource figures of one cell (bounds asserted or maxima
    /// observed), flattened for the JSON artifact.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Gauges {
        /// Peak retained versions on the segment's chains.
        pub retained_versions: u64,
        /// Live 4 KiB pages (heap versions + workspaces).
        pub live_pages: u64,
        /// Longest per-thread clock history.
        pub clock_history: u64,
        /// Trace-sink ring occupancy.
        pub trace_ring: u64,
    }
}

crate::json_record! {
    /// One soak cell of the artifact.
    #[derive(Clone, Debug)]
    pub struct SoakCell {
        /// Workload name (`dmt_server/sharded-N` for sharded cells).
        pub workload: String,
        /// Runtime preset the cell ran under.
        pub runtime: String,
        /// Worker threads driven (summed across domains for sharded cells).
        pub threads: usize,
        /// Whether events were recorded into a bounded ring during the soak.
        pub record: bool,
        /// Seeded iterations completed (≥ 2: first + at least one re-run).
        pub iterations: u64,
        /// Witness samples taken across every iteration (one per commit
        /// epoch plus one per-run teardown sample).
        pub samples: u64,
        /// The asserted envelope (warm-up maxima × slack + pad).
        pub bounds: Gauges,
        /// Observed maxima over the whole soak phase.
        pub maxima: Gauges,
        /// Samples that violated at least one bound (0 = leak-free).
        pub violations: u64,
        /// `violations == 0`.
        pub within_bounds: bool,
        /// Every iteration reproduced the first schedule hash bit for bit.
        pub deterministic: bool,
        /// Every iteration's final state matched the workload reference.
        pub validated: bool,
        /// The cell's (first-iteration) schedule hash.
        pub schedule_hash: u64,
        /// Wall nanoseconds the soak phase ran for.
        pub wall_ns: f64,
    }
}

crate::json_record! {
    /// The complete `soak` artifact.
    #[derive(Clone, Debug)]
    pub struct SoakReport {
        /// Format tag ([`SCHEMA`]).
        pub schema: String,
        /// `"full"` or `"smoke"`.
        pub mode: String,
        /// Highest thread count soaked.
        pub max_threads: usize,
        /// Every cell stayed within its envelope.
        pub all_within_bounds: bool,
        /// Every cell reproduced its schedule hash across all iterations.
        pub all_deterministic: bool,
        /// The cells.
        pub cells: Vec<SoakCell>,
    }
}

/// What one iteration reports back to the cell driver.
struct IterResult {
    schedule_hash: u64,
    output_hash: u64,
    validated: bool,
}

/// One seeded iteration of a cell, observed by `witness`.
fn run_iter(spec: &CellSpec, witness: &WitnessHandle) -> IterResult {
    match &spec.drive {
        Drive::Kernel {
            workload,
            kind,
            threads,
            record,
        } => {
            let r = Cell {
                witness: witness.clone(),
                max_threads: threads + 2,
                sink: if *record {
                    Sink::Memory(RING_CAP)
                } else {
                    Sink::Hash
                },
                ..Cell::new(
                    workload,
                    Params::new(*threads, spec.scale, spec.seed),
                    *kind,
                )
            }
            .run();
            IterResult {
                schedule_hash: r.report.schedule_hash,
                output_hash: r.report.commit_log_hash,
                validated: r.validation.matches_reference,
            }
        }
        Drive::Server { shards, workers } => {
            let mut cfg = ShardCfg::new(
                *shards,
                *workers,
                Params::new(*workers, spec.scale, spec.seed),
            );
            cfg.capture = CaptureMode::Hash;
            let hooks = DomainHooks {
                perturb: Vec::new(),
                witness: vec![witness.clone(); *shards as usize],
                tolerate_losses: false,
            };
            let r = run_sharded_server_hooked(&cfg, &hooks);
            IterResult {
                schedule_hash: r.schedule_hash,
                output_hash: r.store_hash,
                validated: r.complete,
            }
        }
    }
}

fn gauges_of(s: dmt_api::ResourceSample) -> Gauges {
    Gauges {
        retained_versions: s.retained_versions as u64,
        live_pages: s.live_pages as u64,
        clock_history: s.clock_history as u64,
        trace_ring: s.trace_ring as u64,
    }
}

/// Soaks one cell: learn the envelope, then iterate under it until
/// `budget` elapses (always at least two witnessed iterations).
fn run_cell(spec: &CellSpec, budget: Duration) -> SoakCell {
    // Phase 1: envelope discovery, nothing asserted.
    let probe = ResourceWitness::new(ResourceBounds::unbounded());
    run_iter(spec, &WitnessHandle::to(Arc::clone(&probe)));
    let m = probe.summary().maxima;
    let ring_bound = match &spec.drive {
        Drive::Kernel { record: true, .. } => RING_CAP,
        _ => envelope(m.trace_ring),
    };
    let bounds = ResourceBounds {
        max_retained_versions: envelope(m.retained_versions),
        max_live_pages: envelope(m.live_pages),
        max_clock_history: envelope(m.clock_history),
        max_trace_ring: ring_bound,
    };

    // Phase 2: the soak proper.
    let witness = ResourceWitness::new(bounds);
    let h = WitnessHandle::to(Arc::clone(&witness));
    let t0 = Instant::now();
    let first = run_iter(spec, &h);
    let mut iterations = 1u64;
    let mut deterministic = true;
    let mut validated = first.validated;
    while t0.elapsed() < budget || iterations < 2 {
        let r = run_iter(spec, &h);
        deterministic &=
            r.schedule_hash == first.schedule_hash && r.output_hash == first.output_hash;
        validated &= r.validated;
        iterations += 1;
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let s = witness.summary();
    let (workload, runtime, threads, record) = spec.label();
    SoakCell {
        workload,
        runtime,
        threads,
        record,
        iterations,
        samples: s.samples,
        bounds: Gauges {
            retained_versions: bounds.max_retained_versions as u64,
            live_pages: bounds.max_live_pages as u64,
            clock_history: bounds.max_clock_history as u64,
            trace_ring: bounds.max_trace_ring as u64,
        },
        maxima: gauges_of(s.maxima),
        violations: s.violation_count,
        within_bounds: s.within_bounds(),
        deterministic,
        validated,
        schedule_hash: first.schedule_hash,
        wall_ns,
    }
}

/// The soak grid. Smoke keeps the ≥ 64-thread cells and short budgets;
/// full stretches to 256 threads and multi-minute total duration.
fn cell_specs(smoke: bool) -> Vec<CellSpec> {
    use RuntimeKind::{ConsequenceIc as Ic, ConsequenceRr as Rr};
    let kernel = |workload, kind, threads, record| CellSpec {
        drive: Drive::Kernel {
            workload,
            kind,
            threads,
            record,
        },
        seed: 42,
        scale: 1,
    };
    let mut v = vec![
        // The paper's thread-count axis, on cheap kernels.
        kernel("histogram", Ic, 64, false),
        kernel("string_match", Rr, 64, false),
        // Live trace ring during the soak: the ring gauge is asserted at
        // its capacity — buffering beyond it would be a leak.
        kernel("histogram", Ic, 64, true),
        // The request server, unsharded and across 4 token domains.
        kernel("dmt_server", Ic, 64, false),
        CellSpec {
            drive: Drive::Server {
                shards: 4,
                workers: 16,
            },
            seed: 42,
            scale: 1,
        },
    ];
    if !smoke {
        v.push(kernel("word_count", Ic, 128, false));
        v.push(kernel("matrix_multiply", Ic, 128, false));
        v.push(kernel("histogram", Ic, 256, false));
        v.push(kernel("string_match", Ic, 256, true));
        v.push(CellSpec {
            drive: Drive::Server {
                shards: 8,
                workers: 12,
            },
            seed: 42,
            scale: 1,
        });
    }
    v
}

/// Whether the boolean member `key` is present and true.
fn flag(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_bool) == Some(true)
}

/// The numeric member `key` of the object described by `ctx`.
fn num(v: &Value, ctx: &str, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("{ctx}: missing {key}"))
}

impl SoakReport {
    /// Runs the soak grid (`smoke` = CI-sized grid and budgets) and
    /// assembles the artifact.
    pub fn run(smoke: bool) -> SoakReport {
        let budget = if smoke {
            Duration::from_millis(700)
        } else {
            Duration::from_secs(15)
        };
        let cells: Vec<SoakCell> = cell_specs(smoke)
            .iter()
            .map(|spec| run_cell(spec, budget))
            .collect();
        SoakReport {
            schema: SCHEMA.to_string(),
            mode: if smoke { "smoke" } else { "full" }.to_string(),
            max_threads: cells.iter().map(|c| c.threads).max().unwrap_or(0),
            all_within_bounds: cells.iter().all(|c| c.within_bounds),
            all_deterministic: cells.iter().all(|c| c.deterministic),
            cells,
        }
    }

    /// Human-readable result lines, one per cell plus totals.
    pub fn summary(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{:<24} {:<15} {:>4} threads: {:>3} iters  {:>7} samples  \
                     peak {}v/{}p/{}h/{}r  {}  {}",
                    c.workload,
                    c.runtime,
                    c.threads,
                    c.iterations,
                    c.samples,
                    c.maxima.retained_versions,
                    c.maxima.live_pages,
                    c.maxima.clock_history,
                    c.maxima.trace_ring,
                    if c.within_bounds { "bounded" } else { "LEAKED" },
                    if c.deterministic {
                        "deterministic"
                    } else {
                        "DIVERGED"
                    }
                )
            })
            .collect();
        out.push(format!(
            "{} cells, max threads {}; all bounded: {}; all deterministic: {}",
            self.cells.len(),
            self.max_threads,
            self.all_within_bounds,
            self.all_deterministic
        ));
        out
    }

    /// An emitted `BENCH_soak.json` must parse, carry the current schema
    /// tag, soak at least one ≥ 64-thread cell (≥ 256 in full mode),
    /// include a recording cell and a sharded-server cell, and every cell
    /// must be within bounds, deterministic across iterations, validated
    /// against the workload reference, and actually sampled. The first
    /// problem found is the error.
    pub fn validate(text: &str) -> Result<(), String> {
        let v = jsonparse::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("schema tag is not {SCHEMA:?}"));
        }
        for key in ["all_within_bounds", "all_deterministic"] {
            if !flag(&v, key) {
                return Err(format!("{key} is not true"));
            }
        }
        let full = v.get("mode").and_then(Value::as_str) == Some("full");
        let need_threads = if full { 256.0 } else { 64.0 };
        let max_threads = num(&v, "report", "max_threads")?;
        if max_threads < need_threads {
            return Err(format!(
                "max_threads {max_threads} < {need_threads}: the scale claim needs scale"
            ));
        }
        let cells = v
            .get("cells")
            .and_then(Value::as_arr)
            .ok_or("missing cells")?;
        if cells.is_empty() {
            return Err("no cells".into());
        }
        let mut saw_record = false;
        let mut saw_sharded = false;
        for c in cells {
            let name = c
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("cell missing workload")?;
            let ctx = format!("cell {name}");
            for key in ["within_bounds", "deterministic", "validated"] {
                if !flag(c, key) {
                    return Err(format!("{ctx}: {key} is not true"));
                }
            }
            if num(c, &ctx, "iterations")? < 2.0 {
                return Err(format!("{ctx}: fewer than 2 iterations"));
            }
            if num(c, &ctx, "samples")? <= 0.0 {
                return Err(format!("{ctx}: witness never sampled"));
            }
            if num(c, &ctx, "violations")? != 0.0 {
                return Err(format!("{ctx}: bound violations recorded"));
            }
            saw_record |= flag(c, "record");
            saw_sharded |= name.contains("sharded");
        }
        if !saw_record {
            return Err("no recording (trace-ring) cell".into());
        }
        if !saw_sharded {
            return Err("no sharded-server cell".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn smoke_report_passes_its_own_validation() {
        let r = SoakReport::run(true);
        SoakReport::validate(&r.to_json()).expect("smoke artifact validates");
        // The smoke grid still soaks the paper's minimum scale axis.
        assert!(r.max_threads >= 64);
        for c in &r.cells {
            assert!(c.samples > 0, "cell {} never sampled", c.workload);
        }
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(SoakReport::validate("not json").is_err());
        assert!(SoakReport::validate("{}").is_err());
        let mut r = stub_report();
        r.cells[0].within_bounds = false;
        r.all_within_bounds = false;
        assert!(SoakReport::validate(&r.to_json())
            .unwrap_err()
            .contains("all_within_bounds"));
        let mut r = stub_report();
        r.cells[1].deterministic = false;
        r.all_deterministic = false;
        assert!(SoakReport::validate(&r.to_json())
            .unwrap_err()
            .contains("all_deterministic"));
        let mut r = stub_report();
        r.cells[2].violations = 3;
        assert!(SoakReport::validate(&r.to_json())
            .unwrap_err()
            .contains("violations"));
        let mut r = stub_report();
        r.max_threads = 32;
        assert!(SoakReport::validate(&r.to_json())
            .unwrap_err()
            .contains("max_threads"));
        let mut r = stub_report();
        for c in &mut r.cells {
            c.record = false;
        }
        assert!(SoakReport::validate(&r.to_json())
            .unwrap_err()
            .contains("recording"));
    }

    /// A structurally complete report with fabricated numbers, for
    /// validation tests that must stay fast.
    fn stub_report() -> SoakReport {
        let cell = |workload: &str, threads: usize, record: bool| SoakCell {
            workload: workload.to_string(),
            runtime: "consequence-ic".into(),
            threads,
            record,
            iterations: 5,
            samples: 1000,
            bounds: Gauges {
                retained_versions: 20,
                live_pages: 4000,
                clock_history: 40,
                trace_ring: RING_CAP as u64,
            },
            maxima: Gauges {
                retained_versions: 8,
                live_pages: 1800,
                clock_history: 16,
                trace_ring: 900,
            },
            violations: 0,
            within_bounds: true,
            deterministic: true,
            validated: true,
            schedule_hash: 0xfeed,
            wall_ns: 1e9,
        };
        let cells = vec![
            cell("histogram", 64, false),
            cell("histogram", 64, true),
            cell("dmt_server/sharded-4", 72, false),
        ];
        SoakReport {
            schema: SCHEMA.to_string(),
            mode: "smoke".into(),
            max_threads: 72,
            all_within_bounds: true,
            all_deterministic: true,
            cells,
        }
    }
}
