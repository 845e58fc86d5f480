//! `soak` — bounded-resource determinism at scale (`BENCH_soak.json`).
//!
//! The paper's claims are asymptotic: determinism must survive *scale*
//! (64–256 threads) and *duration* (schedules long enough that any
//! unbounded bookkeeping would show). This module drives workload kernels
//! and the `dmt_server` request workload — unsharded and across token
//! domains — in seeded soak cells. Each cell:
//!
//! 1. runs once to learn the resource *envelope* from the run's own
//!    high-water marks (`RunReport::{peak_versions, peak_pages,
//!    peak_clock_history}`), each `× ENVELOPE_SLACK + ENVELOPE_PAD`,
//! 2. then iterates the same seeded run until its time budget elapses,
//!    checking every iteration's peaks against that envelope.
//!
//! Because every iteration replays the same seed, any monotone leak —
//! version chains the collector cannot trim, pages that never return to
//! the pool, clock histories growing past their pruning watermark — must
//! cross the envelope. A recording cell's trace ring needs no gauge: it
//! drops its oldest event before it pushes past its capacity. Alongside
//! the bounds, every iteration must reproduce the first iteration's
//! schedule hash bit for bit: soaking re-proves determinism, not just
//! boundedness.
//!
//! The artifact is validated by [`SoakReport::validate`] (the CI gate
//! `bench soak --check` runs). See `docs/SOAK.md`.

use std::time::{Duration, Instant};

use dmt_api::RunReport;
use dmt_baselines::RuntimeKind;
use dmt_shard::{run_sharded_server, CaptureMode, ShardCfg};
use dmt_workloads::Params;

use crate::cell::{Cell, Sink};
use crate::jsonparse::{self, Value};

/// Format version tag of the emitted document.
pub const SCHEMA: &str = "bench-soak/2";

/// Long-phase bounds are the warm-up maxima times this…
pub const ENVELOPE_SLACK: u64 = 2;
/// …plus this pad, so tiny warm-up maxima cannot produce a zero-width
/// envelope that ordinary jitter-free reruns would still trip.
pub const ENVELOPE_PAD: u64 = 8;
/// Bounded trace-ring capacity of recording soak cells.
pub const RING_CAP: usize = 1 << 14;

/// What one soak cell drives.
#[derive(Clone, Debug)]
enum Drive {
    /// A registry workload on one Consequence runtime.
    Kernel {
        workload: &'static str,
        kind: RuntimeKind,
        threads: usize,
        /// Record events into a bounded ring ([`RING_CAP`]) instead of
        /// hash-only tracing.
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
    /// Resource peaks of one cell (the envelope, or the maxima observed),
    /// flattened for the JSON artifact.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Gauges {
        /// Peak retained versions on the segment's chains.
        pub retained_versions: u64,
        /// Peak live 4 KiB pages (heap versions + workspaces).
        pub live_pages: u64,
        /// Peak length of any per-thread clock history.
        pub clock_history: u64,
    }
}

impl Gauges {
    /// A run's three high-water marks.
    fn peaks(r: &RunReport) -> Gauges {
        Gauges {
            retained_versions: r.peak_versions as u64,
            live_pages: r.peak_pages as u64,
            clock_history: r.peak_clock_history as u64,
        }
    }

    /// The gauge-wise maximum of `self` and `o`.
    fn max(self, o: Gauges) -> Gauges {
        Gauges {
            retained_versions: self.retained_versions.max(o.retained_versions),
            live_pages: self.live_pages.max(o.live_pages),
            clock_history: self.clock_history.max(o.clock_history),
        }
    }

    /// Each gauge `× ENVELOPE_SLACK + ENVELOPE_PAD`.
    fn envelope(self) -> Gauges {
        let e = |max: u64| max.saturating_mul(ENVELOPE_SLACK) + ENVELOPE_PAD;
        Gauges {
            retained_versions: e(self.retained_versions),
            live_pages: e(self.live_pages),
            clock_history: e(self.clock_history),
        }
    }

    /// Whether no gauge exceeds its `bound`.
    fn within(&self, bound: &Gauges) -> bool {
        self.retained_versions <= bound.retained_versions
            && self.live_pages <= bound.live_pages
            && self.clock_history <= bound.clock_history
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
        /// The asserted envelope (warm-up peaks × slack + pad).
        pub bounds: Gauges,
        /// Observed peaks over the whole soak phase.
        pub maxima: Gauges,
        /// Iterations whose peaks ran over the envelope (0 = leak-free).
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
    /// The run's peaks; for a sharded run, the maximum over its domains.
    peaks: Gauges,
}

/// One seeded iteration of a cell.
fn run_iter(spec: &CellSpec) -> IterResult {
    match &spec.drive {
        Drive::Kernel {
            workload,
            kind,
            threads,
            record,
        } => {
            let r = Cell {
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
                peaks: Gauges::peaks(&r.report),
            }
        }
        Drive::Server { shards, workers } => {
            let mut cfg = ShardCfg::new(
                *shards,
                *workers,
                Params::new(*workers, spec.scale, spec.seed),
            );
            cfg.capture = CaptureMode::Hash;
            let r = run_sharded_server(&cfg);
            let peaks = r.domains.iter().map(|d| Gauges::peaks(&d.run));
            IterResult {
                schedule_hash: r.schedule_hash,
                output_hash: r.store_hash,
                validated: r.complete,
                peaks: peaks.fold(Gauges::default(), Gauges::max),
            }
        }
    }
}

/// Soaks one cell: learn the envelope, then iterate under it until
/// `budget` elapses (always at least two checked iterations).
fn run_cell(spec: &CellSpec, budget: Duration) -> SoakCell {
    // Phase 1: envelope discovery from the warm-up run's own peaks.
    let bounds = run_iter(spec).peaks.envelope();

    // Phase 2: the soak proper.
    let t0 = Instant::now();
    let first = run_iter(spec);
    let mut iterations = 1u64;
    let mut deterministic = true;
    let mut validated = first.validated;
    let mut maxima = first.peaks;
    let mut violations = u64::from(!first.peaks.within(&bounds));
    while t0.elapsed() < budget || iterations < 2 {
        let r = run_iter(spec);
        deterministic &=
            r.schedule_hash == first.schedule_hash && r.output_hash == first.output_hash;
        validated &= r.validated;
        maxima = maxima.max(r.peaks);
        violations += u64::from(!r.peaks.within(&bounds));
        iterations += 1;
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let (workload, runtime, threads, record) = spec.label();
    SoakCell {
        workload,
        runtime,
        threads,
        record,
        iterations,
        bounds,
        maxima,
        violations,
        within_bounds: violations == 0,
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
        // Live trace ring during the soak: the ring drops its oldest
        // events, so recording must not move the peaks.
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
                    "{:<24} {:<15} {:>4} threads: {:>4} iters  \
                     peak {}v/{}p/{}h  {}  {}",
                    c.workload,
                    c.runtime,
                    c.threads,
                    c.iterations,
                    c.maxima.retained_versions,
                    c.maxima.live_pages,
                    c.maxima.clock_history,
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
    /// against the workload reference, and have its peaks read (a live
    /// page and a clock-history entry are in every run). The first problem
    /// found is the error.
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
            let maxima = c.get("maxima").ok_or(format!("{ctx}: missing maxima"))?;
            for key in ["live_pages", "clock_history"] {
                if num(maxima, &ctx, key)? <= 0.0 {
                    return Err(format!("{ctx}: peak {key} never read"));
                }
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
        r.cells[1].maxima.clock_history = 0;
        assert!(SoakReport::validate(&r.to_json())
            .unwrap_err()
            .contains("never read"));
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
            bounds: Gauges {
                retained_versions: 20,
                live_pages: 4000,
                clock_history: 40,
            },
            maxima: Gauges {
                retained_versions: 8,
                live_pages: 1800,
                clock_history: 16,
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
