//! Harness regenerating the Consequence paper's evaluation (Figures 10-16).
//!
//! Each `figN` function reruns the corresponding experiment at laptop scale
//! and returns structured rows; the `figures` binary prints them and dumps
//! JSON next to the workspace (`target/figures/`). Absolute numbers are
//! virtual-cycle counts from the deterministic cost model (see `DESIGN.md`);
//! the *shapes* — who wins, by what factor, where crossovers are — are the
//! reproduction targets recorded in `EXPERIMENTS.md`.

pub mod cell;
pub mod json;
pub mod jsonparse;
pub mod lrc;
pub mod replay;
pub mod soak;

use std::sync::Arc;

use consequence::Options;
use dmt_api::{Breakdown, RunReport, Tid};
use dmt_baselines::RuntimeKind;
use dmt_workloads::Params;

pub use cell::{Cell, CellRun, Sink, System};
pub use lrc::LrcFold;

/// The 19 paper benchmarks in presentation order.
pub const ALL_BENCHMARKS: [&str; 19] = [
    "histogram",
    "linear_regression",
    "string_match",
    "matrix_multiply",
    "pca",
    "kmeans",
    "word_count",
    "reverse_index",
    "ferret",
    "dedup",
    "canneal",
    "streamcluster",
    "swaptions",
    "ocean_cp",
    "lu_cb",
    "lu_ncb",
    "water_nsquared",
    "water_spatial",
    "radix",
];

/// The "most challenging" benchmarks the paper's detail figures focus on.
pub const HARD_BENCHMARKS: [&str; 8] = [
    "reverse_index",
    "ferret",
    "dedup",
    "kmeans",
    "ocean_cp",
    "lu_cb",
    "lu_ncb",
    "canneal",
];

/// Shared measurement configuration.
#[derive(Clone, Copy, Debug)]
pub struct Bench {
    /// Problem-size multiplier.
    pub scale: u32,
    /// Input seed.
    pub seed: u64,
    /// Repetitions for the nondeterministic pthreads baseline (the best
    /// run is kept, as in the paper); deterministic runtimes need one.
    pub pthreads_reps: usize,
    /// Conversion GC budget (versions per commit).
    pub gc_budget: usize,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            scale: 1,
            seed: 42,
            pthreads_reps: 3,
            gc_budget: 4,
        }
    }
}

crate::json_record! {
    /// One measured execution.
    #[derive(Clone, Debug)]
    pub struct Measured {
        pub benchmark: String,
        pub runtime: String,
        pub threads: usize,
        pub virtual_cycles: u64,
        pub peak_pages: usize,
        pub validated: bool,
        pub report: RunReport,
    }
}

impl Bench {
    /// The figure cell for `name`: untraced, this configuration's input
    /// and GC budget.
    pub fn cell(&self, system: impl Into<System>, name: &str, threads: usize) -> Cell {
        Cell {
            sink: Sink::Off,
            gc_budget: self.gc_budget,
            ..Cell::new(name, Params::new(threads, self.scale, self.seed), system)
        }
    }
}

/// Runs `cell` and labels the measurement `runtime`.
fn measure(cell: Cell, runtime: &str) -> Measured {
    let benchmark = cell.workload.name().to_string();
    let threads = cell.params.threads;
    let run = cell.run();
    Measured {
        benchmark,
        runtime: runtime.to_string(),
        threads,
        virtual_cycles: run.report.virtual_cycles,
        peak_pages: run.report.peak_pages,
        validated: run.validation.matches_reference,
        report: run.report,
    }
}

/// Runs `name` once under `kind` with `threads` workers.
pub fn run_one(b: &Bench, kind: RuntimeKind, name: &str, threads: usize) -> Measured {
    measure(b.cell(kind, name, threads), kind.label())
}

/// Runs `name` once under `kind` with an incremental hashing trace sink
/// attached; `report.schedule_hash` and `report.events` carry the result.
/// Figure runs stay untraced — this path exists for certification
/// (`figures certify`) and the determinism-matrix tests.
pub fn run_one_traced(b: &Bench, kind: RuntimeKind, name: &str, threads: usize) -> Measured {
    let cell = Cell {
        sink: Sink::Hash,
        ..b.cell(kind, name, threads)
    };
    measure(cell, kind.label())
}

/// Runs `name` under Consequence with explicit options (ablations).
pub fn run_one_with_options(b: &Bench, opts: Options, name: &str, threads: usize) -> Measured {
    measure(b.cell(opts, name, threads), "consequence-custom")
}

/// Best (minimum virtual-cycle) run across thread counts; pthreads is
/// additionally repeated per thread count and the best run kept.
pub fn best_over_threads(
    b: &Bench,
    kind: RuntimeKind,
    name: &str,
    thread_counts: &[usize],
) -> Measured {
    let reps = if kind == RuntimeKind::Pthreads {
        b.pthreads_reps
    } else {
        1
    };
    thread_counts
        .iter()
        .flat_map(|&t| std::iter::repeat_n(t, reps))
        .map(|t| run_one(b, kind, name, t))
        .min_by_key(|m| m.virtual_cycles)
        .expect("at least one thread count")
}

// ------------------------------------------------------------- Figure 10

crate::json_record! {
    /// One Figure 10 row: per-library best runtime normalized to pthreads.
    #[derive(Clone, Debug)]
    pub struct Fig10Row {
        pub benchmark: String,
        /// Slowdown vs best pthreads, keyed like the paper's bars.
        pub dthreads: f64,
        pub dwc: f64,
        pub consequence_rr: f64,
        pub consequence_ic: f64,
    }
}

/// Figure 10: best-over-thread-count runtime of each deterministic library
/// normalized to the best pthreads runtime, for all 19 benchmarks.
pub fn fig10(b: &Bench, thread_counts: &[usize], benchmarks: &[&str]) -> Vec<Fig10Row> {
    benchmarks
        .iter()
        .map(|&name| {
            let base = best_over_threads(b, RuntimeKind::Pthreads, name, thread_counts)
                .virtual_cycles as f64;
            let norm =
                |kind| best_over_threads(b, kind, name, thread_counts).virtual_cycles as f64 / base;
            Fig10Row {
                benchmark: name.to_string(),
                dthreads: norm(RuntimeKind::DThreads),
                dwc: norm(RuntimeKind::Dwc),
                consequence_rr: norm(RuntimeKind::ConsequenceRr),
                consequence_ic: norm(RuntimeKind::ConsequenceIc),
            }
        })
        .collect()
}

// ------------------------------------------------------------- Figure 11

crate::json_record! {
    /// One Figure 11 point: runtime at a given thread count.
    #[derive(Clone, Debug)]
    pub struct Fig11Point {
        pub benchmark: String,
        pub runtime: String,
        pub threads: usize,
        pub normalized: f64,
    }
}

/// Figure 11: runtime vs thread count (normalized to single-thread
/// pthreads) for the six scalability-problem benchmarks.
pub fn fig11(b: &Bench, thread_counts: &[usize], benchmarks: &[&str]) -> Vec<Fig11Point> {
    let mut out = Vec::new();
    for &name in benchmarks {
        let base = run_one(b, RuntimeKind::Pthreads, name, 1).virtual_cycles as f64;
        for kind in RuntimeKind::ALL {
            for &t in thread_counts {
                let m = run_one(b, kind, name, t);
                out.push(Fig11Point {
                    benchmark: name.to_string(),
                    runtime: kind.label().to_string(),
                    threads: t,
                    normalized: m.virtual_cycles as f64 / base,
                });
            }
        }
    }
    out
}

// ------------------------------------------------------------- Figure 12

crate::json_record! {
    /// One Figure 12 point: peak memory (pages) at a thread count.
    #[derive(Clone, Debug)]
    pub struct Fig12Point {
        pub benchmark: String,
        pub runtime: String,
        pub threads: usize,
        pub peak_pages: usize,
    }
}

/// Figure 12: peak memory for Consequence vs DThreads across thread counts.
pub fn fig12(b: &Bench, thread_counts: &[usize], benchmarks: &[&str]) -> Vec<Fig12Point> {
    let mut out = Vec::new();
    for &name in benchmarks {
        for kind in [RuntimeKind::DThreads, RuntimeKind::ConsequenceIc] {
            for &t in thread_counts {
                let m = run_one(b, kind, name, t);
                out.push(Fig12Point {
                    benchmark: name.to_string(),
                    runtime: kind.label().to_string(),
                    threads: t,
                    peak_pages: m.peak_pages,
                });
            }
        }
    }
    out
}

// ------------------------------------------------------------- Figure 13

/// The five optimizations ablated in Figure 13.
pub const OPTIMIZATIONS: [&str; 5] = [
    "coarsening",
    "fast_forward",
    "parallel_barrier",
    "adaptive_overflow",
    "user_counter_read",
];

crate::json_record! {
    /// One Figure 13 bar: speedup contributed by one optimization.
    #[derive(Clone, Debug)]
    pub struct Fig13Bar {
        pub benchmark: String,
        pub optimization: String,
        /// `runtime without optimization / runtime with` (>1 = it helps).
        pub speedup: f64,
    }
}

/// Figure 13: per-optimization speedup of Consequence-IC on the hard
/// benchmarks.
pub fn fig13(b: &Bench, threads: usize, benchmarks: &[&str]) -> Vec<Fig13Bar> {
    let mut out = Vec::new();
    for &name in benchmarks {
        let with =
            run_one_with_options(b, Options::consequence_ic(), name, threads).virtual_cycles as f64;
        for &opt in &OPTIMIZATIONS {
            let without =
                run_one_with_options(b, Options::consequence_ic().without(opt), name, threads)
                    .virtual_cycles as f64;
            out.push(Fig13Bar {
                benchmark: name.to_string(),
                optimization: opt.to_string(),
                speedup: without / with,
            });
        }
    }
    out
}

// ------------------------------------------------------------- Figure 14

crate::json_record! {
    /// One Figure 14 point: runtime at a coarsening level.
    #[derive(Clone, Debug)]
    pub struct Fig14Point {
        pub benchmark: String,
        /// Static budget in instructions, `None` = adaptive.
        pub level: Option<u64>,
        pub virtual_cycles: u64,
    }
}

/// Figure 14: static coarsening levels vs the adaptive policy for
/// `reverse_index` and `ferret`.
pub fn fig14(b: &Bench, threads: usize, benchmarks: &[&str], levels: &[u64]) -> Vec<Fig14Point> {
    let mut out = Vec::new();
    for &name in benchmarks {
        for &lvl in levels {
            let mut o = Options::consequence_ic();
            o.static_coarsen = Some(lvl);
            let m = run_one_with_options(b, o, name, threads);
            out.push(Fig14Point {
                benchmark: name.to_string(),
                level: Some(lvl),
                virtual_cycles: m.virtual_cycles,
            });
        }
        let m = run_one_with_options(b, Options::consequence_ic(), name, threads);
        out.push(Fig14Point {
            benchmark: name.to_string(),
            level: None,
            virtual_cycles: m.virtual_cycles,
        });
    }
    out
}

// ------------------------------------------------------------- Figure 15

crate::json_record! {
    /// One Figure 15 stacked bar: where a benchmark's time went.
    #[derive(Clone, Debug)]
    pub struct Fig15Bar {
        /// `ferret_1` / `ferret_n` are split out as in the paper.
        pub label: String,
        pub runtime: String,
        pub breakdown: Breakdown,
    }
}

/// Figure 15: virtual-time breakdown at 8 threads under pthreads, DWC and
/// Consequence-IC. `ferret` is split into its first thread (the pipeline
/// loader) and the rest.
pub fn fig15(b: &Bench, threads: usize, benchmarks: &[&str]) -> Vec<Fig15Bar> {
    let mut out = Vec::new();
    for &name in benchmarks {
        for kind in [
            RuntimeKind::Pthreads,
            RuntimeKind::Dwc,
            RuntimeKind::ConsequenceIc,
        ] {
            let m = run_one(b, kind, name, threads);
            if name == "ferret" {
                let mut first = Breakdown::default();
                let mut rest = Breakdown::default();
                for (tid, bd) in &m.report.per_thread {
                    if *tid == Tid(1) {
                        first = *bd;
                    } else {
                        rest += *bd;
                    }
                }
                out.push(Fig15Bar {
                    label: "ferret_1".into(),
                    runtime: kind.label().into(),
                    breakdown: first,
                });
                out.push(Fig15Bar {
                    label: "ferret_n".into(),
                    runtime: kind.label().into(),
                    breakdown: rest,
                });
            } else {
                out.push(Fig15Bar {
                    label: name.into(),
                    runtime: kind.label().into(),
                    breakdown: m.report.breakdown,
                });
            }
        }
    }
    out
}

// ------------------------------------------------------------- Figure 16

crate::json_record! {
    /// One Figure 16 pair: pages propagated under TSO vs the LRC estimate.
    #[derive(Clone, Debug)]
    pub struct Fig16Row {
        pub benchmark: String,
        pub tso_pages: u64,
        pub lrc_pages: u64,
        /// `1 - lrc/tso`: the fraction LRC would save.
        pub reduction: f64,
    }
}

/// The paper's Figure 16 programs: the 12 benchmarks with ≥10K page
/// updates.
pub const FIG16_BENCHMARKS: [&str; 12] = [
    "canneal",
    "lu_ncb",
    "lu_cb",
    "ocean_cp",
    "radix",
    "water_nsquared",
    "water_spatial",
    "kmeans",
    "streamcluster",
    "reverse_index",
    "word_count",
    "ferret",
];

/// Figure 16: total pages propagated under TSO (Consequence) vs the
/// happens-before LRC estimate, which an [`LrcFold`] attached as the run's
/// trace sink reads off the events.
pub fn fig16(b: &Bench, threads: usize, benchmarks: &[&str]) -> Vec<Fig16Row> {
    benchmarks
        .iter()
        .map(|&name| {
            let cell = b.cell(RuntimeKind::ConsequenceIc, name, threads);
            let fold = Arc::new(LrcFold::new(cell.max_threads));
            let cell = Cell {
                sink: Sink::To(fold.clone()),
                ..cell
            };
            let m = measure(cell, RuntimeKind::ConsequenceIc.label());
            let tso = m.report.counters.pages_propagated;
            let lrc = fold.pages_propagated();
            Fig16Row {
                benchmark: name.to_string(),
                tso_pages: tso,
                lrc_pages: lrc,
                reduction: if tso > 0 {
                    1.0 - lrc as f64 / tso as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

// --------------------------------------------------------- extra ablations

crate::json_record! {
    /// One point of the §3.2 overflow-interval sweep.
    #[derive(Clone, Debug)]
    pub struct OverflowPoint {
        pub benchmark: String,
        /// Fixed overflow interval in instructions; `None` = adaptive.
        pub interval: Option<u64>,
        pub virtual_cycles: u64,
        pub publications: u64,
    }
}

/// The Kendo trade-off the paper's §3.2 adapts away: a low fixed overflow
/// interval costs interrupt overhead, a high one costs notification
/// latency. Sweeping it shows the U-shape that the adaptive policy sits
/// under.
pub fn overflow_sweep(
    b: &Bench,
    threads: usize,
    name: &str,
    intervals: &[u64],
) -> Vec<OverflowPoint> {
    let mut out = Vec::new();
    for &iv in intervals {
        let mut o = Options::consequence_ic();
        o.adaptive_overflow = false;
        o.base_overflow = iv;
        let m = run_one_with_options(b, o, name, threads);
        out.push(OverflowPoint {
            benchmark: name.to_string(),
            interval: Some(iv),
            virtual_cycles: m.virtual_cycles,
            publications: m.report.counters.publications,
        });
    }
    let m = run_one_with_options(b, Options::consequence_ic(), name, threads);
    out.push(OverflowPoint {
        benchmark: name.to_string(),
        interval: None,
        virtual_cycles: m.virtual_cycles,
        publications: m.report.counters.publications,
    });
    out
}

crate::json_record! {
    /// One point of the GC-budget sweep behind Figure 12.
    #[derive(Clone, Debug)]
    pub struct GcPoint {
        pub benchmark: String,
        /// Versions the collector may reclaim per commit (`u64::MAX` printed
        /// as `unbounded`).
        pub budget: usize,
        pub peak_pages: usize,
        pub virtual_cycles: u64,
    }
}

/// Sweeps the single-threaded collector's budget: the paper attributes the
/// Figure 12 blow-ups to a collector that "cannot keep up"; an idealized
/// (multi-threaded) collector corresponds to an unbounded budget.
pub fn gc_sweep(b: &Bench, threads: usize, name: &str, budgets: &[usize]) -> Vec<GcPoint> {
    budgets
        .iter()
        .map(|&budget| {
            let mut bb = *b;
            bb.gc_budget = budget;
            let m = run_one(&bb, RuntimeKind::ConsequenceIc, name, threads);
            GcPoint {
                benchmark: name.to_string(),
                budget,
                peak_pages: m.peak_pages,
                virtual_cycles: m.virtual_cycles,
            }
        })
        .collect()
}

crate::json_record! {
    /// One row of the §4.1 blocking-vs-polling mutex comparison.
    #[derive(Clone, Debug)]
    pub struct LockDesignRow {
        pub benchmark: String,
        pub blocking: u64,
        /// Kendo-style polling with the given clock increment.
        pub polling: Vec<(u64, u64)>,
    }
}

/// §4.1: the paper's blocking deterministic mutex vs Kendo's polling
/// design, which both needs a program-specific increment and burns token
/// round trips while waiting.
pub fn lock_design(
    b: &Bench,
    threads: usize,
    benchmarks: &[&str],
    increments: &[u64],
) -> Vec<LockDesignRow> {
    benchmarks
        .iter()
        .map(|&name| {
            // Coarsening off on both sides: §4.1 compares the base lock
            // protocols, and coarsening's token retention hides contention.
            let base = Options::consequence_ic().without("coarsening");
            let blocking = run_one_with_options(b, base.clone(), name, threads).virtual_cycles;
            let polling = increments
                .iter()
                .map(|&inc| {
                    let o = Options {
                        polling: Some(inc),
                        ..base.clone()
                    };
                    (
                        inc,
                        run_one_with_options(b, o, name, threads).virtual_cycles,
                    )
                })
                .collect();
            LockDesignRow {
                benchmark: name.to_string(),
                blocking,
                polling,
            }
        })
        .collect()
}

crate::json_record! {
    /// One row of the §3.3 thread-pool ablation.
    #[derive(Clone, Debug)]
    pub struct PoolRow {
        pub benchmark: String,
        pub with_pool: u64,
        pub without_pool: u64,
        pub pool_hits: u64,
        pub speedup: f64,
    }
}

/// Thread reuse for fork-join programs: kmeans spawns workers every
/// iteration, so the pool replaces fork cost with an update delta.
pub fn pool_ablation(b: &Bench, threads: usize, benchmarks: &[&str]) -> Vec<PoolRow> {
    benchmarks
        .iter()
        .map(|&name| {
            let with = run_one_with_options(b, Options::consequence_ic(), name, threads);
            let without = run_one_with_options(
                b,
                Options::consequence_ic().without("thread_pool"),
                name,
                threads,
            );
            PoolRow {
                benchmark: name.to_string(),
                with_pool: with.virtual_cycles,
                without_pool: without.virtual_cycles,
                pool_hits: with.report.counters.pool_hits,
                speedup: without.virtual_cycles as f64 / with.virtual_cycles as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_validates_and_reports() {
        let b = Bench::default();
        let m = run_one(&b, RuntimeKind::ConsequenceIc, "histogram", 2);
        assert!(m.validated);
        assert!(m.virtual_cycles > 0);
        assert_eq!(m.runtime, "consequence-ic");
    }

    #[test]
    fn fig13_speedups_are_finite() {
        let b = Bench::default();
        let bars = fig13(&b, 2, &["reverse_index"]);
        assert_eq!(bars.len(), OPTIMIZATIONS.len());
        for bar in bars {
            assert!(bar.speedup.is_finite() && bar.speedup > 0.0);
        }
    }

    #[test]
    fn pool_ablation_reports_hits_for_fork_join() {
        let b = Bench::default();
        let rows = pool_ablation(&b, 2, &["kmeans"]);
        assert!(rows[0].pool_hits > 0, "kmeans must exercise the pool");
        assert!(rows[0].speedup > 0.5);
    }

    #[test]
    fn fig16_lrc_never_exceeds_tso() {
        let b = Bench::default();
        for row in fig16(&b, 2, &["ocean_cp"]) {
            assert!(
                row.lrc_pages <= row.tso_pages,
                "LRC must propagate no more than TSO: {row:?}"
            );
        }
    }
}
