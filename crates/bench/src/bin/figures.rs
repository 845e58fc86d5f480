//! CLI regenerating the paper's figures.
//!
//! ```text
//! cargo run -p dmt-bench --release --bin figures -- all
//! cargo run -p dmt-bench --release --bin figures -- fig10 [--quick]
//! ```
//!
//! Prints the rows/series each figure reports and writes JSON to
//! `target/figures/figN.json`. The `certify` command prints each
//! deterministic runtime's schedule hash (see `docs/DETERMINISM.md`) so
//! recorded experiment runs are self-certifying.

use std::time::Instant;

use dmt_bench::json::ToJson;
use dmt_bench::*;

fn dump<T: ToJson>(name: &str, rows: &T) {
    json::dump("target/figures", name, rows);
}

struct Cfg {
    bench: Bench,
    threads_sweep: Vec<usize>,
    detail_threads: usize,
}

fn cfg(quick: bool) -> Cfg {
    if quick {
        Cfg {
            bench: Bench {
                pthreads_reps: 1,
                ..Bench::default()
            },
            threads_sweep: vec![2, 4],
            detail_threads: 4,
        }
    } else {
        Cfg {
            bench: Bench::default(),
            threads_sweep: vec![1, 2, 4, 8],
            detail_threads: 8,
        }
    }
}

fn fig10_cmd(c: &Cfg) {
    let sweep: Vec<usize> = c
        .threads_sweep
        .iter()
        .copied()
        .filter(|t| *t >= 2)
        .collect();
    println!("== Figure 10: runtime normalized to pthreads (best over {sweep:?} threads)");
    println!(
        "{:<18} {:>9} {:>9} {:>15} {:>15}",
        "benchmark", "dthreads", "dwc", "consequence-rr", "consequence-ic"
    );
    let rows = fig10(&c.bench, &sweep, &ALL_BENCHMARKS);
    for r in &rows {
        println!(
            "{:<18} {:>9.2} {:>9.2} {:>15.2} {:>15.2}",
            r.benchmark, r.dthreads, r.dwc, r.consequence_rr, r.consequence_ic
        );
    }
    let max = |f: fn(&Fig10Row) -> f64| rows.iter().map(f).fold(0.0f64, f64::max);
    println!(
        "max slowdown: dthreads {:.1}x  dwc {:.1}x  cons-rr {:.1}x  cons-ic {:.1}x",
        max(|r| r.dthreads),
        max(|r| r.dwc),
        max(|r| r.consequence_rr),
        max(|r| r.consequence_ic)
    );
    // The paper's headline: mean improvement on the five most challenging
    // programs (those with the highest dthreads slowdown).
    let mut hard: Vec<&Fig10Row> = rows.iter().collect();
    hard.sort_by(|a, b| b.dthreads.total_cmp(&a.dthreads));
    let hard = &hard[..5.min(hard.len())];
    let mean = |f: fn(&Fig10Row) -> f64| hard.iter().map(|r| f(r)).sum::<f64>() / hard.len() as f64;
    println!(
        "five hardest ({}): IC improves {:.1}x over dthreads, {:.1}x over dwc",
        hard.iter()
            .map(|r| r.benchmark.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        mean(|r| r.dthreads) / mean(|r| r.consequence_ic),
        mean(|r| r.dwc) / mean(|r| r.consequence_ic),
    );
    dump("fig10", &rows);
}

fn fig11_cmd(c: &Cfg) {
    let benches = [
        "ocean_cp",
        "lu_ncb",
        "ferret",
        "kmeans",
        "water_nsquared",
        "canneal",
    ];
    println!("== Figure 11: runtime (normalized to 1-thread pthreads) vs thread count");
    let pts = fig11(&c.bench, &c.threads_sweep, &benches);
    for name in benches {
        println!("-- {name}");
        print!("{:<16}", "runtime\\threads");
        for t in &c.threads_sweep {
            print!("{t:>8}");
        }
        println!();
        for kind in [
            "pthreads",
            "dthreads",
            "dwc",
            "consequence-rr",
            "consequence-ic",
        ] {
            print!("{kind:<16}");
            for t in &c.threads_sweep {
                let p = pts
                    .iter()
                    .find(|p| p.benchmark == name && p.runtime == kind && p.threads == *t)
                    .unwrap();
                print!("{:>8.2}", p.normalized);
            }
            println!();
        }
    }
    dump("fig11", &pts);
}

fn fig12_cmd(c: &Cfg) {
    let benches = ["canneal", "lu_ncb", "ocean_cp", "reverse_index"];
    println!("== Figure 12: peak memory (4 KiB pages), Consequence vs DThreads");
    let pts = fig12(&c.bench, &c.threads_sweep, &benches);
    for name in benches {
        println!("-- {name}");
        for kind in ["dthreads", "consequence-ic"] {
            print!("{kind:<16}");
            for t in &c.threads_sweep {
                let p = pts
                    .iter()
                    .find(|p| p.benchmark == name && p.runtime == kind && p.threads == *t)
                    .unwrap();
                print!("{:>9}", p.peak_pages);
            }
            println!();
        }
    }
    dump("fig12", &pts);
}

fn fig13_cmd(c: &Cfg) {
    println!(
        "== Figure 13: speedup of each optimization on the hard benchmarks ({} threads)",
        c.detail_threads
    );
    let bars = fig13(&c.bench, c.detail_threads, &HARD_BENCHMARKS);
    print!("{:<16}", "benchmark");
    for o in OPTIMIZATIONS {
        print!("{o:>19}");
    }
    println!();
    for name in HARD_BENCHMARKS {
        print!("{name:<16}");
        for o in OPTIMIZATIONS {
            let bar = bars
                .iter()
                .find(|x| x.benchmark == name && x.optimization == o)
                .unwrap();
            print!("{:>18.2}x", bar.speedup);
        }
        println!();
    }
    dump("fig13", &bars);
}

fn fig14_cmd(c: &Cfg) {
    let levels = [1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];
    println!(
        "== Figure 14: static coarsening levels vs adaptive ({} threads; virtual Mcycles)",
        c.detail_threads
    );
    let pts = fig14(
        &c.bench,
        c.detail_threads,
        &["reverse_index", "ferret"],
        &levels,
    );
    for name in ["reverse_index", "ferret"] {
        print!("{name:<16}");
        for p in pts.iter().filter(|p| p.benchmark == name) {
            match p.level {
                Some(l) => print!("  {}k:{:.1}", l / 1024, p.virtual_cycles as f64 / 1e6),
                None => print!("  adaptive:{:.1}", p.virtual_cycles as f64 / 1e6),
            }
        }
        println!();
    }
    dump("fig14", &pts);
}

fn fig15_cmd(c: &Cfg) {
    let benches = [
        "string_match",
        "kmeans",
        "ferret",
        "dedup",
        "reverse_index",
        "ocean_cp",
        "lu_cb",
        "lu_ncb",
        "canneal",
        "water_nsquared",
        "water_spatial",
    ];
    println!(
        "== Figure 15: time breakdown (% of total) at {} threads",
        c.detail_threads
    );
    println!(
        "{:<22}{:<16}{:>7}{:>8}{:>8}{:>8}{:>8}{:>7}{:>6}",
        "benchmark", "runtime", "chunk", "dwait", "bwait", "commit", "update", "fault", "lib"
    );
    let bars = fig15(&c.bench, c.detail_threads, &benches);
    for bar in &bars {
        let t = bar.breakdown.total().max(1) as f64;
        let pct = |x: u64| 100.0 * x as f64 / t;
        println!(
            "{:<22}{:<16}{:>6.1}%{:>7.1}%{:>7.1}%{:>7.1}%{:>7.1}%{:>6.1}%{:>5.1}%",
            bar.label,
            bar.runtime,
            pct(bar.breakdown.chunk),
            pct(bar.breakdown.determ_wait),
            pct(bar.breakdown.barrier_wait),
            pct(bar.breakdown.commit),
            pct(bar.breakdown.update),
            pct(bar.breakdown.fault),
            pct(bar.breakdown.lib),
        );
    }
    dump("fig15", &bars);
}

fn fig16_cmd(c: &Cfg) {
    // The paper uses the 12 benchmarks with ≥10K page updates.
    let benches = [
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
    println!(
        "== Figure 16: pages propagated, TSO (Consequence) vs LRC estimate ({} threads)",
        c.detail_threads
    );
    println!(
        "{:<18}{:>12}{:>12}{:>12}",
        "benchmark", "tso", "lrc", "reduction"
    );
    let rows = fig16(&c.bench, c.detail_threads, &benches);
    let mut total_red = 0.0;
    for r in &rows {
        println!(
            "{:<18}{:>12}{:>12}{:>11.0}%",
            r.benchmark,
            r.tso_pages,
            r.lrc_pages,
            100.0 * r.reduction
        );
        total_red += r.reduction;
    }
    println!(
        "mean reduction: {:.0}%",
        100.0 * total_red / rows.len() as f64
    );
    dump("fig16", &rows);
}

fn extras_cmd(c: &Cfg) {
    println!(
        "== Extra ablations (DESIGN.md): overflow sweep, GC budget, thread pool ({} threads)",
        c.detail_threads
    );
    println!("-- §3.2 overflow interval sweep (kmeans): virtual Mcycles / publications");
    let pts = overflow_sweep(
        &c.bench,
        c.detail_threads,
        "kmeans",
        &[500, 2_000, 5_000, 20_000, 100_000, 1_000_000],
    );
    for p in &pts {
        match p.interval {
            Some(iv) => print!(
                "  {iv}:{:.2}M/{}",
                p.virtual_cycles as f64 / 1e6,
                p.publications
            ),
            None => print!(
                "  adaptive:{:.2}M/{}",
                p.virtual_cycles as f64 / 1e6,
                p.publications
            ),
        }
    }
    println!();
    dump("extras_overflow", &pts);

    println!("-- Conversion GC budget sweep (reverse_index): peak pages");
    let pts = gc_sweep(
        &c.bench,
        c.detail_threads,
        "reverse_index",
        &[0, 1, 4, 16, usize::MAX],
    );
    for p in &pts {
        let b = if p.budget == usize::MAX {
            "unbounded".to_string()
        } else {
            p.budget.to_string()
        };
        print!("  budget {b}: {} pages", p.peak_pages);
    }
    println!();
    dump("extras_gc", &pts);

    println!("-- §4.1 blocking vs Kendo-style polling locks (virtual Mcycles)");
    let rows = lock_design(
        &c.bench,
        c.detail_threads,
        &["water_nsquared", "reverse_index"],
        &[100, 1_000, 10_000],
    );
    for r in &rows {
        print!(
            "  {:<16} blocking:{:.1}",
            r.benchmark,
            r.blocking as f64 / 1e6
        );
        for (inc, v) in &r.polling {
            print!("  poll@{inc}:{:.1}", *v as f64 / 1e6);
        }
        println!();
    }
    dump("extras_lockdesign", &rows);

    println!("-- §3.3 thread pool ablation");
    let rows = pool_ablation(&c.bench, c.detail_threads, &["kmeans", "histogram"]);
    for r in &rows {
        println!(
            "  {:<12} with={}M without={}M hits={} speedup={:.2}x",
            r.benchmark,
            r.with_pool / 1_000_000,
            r.without_pool / 1_000_000,
            r.pool_hits,
            r.speedup
        );
    }
    dump("extras_pool", &rows);
}

dmt_bench::json_record! {
    /// One row of the `paper` parity table: a qualitative claim from the
    /// paper's evaluation, re-checked against this reproduction's numbers.
    struct ParityRow {
        figure: String,
        claim: String,
        observed: String,
        pass: bool,
    }
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        sum += x.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (sum / n as f64).exp()
}

/// `figures paper`: the Figure 10–16 parity table. Every row re-runs the
/// corresponding experiment and checks the paper's *qualitative* claim —
/// who wins, in which direction — against this reproduction's
/// deterministic virtual-cycle numbers. Returns false if any claim fails.
fn paper_cmd(c: &Cfg) -> bool {
    println!("== paper: Figure 10-16 parity table (deterministic virtual-cycle numbers)");
    let mut rows: Vec<ParityRow> = Vec::new();
    let mut row = |figure: &str, claim: &str, observed: String, pass: bool| {
        println!(
            "{:<7} {:<58} {:<28} {}",
            figure,
            claim,
            observed,
            if pass { "ok" } else { "FAIL" }
        );
        rows.push(ParityRow {
            figure: figure.into(),
            claim: claim.into(),
            observed,
            pass,
        });
    };
    println!("{:<7} {:<58} {:<28} parity", "figure", "claim", "observed");

    // Figure 10: best-over-threads slowdown vs pthreads, all runtimes.
    let sweep: Vec<usize> = c
        .threads_sweep
        .iter()
        .copied()
        .filter(|t| *t >= 2)
        .collect();
    let f10 = fig10(&c.bench, &sweep, &HARD_BENCHMARKS);
    let g_dt = geomean(f10.iter().map(|r| r.dthreads));
    let g_dwc = geomean(f10.iter().map(|r| r.dwc));
    let g_rr = geomean(f10.iter().map(|r| r.consequence_rr));
    let g_ic = geomean(f10.iter().map(|r| r.consequence_ic));
    row(
        "fig10",
        "Consequence-IC beats DThreads on the hard benchmarks",
        format!("geomean IC {g_ic:.2}x vs DThreads {g_dt:.2}x"),
        g_ic < g_dt,
    );
    row(
        "fig10",
        "Consequence-IC beats DWC on the hard benchmarks",
        format!("geomean IC {g_ic:.2}x vs DWC {g_dwc:.2}x"),
        g_ic < g_dwc,
    );
    row(
        "fig10",
        "IC ordering no worse than RR (geomean, 2% tolerance)",
        format!("geomean IC {g_ic:.2}x vs RR {g_rr:.2}x"),
        g_ic <= 1.02 * g_rr,
    );

    // Figure 11: runtime vs thread count on the scalability-problem set.
    let f11_benches = ["ocean_cp", "lu_ncb", "kmeans", "canneal"];
    let f11 = fig11(&c.bench, &c.threads_sweep, &f11_benches);
    let tmax = *c.threads_sweep.iter().max().unwrap();
    let at = |rt: &str| {
        geomean(
            f11.iter()
                .filter(|p| p.runtime == rt && p.threads == tmax)
                .map(|p| p.normalized),
        )
    };
    let (ic_t, dt_t, dwc_t) = (at("consequence-ic"), at("dthreads"), at("dwc"));
    row(
        "fig11",
        "IC beats DThreads and DWC at the highest thread count",
        format!("@{tmax}t geomean IC {ic_t:.2} DThreads {dt_t:.2} DWC {dwc_t:.2}"),
        ic_t < dt_t && ic_t < dwc_t,
    );

    // Figure 12: peak memory must stay bounded as threads grow — the
    // collector keeps version chains trimmed, so doubling the thread
    // count must not double the page footprint.
    let f12_benches = ["canneal", "lu_ncb", "ocean_cp", "reverse_index"];
    let f12 = fig12(&c.bench, &c.threads_sweep, &f12_benches);
    let tmin = *c.threads_sweep.iter().min().unwrap();
    let pages_at = |t: usize| {
        geomean(
            f12.iter()
                .filter(|p| p.runtime == "consequence-ic" && p.threads == t)
                .map(|p| p.peak_pages as f64),
        )
    };
    let (pg_min, pg_max) = (pages_at(tmin), pages_at(tmax));
    let thread_ratio = tmax as f64 / tmin as f64;
    row(
        "fig12",
        "Consequence peak memory grows sub-linearly with threads",
        format!("geomean pages {pg_min:.0}@{tmin}t -> {pg_max:.0}@{tmax}t"),
        pg_max < thread_ratio * pg_min,
    );

    // Figure 13: the optimizations help where the paper says they do.
    let f13 = fig13(&c.bench, c.detail_threads, &HARD_BENCHMARKS);
    let best_opt = OPTIMIZATIONS
        .iter()
        .map(|o| {
            (
                o,
                geomean(
                    f13.iter()
                        .filter(|b| b.optimization == *o)
                        .map(|b| b.speedup),
                ),
            )
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    row(
        "fig13",
        "at least one optimization speeds up the hard benchmarks",
        format!("best: {} at {:.2}x geomean", best_opt.0, best_opt.1),
        best_opt.1 > 1.0,
    );

    // Figure 14: adaptive coarsening tracks the best static level.
    let levels = [1_024, 16_384, 262_144];
    let f14 = fig14(
        &c.bench,
        c.detail_threads,
        &["reverse_index", "ferret"],
        &levels,
    );
    let mut f14_ok = true;
    let mut f14_obs = String::new();
    for name in ["reverse_index", "ferret"] {
        let best_static = f14
            .iter()
            .filter(|p| p.benchmark == name && p.level.is_some())
            .map(|p| p.virtual_cycles)
            .min()
            .unwrap() as f64;
        let adaptive = f14
            .iter()
            .find(|p| p.benchmark == name && p.level.is_none())
            .unwrap()
            .virtual_cycles as f64;
        f14_ok &= adaptive <= 1.5 * best_static;
        f14_obs.push_str(&format!("{name} {:.2}x ", adaptive / best_static));
    }
    row(
        "fig14",
        "adaptive coarsening within 1.5x of the best static level",
        f14_obs.trim_end().to_string(),
        f14_ok,
    );

    // Figure 15: under Consequence the residual cost is deterministic
    // *waiting*, not the versioned-memory machinery — commit/update
    // overhead must stay a small fraction of where the time goes.
    let f15 = fig15(&c.bench, c.detail_threads, &["kmeans", "reverse_index"]);
    let share = |rt: &str, f: &dyn Fn(&dmt_api::Breakdown) -> u64| {
        let (mut w, mut t) = (0u64, 0u64);
        for b in f15.iter().filter(|b| b.runtime == rt) {
            w += f(&b.breakdown);
            t += b.breakdown.total();
        }
        w as f64 / t.max(1) as f64
    };
    let ic_wait = share("consequence-ic", &|b| b.determ_wait + b.barrier_wait);
    let ic_mem = share("consequence-ic", &|b| b.commit + b.update);
    row(
        "fig15",
        "IC residual cost is waiting, not commit/update machinery",
        format!(
            "share: wait {:.0}% vs commit+update {:.0}%",
            100.0 * ic_wait,
            100.0 * ic_mem
        ),
        ic_wait > ic_mem,
    );

    // Figure 16: the LRC study — TSO propagates more pages than the
    // happens-before lower bound, never fewer.
    let f16_benches = ["canneal", "lu_ncb", "ocean_cp", "kmeans", "word_count"];
    let f16 = fig16(&c.bench, c.detail_threads, &f16_benches);
    let sane = f16.iter().all(|r| r.lrc_pages <= r.tso_pages);
    let mean_red = f16.iter().map(|r| r.reduction).sum::<f64>() / f16.len() as f64;
    row(
        "fig16",
        "LRC estimate never exceeds TSO pages; reduction positive",
        format!("mean reduction {:.0}%", 100.0 * mean_red),
        sane && mean_red > 0.0,
    );

    dump("paper", &rows);
    let ok = rows.iter().all(|r| r.pass);
    if !ok {
        eprintln!("paper parity FAILED: a qualitative claim does not hold on this build");
    }
    ok
}

fn certify_cmd(c: &Cfg) -> bool {
    use dmt_baselines::RuntimeKind;
    println!(
        "== Schedule-hash certification ({} threads; see docs/DETERMINISM.md)",
        c.detail_threads
    );
    println!(
        "{:<16}{:<16}{:>20}{:>10}{:>12}",
        "benchmark", "runtime", "schedule_hash", "events", "reproduces"
    );
    let mut rows = Vec::new();
    let mut ok = true;
    for name in ["histogram", "kmeans", "reverse_index"] {
        for kind in RuntimeKind::ALL {
            let a = run_one_traced(&c.bench, kind, name, c.detail_threads);
            let b = run_one_traced(&c.bench, kind, name, c.detail_threads);
            let reproduces = a.report.schedule_hash == b.report.schedule_hash;
            if !reproduces && kind != RuntimeKind::Pthreads {
                ok = false;
            }
            println!(
                "{:<16}{:<16}{:>#20x}{:>10}{:>12}",
                name,
                kind.label(),
                a.report.schedule_hash,
                a.report.events.total(),
                if reproduces {
                    "yes"
                } else if kind == RuntimeKind::Pthreads {
                    "no (expected)"
                } else {
                    "NO — BUG"
                }
            );
            rows.push(a);
        }
    }
    dump("certify", &rows);
    if !ok {
        eprintln!(
            "certification FAILED: a deterministic runtime's schedule hash \
             varied across repetitions"
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };
    let c = cfg(quick);
    let t0 = Instant::now();
    let mut certified = true;
    for w in which {
        match w {
            "fig10" => fig10_cmd(&c),
            "fig11" => fig11_cmd(&c),
            "fig12" => fig12_cmd(&c),
            "fig13" => fig13_cmd(&c),
            "fig14" => fig14_cmd(&c),
            "fig15" => fig15_cmd(&c),
            "fig16" => fig16_cmd(&c),
            "extras" => extras_cmd(&c),
            "paper" => certified &= paper_cmd(&c),
            "certify" => certified &= certify_cmd(&c),
            "all" => {
                fig10_cmd(&c);
                fig11_cmd(&c);
                fig12_cmd(&c);
                fig13_cmd(&c);
                fig14_cmd(&c);
                fig15_cmd(&c);
                fig16_cmd(&c);
                extras_cmd(&c);
                certified &= certify_cmd(&c);
            }
            other => {
                eprintln!(
                    "unknown figure {other}; use fig10..fig16, extras, paper, certify or all"
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!("total: {:.1}s", t0.elapsed().as_secs_f64());
    // CI gates on this: a deterministic runtime whose schedule hash varies
    // across repetitions must fail the job, not just print.
    if !certified {
        std::process::exit(1);
    }
}
