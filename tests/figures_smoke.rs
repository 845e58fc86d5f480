//! Smoke tests for the figure harness: tiny configurations of every figure
//! must produce structurally sane data (the full-resolution data comes from
//! the `figures` binary; see EXPERIMENTS.md).

use dmt_bench::{fig10, fig11, fig12, fig13, fig14, fig15, fig16, Bench, OPTIMIZATIONS};

fn quick() -> Bench {
    Bench {
        pthreads_reps: 1,
        ..Bench::default()
    }
}

#[test]
fn fig10_smoke_rows_are_sane() {
    let rows = fig10(&quick(), &[2], &["histogram", "water_nsquared"]);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        for v in [r.dthreads, r.dwc, r.consequence_rr, r.consequence_ic] {
            assert!(v.is_finite() && v > 0.5, "{r:?}");
        }
    }
    // The headline pathology must appear even at smoke scale: round-robin
    // systems collapse on mismatched sync rates, Consequence-IC does not.
    let wn = rows
        .iter()
        .find(|r| r.benchmark == "water_nsquared")
        .unwrap();
    assert!(
        wn.dthreads > 2.0 * wn.consequence_ic,
        "water_nsquared should separate DThreads from Consequence-IC: {wn:?}"
    );
}

#[test]
fn fig11_smoke_has_all_series() {
    let pts = fig11(&quick(), &[1, 2], &["kmeans"]);
    assert_eq!(pts.len(), 5 * 2);
    assert!(pts.iter().all(|p| p.normalized.is_finite()));
}

#[test]
fn fig12_smoke_peak_pages_positive() {
    let pts = fig12(&quick(), &[2], &["canneal"]);
    assert_eq!(pts.len(), 2);
    assert!(pts.iter().all(|p| p.peak_pages > 0));
}

#[test]
fn fig13_smoke_covers_all_optimizations() {
    let bars = fig13(&quick(), 2, &["kmeans"]);
    assert_eq!(bars.len(), OPTIMIZATIONS.len());
    for bar in &bars {
        assert!(bar.speedup.is_finite() && bar.speedup > 0.2, "{bar:?}");
    }
}

#[test]
fn fig14_smoke_adaptive_and_static_levels() {
    let pts = fig14(&quick(), 2, &["reverse_index"], &[4_096, 262_144]);
    assert_eq!(pts.len(), 3);
    assert_eq!(pts.iter().filter(|p| p.level.is_none()).count(), 1);
    assert!(pts.iter().all(|p| p.virtual_cycles > 0));
}

#[test]
fn fig15_smoke_breakdowns_total_to_runtime() {
    let bars = fig15(&quick(), 2, &["ocean_cp"]);
    assert_eq!(bars.len(), 3);
    for bar in &bars {
        assert!(bar.breakdown.total() > 0, "{bar:?}");
    }
    // The deterministic runtimes must show determinism overhead categories
    // pthreads cannot have.
    let dwc = bars.iter().find(|b| b.runtime == "dwc").unwrap();
    assert!(dwc.breakdown.commit > 0);
    let pt = bars.iter().find(|b| b.runtime == "pthreads").unwrap();
    assert_eq!(pt.breakdown.commit, 0);
}

/// Figure 16 at four threads (`figures --quick fig16`), pinned exactly:
/// `(benchmark, tso_pages, lrc_pages)`. Both counts are functions of the
/// deterministic schedule, so a change that moves one of them has moved a
/// happens-before edge or a commit, and must say which.
#[test]
fn fig16_pins_the_four_thread_table() {
    let pins: [(&str, u64, u64); 12] = [
        ("canneal", 640, 544),
        ("lu_ncb", 8320, 8317),
        ("lu_cb", 8320, 8317),
        ("ocean_cp", 256, 232),
        ("radix", 576, 480),
        ("water_nsquared", 3652, 3649),
        ("water_spatial", 128, 128),
        ("kmeans", 252, 144),
        ("streamcluster", 208, 205),
        ("reverse_index", 30699, 30618),
        ("word_count", 433, 290),
        ("ferret", 4482, 4475),
    ];
    let names: Vec<&str> = pins.iter().map(|p| p.0).collect();
    let rows = fig16(&quick(), 4, &names);
    let got: Vec<(&str, u64, u64)> = rows
        .iter()
        .map(|r| (r.benchmark.as_str(), r.tso_pages, r.lrc_pages))
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn fig16_smoke_lrc_bounded_by_tso() {
    for row in fig16(&quick(), 2, &["radix", "word_count"]) {
        assert!(row.lrc_pages <= row.tso_pages, "{row:?}");
        assert!(row.tso_pages > 0, "{row:?}");
    }
}
