//! `bench sched`: what the scheduler fast path still changes.
//!
//! One experiment, emitted as `BENCH_sched.json` (schema and reading in
//! `docs/PERF.md`): **publish throughput** — the lock-free
//! [`Slots::publish`] path against a reference-kind `Mutex<SchedTable>`,
//! every thread publishing its own monotone clock stream concurrently. This
//! isolates the global-lock cost the fast path removes from the §3.2
//! counter-overflow hot path. Both kinds hand the token off the same way,
//! so there is no hand-off grid (`docs/PERF.md` has its decision record).
//!
//! Wall-clock numbers are machine-dependent; the fast/reference *ratio* is
//! the comparable part, and every cell reports a [`Summary`] over
//! repetitions so noise is visible.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use det_clock::{OrderPolicy, SchedKind, SchedTable, Slots};
use dmt_api::Tid;

use crate::artifact::{cells, find, mode_label, open, positive, Artifact};
use crate::stats::Summary;

/// Publisher counts of the grid.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Format version tag of the emitted document.
pub const SCHEMA: &str = "bench-sched/2";

crate::json_record! {
    /// One publish-throughput cell: lock-free slots vs mutex-wrapped reference
    /// table at a fixed publisher count.
    #[derive(Clone, Debug)]
    pub struct PublishCell {
        /// Concurrent publishing threads.
        pub threads: usize,
        /// Lock-free path, publications per second summed over threads.
        pub fast_pub_per_s: f64,
        /// Global-mutex reference path, publications per second.
        pub ref_pub_per_s: f64,
        /// `fast_pub_per_s / ref_pub_per_s`.
        pub speedup: f64,
        /// Per-rep spread of the fast path.
        pub fast_summary: Summary,
        /// Per-rep spread of the reference path.
        pub ref_summary: Summary,
    }
}

crate::json_record! {
    /// The complete `bench sched` artifact.
    #[derive(Clone, Debug)]
    pub struct SchedReport {
        /// Format tag ([`SCHEMA`]).
        pub schema: String,
        /// `"full"` or `"smoke"`.
        pub mode: String,
        /// Publish-throughput cells, one per count in [`THREADS`].
        pub publish: Vec<PublishCell>,
    }
}

// ---------------------------------------------------- publish throughput

/// Times `iters` publications per thread through the lock-free slots.
fn time_fast_publish(threads: usize, iters: u64) -> f64 {
    let slots = Slots::new(threads);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let slots = Arc::clone(&slots);
            s.spawn(move || {
                let tid = Tid(t as u32);
                for i in 0..iters {
                    std::hint::black_box(slots.publish(tid, i + 1, i));
                }
            });
        }
    });
    (threads as u64 * iters) as f64 / start.elapsed().as_secs_f64()
}

/// Times the same publication stream through the reference table behind
/// one global mutex — the structure the fast path replaces.
fn time_ref_publish(threads: usize, iters: u64) -> f64 {
    let table = Mutex::new(SchedTable::new(
        SchedKind::Reference,
        OrderPolicy::InstructionCount,
        Slots::new(threads),
    ));
    {
        let mut t = table.lock().unwrap();
        for i in 0..threads {
            t.register(Tid(i as u32), 0, 0);
        }
    }
    let table = &table;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let tid = Tid(t as u32);
                for i in 0..iters {
                    std::hint::black_box(table.lock().unwrap().publish(tid, i + 1, i));
                }
            });
        }
    });
    (threads as u64 * iters) as f64 / start.elapsed().as_secs_f64()
}

/// Measures both publication paths at each count in [`THREADS`].
pub fn run_publish_bench(smoke: bool) -> Vec<PublishCell> {
    let reps = if smoke { 2 } else { 5 };
    let iters: u64 = if smoke { 5_000 } else { 100_000 };
    THREADS
        .iter()
        .map(|&threads| {
            // Warm-up rep for each path, then measured reps.
            let _ = time_fast_publish(threads, iters);
            let fast: Vec<f64> = (0..reps)
                .map(|_| time_fast_publish(threads, iters))
                .collect();
            let _ = time_ref_publish(threads, iters);
            let refr: Vec<f64> = (0..reps)
                .map(|_| time_ref_publish(threads, iters))
                .collect();
            let fast_s = Summary::of(&fast);
            let ref_s = Summary::of(&refr);
            PublishCell {
                threads,
                fast_pub_per_s: fast_s.mean,
                ref_pub_per_s: ref_s.mean,
                speedup: if ref_s.mean > 0.0 {
                    fast_s.mean / ref_s.mean
                } else {
                    0.0
                },
                fast_summary: fast_s,
                ref_summary: ref_s,
            }
        })
        .collect()
}

impl Artifact for SchedReport {
    const NAME: &'static str = "sched";

    /// Runs every experiment and assembles the artifact.
    fn run(smoke: bool) -> SchedReport {
        SchedReport {
            schema: SCHEMA.to_string(),
            mode: mode_label(smoke),
            publish: run_publish_bench(smoke),
        }
    }

    fn summary(&self) -> Vec<String> {
        let line = |c: &PublishCell| {
            format!(
                "publish t={}: fast {:>11.0} pub/s  ref {:>11.0} pub/s  speedup {:.2}x",
                c.threads, c.fast_pub_per_s, c.ref_pub_per_s, c.speedup
            )
        };
        self.publish.iter().map(line).collect()
    }

    /// An emitted `BENCH_sched.json` must parse, carry the current schema
    /// tag and contain every grid cell with positive numbers.
    fn validate(text: &str) -> Result<(), String> {
        let v = open(text, SCHEMA)?;
        let publish = cells(&v, "publish")?;
        for &t in &THREADS {
            let cell = find(publish, "publish", &[("threads", t)])?;
            positive(
                cell,
                &format!("publish cell t={t}"),
                &["fast_pub_per_s", "ref_pub_per_s", "speedup"],
            )?;
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
        let r = SchedReport::run(true);
        SchedReport::validate(&r.to_json()).expect("smoke artifact validates");
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(SchedReport::validate("not json").is_err());
        assert!(SchedReport::validate("{}").is_err());
        assert!(SchedReport::validate(r#"{"schema":"bench-sched/2"}"#).is_err());
        // The schema before the hand-off grid went.
        let old = stub_report().to_json().replace(SCHEMA, "bench-sched/1");
        assert!(SchedReport::validate(&old).is_err());
        let mut r = stub_report();
        r.publish.pop();
        assert!(SchedReport::validate(&r.to_json()).is_err());
        let mut r = stub_report();
        r.publish[0].ref_pub_per_s = 0.0;
        assert!(SchedReport::validate(&r.to_json())
            .unwrap_err()
            .contains("publish cell t=1"));
        SchedReport::validate(&stub_report().to_json()).expect("the stub itself validates");
    }

    /// A structurally complete report with fabricated numbers (no timing),
    /// for validation tests that must stay fast.
    fn stub_report() -> SchedReport {
        let publish = THREADS
            .iter()
            .map(|&t| PublishCell {
                threads: t,
                fast_pub_per_s: 2.0,
                ref_pub_per_s: 1.0,
                speedup: 2.0,
                fast_summary: Summary::of(&[2.0]),
                ref_summary: Summary::of(&[1.0]),
            })
            .collect();
        SchedReport {
            schema: SCHEMA.to_string(),
            mode: "stub".to_string(),
            publish,
        }
    }
}
