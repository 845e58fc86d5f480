//! `bench sched`: what a clock publication costs under the runtime lock.
//!
//! One experiment, emitted as `BENCH_sched.json` (schema and reading in
//! `docs/PERF.md`): **publish throughput** — every thread publishing its
//! own monotone clock stream into one `Mutex<SchedTable>`, the lock
//! section the §3.2 counter-overflow path takes. It isolates what a
//! publication costs, and what publishers contending for the lock cost,
//! from everything else `e2e`'s `clock_publish` measures: the number a
//! lock-free publication path would have to beat (`docs/PERF.md` has the
//! decision record of the one that did not).
//!
//! Wall-clock numbers are machine-dependent, so the artifact is not
//! committed; every cell reports a [`Summary`] over repetitions so noise is
//! visible.

use std::sync::Mutex;
use std::time::Instant;

use det_clock::{OrderPolicy, SchedTable};
use dmt_api::Tid;

use crate::artifact::{cells, find, mode_label, open, positive, Artifact};
use crate::stats::Summary;

/// Publisher counts of the grid.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Format version tag of the emitted document.
pub const SCHEMA: &str = "bench-sched/3";

crate::json_record! {
    /// One publish-throughput cell at a fixed publisher count.
    #[derive(Clone, Debug)]
    pub struct PublishCell {
        /// Concurrent publishing threads.
        pub threads: usize,
        /// Publications per second summed over threads (mean over reps).
        pub pub_per_s: f64,
        /// Per-rep spread.
        pub summary: Summary,
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

/// Times `iters` publications per thread through one locked table.
fn time_publish(threads: usize, iters: u64) -> f64 {
    let mut table = SchedTable::with_policy(OrderPolicy::InstructionCount, threads);
    for i in 0..threads {
        table.register(Tid(i as u32), 0, 0);
    }
    let table = &Mutex::new(table);
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

/// Measures publication at each count in [`THREADS`].
pub fn run_publish_bench(smoke: bool) -> Vec<PublishCell> {
    let reps = if smoke { 2 } else { 5 };
    let iters: u64 = if smoke { 5_000 } else { 100_000 };
    THREADS
        .iter()
        .map(|&threads| {
            // One warm-up rep, then the measured reps.
            let _ = time_publish(threads, iters);
            let runs: Vec<f64> = (0..reps).map(|_| time_publish(threads, iters)).collect();
            let summary = Summary::of(&runs);
            PublishCell {
                threads,
                pub_per_s: summary.mean,
                summary,
            }
        })
        .collect()
}

impl Artifact for SchedReport {
    const NAME: &'static str = "sched";

    fn run(smoke: bool) -> SchedReport {
        SchedReport {
            schema: SCHEMA.to_string(),
            mode: mode_label(smoke),
            publish: run_publish_bench(smoke),
        }
    }

    fn summary(&self) -> Vec<String> {
        let line =
            |c: &PublishCell| format!("publish t={}: {:>11.0} pub/s", c.threads, c.pub_per_s);
        self.publish.iter().map(line).collect()
    }

    /// An emitted `BENCH_sched.json` must parse, carry the current schema
    /// tag and contain every grid cell with a positive rate.
    fn validate(text: &str) -> Result<(), String> {
        let v = open(text, SCHEMA)?;
        let publish = cells(&v, "publish")?;
        for &t in &THREADS {
            let cell = find(publish, "publish", &[("threads", t)])?;
            positive(cell, &format!("publish cell t={t}"), &["pub_per_s"])?;
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
        assert!(SchedReport::validate(r#"{"schema":"bench-sched/3"}"#).is_err());
        // The schema of the two-path grid, before the lock-free path went.
        let old = stub_report().to_json().replace(SCHEMA, "bench-sched/2");
        assert!(SchedReport::validate(&old).is_err());
        let mut r = stub_report();
        r.publish.pop();
        assert!(SchedReport::validate(&r.to_json()).is_err());
        let mut r = stub_report();
        r.publish[0].pub_per_s = 0.0;
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
                pub_per_s: 1.0,
                summary: Summary::of(&[1.0]),
            })
            .collect();
        SchedReport {
            schema: SCHEMA.to_string(),
            mode: "stub".to_string(),
            publish,
        }
    }
}
