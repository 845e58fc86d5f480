//! The seven benchmark workloads and the single-repetition runner.
//!
//! A workload is a closed-loop program from `dmt_workloads` run with two
//! worker threads (= the cores of the evaluation host) in one process; no
//! other load generator exists. A repetition builds a fresh runtime,
//! generates the program's input from the seed, runs it once and validates
//! the result — `Runtime::run` may be called only once per runtime, so
//! set-up is paid, and measured, on every repetition.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use consequence::Options;
use dmt_api::{CommonConfig, PerturbHandle, RunReport, TraceHandle};
use dmt_baselines::{make_runtime, RuntimeKind};
use dmt_bench::replay::ident_meta;
use dmt_trace::{DiskSink, TraceMeta};
use dmt_workloads::server::ServerSpec;
use dmt_workloads::{workload_by_name, Params};

use crate::stats::process_cpu_s;
use crate::timed_ctx::{wrap_job, Collector};

/// Worker threads of every workload: one per core of the 2-core host, so
/// nothing but the program's own threads contends for a processor.
pub const THREADS: usize = 2;

/// One benchmark workload.
pub struct Spec {
    /// Name in `BENCHMARK.json` and every report.
    pub name: &'static str,
    /// The `dmt_workloads` program it runs.
    pub program: &'static str,
    /// `Params::scale` of a full (non-smoke) run.
    pub scale: u32,
    /// Run with a durable `DiskSink` attached and count its `finish`.
    pub recorded: bool,
    /// Why the workload is in the set (one line, also in BENCHMARK.json).
    pub why: &'static str,
}

/// The workload set. Each stresses a different layer, and for each layer
/// one workload exercises it and another bypasses it (see README.md).
pub static SPECS: [Spec; 7] = [
    Spec {
        name: "kv_server",
        program: "dmt_server",
        scale: 4,
        recorded: false,
        why: "KV requests through a worker pool: 40k token grants, 26k locks, 7.7k cond waits, \
              0.5 page per commit; 98% of thread time in sync calls: token path and handoff",
    },
    Spec {
        name: "kv_server_recorded",
        program: "dmt_server",
        scale: 4,
        recorded: true,
        why: "same schedule with a durable DiskSink attached: the only workload where \
              dmt-trace works; guards against moving cost into event emission",
    },
    Spec {
        name: "fine_locks",
        program: "reverse_index",
        scale: 4,
        recorded: false,
        why: "33k bucket locks coarsened into 6.6k grants, 34k pages committed and 68k \
              propagated: adaptive coarsening under fine-grained locking (paper Fig. 14)",
    },
    Spec {
        name: "barrier_merge",
        program: "lu_ncb",
        scale: 8,
        recorded: false,
        why: "510 barriers, 16k of 16k committed pages conflict and are byte-merged inside the \
              parallel barrier commit, 33k CoW faults: the vmem merge path",
    },
    Spec {
        name: "barrier_clean",
        program: "lu_cb",
        scale: 8,
        recorded: false,
        why: "same barrier structure and page volume with zero merges: catches a merge or \
              pipeline change that taxes the clean-commit path",
    },
    Spec {
        name: "clock_publish",
        program: "water_nsquared",
        scale: 8,
        recorded: false,
        why: "125k lock acquires coarsened into 2.4k grants with 250k clock publications and \
              <5k pages: det-clock publication apart from vmem; the one user of the settle pool",
    },
    Spec {
        name: "compute_bound",
        program: "matrix_multiply",
        scale: 8,
        recorded: false,
        why: "9 token grants, millions of reads: the bypass workload; sync and commit \
              optimisations predict no change, only the per-access path can move it",
    },
];

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Input parameters: the seed reaches the program only through these.
    pub fn params(&self, seed: u64, smoke: bool) -> Params {
        Params::new(THREADS, if smoke { 1 } else { self.scale }, seed)
    }

    /// Operations one run completes: requests served for the server
    /// workloads, synchronization operations otherwise (spawns included,
    /// so that the fork-join-only `compute_bound` does not count zero). A
    /// fixed count per `(workload, seed)` under a deterministic runtime.
    pub fn ops(&self, p: &Params, report: &RunReport) -> u64 {
        if self.program == "dmt_server" {
            ServerSpec::of(p).requests as u64
        } else {
            let c = &report.counters;
            c.lock_acquires + c.barrier_waits + c.cond_waits + c.spawns
        }
    }
}

/// What the trace sink of a recorded repetition wrote.
#[derive(Clone, Copy, Debug)]
pub struct Recording {
    pub events: u64,
    pub file_bytes: u64,
}

/// One finished repetition.
pub struct Rep {
    /// Build the runtime (and sink), generate the input, `prepare`.
    pub setup_s: f64,
    /// The `Workload::prepare` part of `setup_s`.
    pub prepare_s: f64,
    /// `RunReport::wall`, plus `DiskSink::finish` when recorded.
    pub wall_s: f64,
    /// Process user+sys CPU over the same interval(s) as `wall_s`.
    pub cpu_s: f64,
    pub validate_s: f64,
    pub report: RunReport,
    pub output_hash: u64,
    pub recording: Option<Recording>,
    /// Why the repetition failed, if it did. A failed repetition is
    /// counted and kept, never dropped.
    pub failure: Option<String>,
}

impl Rep {
    /// Fails this repetition if its committed-memory history or output
    /// differs from `reference` (same workload, same seed): the runtime
    /// promises both are pure functions of the input.
    pub fn must_match(&mut self, reference: &Rep, what: &str) {
        if self.failure.is_some() {
            return;
        }
        if self.report.commit_log_hash != reference.report.commit_log_hash {
            self.failure = Some(format!(
                "commit log {:#x} differs from the {what} run's {:#x}",
                self.report.commit_log_hash, reference.report.commit_log_hash
            ));
        } else if self.output_hash != reference.output_hash {
            self.failure = Some(format!(
                "output {:#x} differs from the {what} run's {:#x}",
                self.output_hash, reference.output_hash
            ));
        }
    }
}

/// Runs one repetition of `spec`'s program with input `p` under `kind`.
///
/// `record_to`: attach a durable [`DiskSink`] writing this file (deleted
/// again before returning), wired through `CommonConfig::trace` exactly as
/// `dmt_bench::replay::record_to` does. `tracer`: run every thread against
/// a `TimedCtx` reporting to this collector.
pub fn run_rep(
    spec: &Spec,
    p: &Params,
    kind: RuntimeKind,
    record_to: Option<&Path>,
    tracer: Option<&Arc<Collector>>,
) -> Rep {
    let w = workload_by_name(spec.program).expect("SPECS names only registered programs");

    let t0 = Instant::now();
    let mut cfg = CommonConfig {
        heap_pages: w.heap_pages(p),
        ..CommonConfig::default()
    };
    let sink = record_to.map(|path| {
        let opts = Options::consequence_ic();
        let ident = ident_meta(
            kind.label(),
            spec.program,
            p.threads,
            p.scale,
            p.seed,
            cfg.heap_pages,
            cfg.max_threads,
            opts.fingerprint(),
            &PerturbHandle::off(),
        );
        let sink = DiskSink::create_durable(path, &ident, opts.trace_flush_pages)
            .unwrap_or_else(|e| panic!("create trace file {}: {e}", path.display()));
        (Arc::new(sink), ident, path)
    });
    if let Some((sink, ..)) = &sink {
        cfg.trace = TraceHandle::to(Arc::clone(sink) as _);
    }
    let mut rt = make_runtime(kind, cfg);
    let t1 = Instant::now();
    let prepared = w.prepare(rt.as_mut(), p);
    let t2 = Instant::now();

    let job = match tracer {
        Some(col) => wrap_job(prepared.job, Arc::clone(col)),
        None => prepared.job,
    };
    let cpu0 = process_cpu_s();
    let report = rt.run(job);
    let mut cpu_s = process_cpu_s() - cpu0;
    let mut wall_s = report.wall.as_secs_f64();

    let tv = Instant::now();
    let v = (prepared.validate)(rt.as_ref());
    let validate_s = tv.elapsed().as_secs_f64();

    let mut failure = if !v.matches_reference {
        Some("output differs from the sequential reference".to_string())
    } else if let Some(f) = &report.fault {
        Some(format!("run fault: {f}"))
    } else if let Some((tid, msg)) = report.panics.first() {
        Some(format!("thread {tid} panicked: {msg}"))
    } else if report.degraded {
        Some("scheduler failed over to the reference table".to_string())
    } else {
        None
    };

    let mut recording = None;
    if let Some((sink, ident, path)) = sink {
        let meta = TraceMeta {
            commit_log_hash: report.commit_log_hash,
            output_hash: v.output_hash,
            ..ident
        };
        let (tf, cpu1) = (Instant::now(), process_cpu_s());
        let finished = sink.finish(meta);
        wall_s += tf.elapsed().as_secs_f64();
        cpu_s += process_cpu_s() - cpu1;
        match finished {
            Ok(meta) => {
                recording = Some(Recording {
                    events: meta.event_count,
                    file_bytes: std::fs::metadata(path).map_or(0, |m| m.len()),
                })
            }
            Err(e) => failure = failure.or(Some(format!("trace sink: {e}"))),
        }
        // Best effort: the whole temp directory is removed at exit anyway.
        let _ = std::fs::remove_file(path);
    }

    Rep {
        setup_s: (t2 - t0).as_secs_f64(),
        prepare_s: (t2 - t1).as_secs_f64(),
        wall_s,
        cpu_s,
        validate_s,
        report,
        output_hash: v.output_hash,
        recording,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_names_a_registered_program_and_is_unique() {
        for (i, s) in SPECS.iter().enumerate() {
            assert!(workload_by_name(s.program).is_some(), "{}", s.program);
            assert!(SPECS[..i].iter().all(|o| o.name != s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'));
            assert_eq!(spec_by_name(s.name).unwrap().name, s.name);
        }
        assert!(spec_by_name("nope").is_none());
    }

    #[test]
    fn a_smoke_rep_validates_and_repeats_bit_for_bit() {
        let spec = spec_by_name("fine_locks").unwrap();
        let p = spec.params(7, true);
        let a = run_rep(spec, &p, RuntimeKind::ConsequenceIc, None, None);
        assert_eq!(a.failure, None);
        assert!(a.wall_s > 0.0 && a.setup_s >= a.prepare_s);
        assert!(spec.ops(&p, &a.report) > 0);

        // The decorator must be schedule-neutral.
        let col = Collector::new(false);
        let mut b = run_rep(spec, &p, RuntimeKind::ConsequenceIc, None, Some(&col));
        b.must_match(&a, "untraced");
        assert_eq!(b.failure, None);
        assert_eq!(col.take().threads.len(), THREADS + 1);

        // Another input is another history: must_match has teeth.
        let mut c = run_rep(
            spec,
            &spec.params(8, true),
            RuntimeKind::ConsequenceIc,
            None,
            None,
        );
        c.must_match(&a, "seed-7");
        assert!(c.failure.unwrap().contains("differs from the seed-7 run"));
    }

    #[test]
    fn a_recorded_rep_matches_the_plain_run_and_reports_its_file() {
        let spec = spec_by_name("kv_server_recorded").unwrap();
        let p = spec.params(3, true);
        let plain = run_rep(spec, &p, RuntimeKind::ConsequenceIc, None, None);
        let tmp = crate::TempDir::create();
        let path = tmp.path().join("rec.dmtrace");
        let mut rec = run_rep(spec, &p, RuntimeKind::ConsequenceIc, Some(&path), None);
        rec.must_match(&plain, "plain");
        assert_eq!(rec.failure, None);
        let r = rec.recording.unwrap();
        assert!(r.events > 0 && r.file_bytes > 0);
        assert!(!path.exists(), "the trace file is removed after the rep");
        assert_eq!(spec.ops(&p, &rec.report), 2000);
    }
}
