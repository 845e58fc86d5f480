//! `e2e`: the repository's end-to-end benchmark. See README.md beside
//! this package for every metric, workload and the method; BENCHMARK.json
//! at the repository root is the contract an outside driver reads.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1     one measurement run
//! e2e run [--seed N] [--seconds S] [--smoke] [--workload NAME]
//!         [--out FILE] [--spans FILE]                      a set: all workloads, both kinds of run
//! e2e check FILE                                           validate a set written by `run`
//! e2e compare OLD.json NEW.json                            judge NEW against OLD
//! ```

mod calib;
mod measure;
mod pin;
mod probes;
mod report;
mod stats;
mod timed_ctx;
mod workloads;

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use measure::{end_to_end, per_layer, Plan};
use report::WorkloadResult;
use workloads::{spec_by_name, Spec, SPECS};

/// A scratch directory beside the executable — inside the build tree, so
/// the benchmark never writes outside its checkout — removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create() -> TempDir {
        // Unique per process and, for the unit tests, per use within one.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let exe = std::env::current_exe().expect("locate the running executable");
        let dir = exe
            .parent()
            .expect("an executable lives in a directory")
            .join(format!("e2e-tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create scratch directory {}: {e}", dir.display()));
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USAGE: &str = "usage:
  e2e --workload NAME --seed N --seconds S --trace 0|1
  e2e run [--seed N] [--seconds S] [--smoke] [--workload NAME] [--out FILE] [--spans FILE]
  e2e check FILE
  e2e compare OLD.json NEW.json";

/// Parsed `--flag value` pairs and bare `--smoke`.
#[derive(Default)]
struct Flags {
    workload: Option<&'static Spec>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                f.workload = Some(spec_by_name(v).ok_or_else(|| {
                    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    format!(
                        "unknown workload {v:?}; the workloads are {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => f.seed = Some(v.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = v.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => f.out = Some(PathBuf::from(v)),
            "--spans" => f.spans = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One measurement run in the outside driver's protocol: the last line of
/// standard output is the result object.
fn driver_run(f: &Flags) -> Result<ExitCode, String> {
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) =
        (f.workload, f.seed, f.seconds, f.trace)
    else {
        return Err("a measurement run needs --workload, --seed, --seconds and --trace".into());
    };
    if f.smoke || f.out.is_some() || f.spans.is_some() {
        return Err("--smoke, --out and --spans belong to `e2e run`".into());
    }
    let plan = Plan {
        seed,
        seconds,
        smoke: false,
        keep_spans: false,
    };
    let tmp = TempDir::create();
    let outcome = if trace {
        // The driver wants every per-layer name from every traced run, so
        // here the probes ride along with each workload.
        let mut o = per_layer(spec, &plan, tmp.path());
        o.metrics.extend(probes::run_all(tmp.path()));
        o
    } else {
        end_to_end(spec, &plan, tmp.path())
    };
    for why in &outcome.failures {
        eprintln!("{}: failed repetition: {why}", spec.name);
    }
    println!("{}", report::result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// End-to-end runs of each workload in a set written by `e2e run`: enough
/// for the set to know the quartile spread of its own runs.
const SET_RUNS: usize = 5;

/// How long each of those runs measures unless `--seconds` says otherwise:
/// BENCHMARK.json's `run_seconds`. Shorter runs spread too far apart on
/// the evaluation host for `compare` to resolve anything (README, "Noise").
const SET_SECONDS: f64 = 15.0;

/// `e2e run`: a set — several end-to-end runs and one per-layer run of
/// every (or one) workload — listed and optionally written out.
fn run_set(f: &Flags) -> Result<ExitCode, String> {
    if f.trace.is_some() {
        return Err("`e2e run` does both kinds of run; --trace is for a single one".into());
    }
    let plan = Plan {
        seed: f.seed.unwrap_or(42),
        seconds: f.seconds.unwrap_or(SET_SECONDS),
        smoke: f.smoke,
        keep_spans: f.spans.is_some(),
    };
    let runs = if f.smoke { 1 } else { SET_RUNS };
    let specs: Vec<&Spec> = SPECS
        .iter()
        .filter(|s| f.workload.is_none_or(|only| only.name == s.name))
        .collect();
    let tmp = TempDir::create();
    // Run k of every workload before run k+1 of any: the host's speed
    // drifts over seconds, and this way the drift lands inside each
    // workload's run-to-run spread instead of between workloads.
    let mut end_to_end_runs: Vec<Vec<_>> = specs.iter().map(|_| Vec::new()).collect();
    for k in 0..runs {
        for (spec, done) in specs.iter().zip(&mut end_to_end_runs) {
            eprintln!("e2e: {} end-to-end run {}/{runs}", spec.name, k + 1);
            done.push(end_to_end(spec, &plan, tmp.path()));
        }
    }
    let mut spans_file = match &f.spans {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
            Some((BufWriter::new(file), path))
        }
        None => None,
    };
    let mut results = Vec::new();
    for (spec, end_to_end) in specs.iter().zip(end_to_end_runs) {
        eprintln!("e2e: {} per-layer run", spec.name);
        let mut per_layer = per_layer(spec, &plan, tmp.path());
        if let Some((file, path)) = &mut spans_file {
            report::spans_jsonl(spec.name, &std::mem::take(&mut per_layer.spans), file)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        results.push(WorkloadResult {
            spec,
            end_to_end,
            per_layer,
        });
    }
    if let Some((mut file, path)) = spans_file {
        file.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // The probes measure layers, not workloads: once per set.
    let probes = if plan.smoke {
        Vec::new()
    } else {
        eprintln!("e2e: layer probes");
        probes::run_all(tmp.path())
    };
    print!("{}", report::listing(&results, &probes));
    if let Some(path) = &f.out {
        write(path, &report::set_json(&plan, &results, &probes))?;
    }
    let failed: u64 = results.iter().map(WorkloadResult::failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: {failed} repetition(s) failed");
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_set(&parse_flags(&args[1..])?),
        Some("check") => match &args[1..] {
            [file] => {
                report::check(&read(file)?)?;
                println!("{file}: ok");
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("check takes one file".into()),
        },
        Some("compare") => match &args[1..] {
            [old, new] => {
                let (table, pass) = report::compare(&read(old)?, &read(new)?)?;
                print!("{table}");
                Ok(if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            _ => Err("compare takes two files".into()),
        },
        Some(flag) if flag.starts_with("--") => driver_run(&parse_flags(args)?),
        _ => Err("no command".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Before any thread exists: every measurement runs on one processor
    // (pin.rs says why).
    if pin::confine_to_one_cpu().is_none() {
        eprintln!("e2e: could not confine the process to one processor; times will be noisier");
    }
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("e2e: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_are_checked_where_they_enter() {
        let f = parse_flags(&args(
            "--workload kv_server --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload.unwrap().name, "kv_server");
        assert_eq!(
            (f.seed, f.seconds, f.trace),
            (Some(7), Some(2.5), Some(true))
        );
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--seconds inf",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
        assert!(dispatch(&args("--workload kv_server --seed 1")).is_err());
        assert!(dispatch(&args("check")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    /// BENCHMARK.json is written by hand; this keeps it saying what the
    /// harness does: the same workloads, the same end-to-end metrics with
    /// the bounds `compare` applies, and exactly the per-layer names and
    /// units a traced run prints.
    #[test]
    fn benchmark_json_describes_this_harness() {
        use dmt_bench::jsonparse::{parse, Value};
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        assert_eq!(list("paths"), [Value::Str("e2e".into())]);
        assert!(list("command").contains(&Value::Str("e2e/Cargo.toml".into())));

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);

        let plan = Plan {
            seed: 1,
            seconds: 0.05,
            smoke: false,
            keep_spans: false,
        };
        let spec = spec_by_name("compute_bound").unwrap();
        let tmp = TempDir::create();
        let names_units = |o: &measure::Outcome| -> Vec<(String, String)> {
            assert_eq!(o.failures, Vec::<String>::new());
            o.metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect()
        };
        let declared = |key: &str| -> Vec<(String, String)> {
            list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        assert_eq!(
            declared("end_to_end"),
            names_units(&end_to_end(spec, &plan, tmp.path()))
        );
        // As a traced driver run prints them: the workload's own metrics,
        // then the probes (this is also the one test that runs the probes).
        let mut traced = per_layer(spec, &plan, tmp.path());
        traced.metrics.extend(probes::run_all(tmp.path()));
        assert_eq!(declared("per_layer"), names_units(&traced));

        for (m, def) in list("end_to_end").iter().zip(&report::END_TO_END) {
            assert_eq!(text(m, "name"), def.name);
            assert_eq!(text(m, "unit"), def.unit);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(m, "better"), better, "{}", def.name);
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(def.bound));
        }
    }

    #[test]
    fn the_scratch_directory_goes_away() {
        let path = {
            let t = TempDir::create();
            assert!(t.path().is_dir());
            t.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
