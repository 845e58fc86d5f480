//! `bench` — runs or checks one of the benchmark artifacts.
//!
//! ```text
//! bench <sched|soak> [--smoke] [--out PATH]   run it, write the JSON artifact
//! bench <sched|soak> --check PATH             validate an existing artifact (CI gate)
//! ```
//!
//! A full run regenerates `BENCH_<name>.json` at the repo root (always use
//! `--release`); `BENCH_soak.json` is committed there as the baseline,
//! while `sched`'s wall-clock rates are one machine's and stay uncommitted.
//! `--smoke` shrinks grids, iteration counts and time budgets for CI.
//! `--check` parses a document with the in-tree JSON parser and applies the
//! artifact's validation rules — see `docs/PERF.md` (`sched`) and
//! `docs/SOAK.md` (`soak`) for the schemas.

use std::process::ExitCode;

use dmt_bench::artifact::{mode_label, Artifact};
use dmt_bench::sched::SchedReport;
use dmt_bench::soak::SoakReport;

type Driver = fn(&[String]) -> Result<(), String>;

const ARTIFACTS: [(&str, Driver); 2] = [
    (SchedReport::NAME, drive::<SchedReport>),
    (SoakReport::NAME, drive::<SoakReport>),
];

fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    format!(
        "usage: bench <{0}> [--smoke] [--out PATH] | bench <{0}> --check PATH",
        names.join("|")
    )
}

/// Runs artifact `A` or checks an emitted copy of it, per `args`.
fn drive<A: Artifact>(args: &[String]) -> Result<(), String> {
    let mut smoke = false;
    let mut out = format!("BENCH_{}.json", A::NAME);
    let mut check = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path = || it.next().cloned().ok_or(format!("{a} requires a path"));
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = path()?,
            "--check" => check = Some(path()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }

    if let Some(path) = check {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        A::validate(&text).map_err(|e| format!("{path}: INVALID: {e}"))?;
        println!("{path}: ok");
        return Ok(());
    }

    eprintln!("running {} bench ({} mode)...", A::NAME, mode_label(smoke));
    let report = A::run(smoke);
    for line in report.summary() {
        eprintln!("{line}");
    }
    let text = report.to_json();
    A::validate(&text).map_err(|e| format!("emitted report failed self-validation: {e}"))?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let artifact = args
        .first()
        .and_then(|name| ARTIFACTS.iter().find(|a| a.0 == name));
    let Some((name, driver)) = artifact else {
        eprintln!("bench: expected an artifact name\n{}", usage());
        return ExitCode::FAILURE;
    };
    match driver(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
