//! `bench` — runs or checks the soak artifact.
//!
//! ```text
//! bench soak [--smoke] [--out PATH]   run it, write the JSON artifact
//! bench soak --check PATH             validate an existing artifact (CI gate)
//! ```
//!
//! A full run regenerates the committed baseline `BENCH_soak.json` at the
//! repo root (always use `--release`). `--smoke` shrinks the grid and time
//! budgets for CI. `--check` parses a document with the in-tree JSON parser
//! and applies the soak's validation rules — see `docs/SOAK.md` for the
//! schema.

use std::process::ExitCode;

use dmt_bench::json::ToJson;
use dmt_bench::soak::SoakReport;

const USAGE: &str = "usage: bench soak [--smoke] [--out PATH] | bench soak --check PATH";

/// Runs the soak or checks an emitted copy of it, per `args`.
fn drive(args: &[String]) -> Result<(), String> {
    let mut smoke = false;
    let mut out = "BENCH_soak.json".to_string();
    let mut check = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path = || it.next().cloned().ok_or(format!("{a} requires a path"));
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = path()?,
            "--check" => check = Some(path()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    if let Some(path) = check {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        SoakReport::validate(&text).map_err(|e| format!("{path}: INVALID: {e}"))?;
        println!("{path}: ok");
        return Ok(());
    }

    let mode = if smoke { "smoke" } else { "full" };
    eprintln!("running soak bench ({mode} mode)...");
    let report = SoakReport::run(smoke);
    for line in report.summary() {
        eprintln!("{line}");
    }
    let text = report.to_json();
    SoakReport::validate(&text)
        .map_err(|e| format!("emitted report failed self-validation: {e}"))?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) != Some("soak") {
        eprintln!("bench: expected `soak`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    match drive(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench soak: {e}");
            ExitCode::FAILURE
        }
    }
}
