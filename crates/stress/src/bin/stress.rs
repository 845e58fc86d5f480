//! Differential fuzzing CLI for the determinism contract.
//!
//! ```text
//! cargo run -p dmt-stress --release --bin stress -- [MODE] [CONFIGURATION]
//! ```
//!
//! [`MODES`] is the list of what it can do — flag, value, one-line
//! description, handler — and the usage text (printed on any argument
//! error) and `docs/STRESS.md`'s command block are that table. A mode
//! exits 0 when every oracle it checks held and 1 otherwise, with one
//! inversion: `--inject-bug` *must* catch the bug it plants, and exits 1
//! when it did. JSON reports land in `target/stress/`.

use std::path::Path;

use dmt_bench::json::dump;
use dmt_bench::replay::{record_all, replay_all};
use dmt_stress::report::{table, verdict};
use dmt_stress::{
    run_chaos_child, run_inject_bug, run_matrix, run_mixed_matrix, run_option_diff,
    run_panic_inject, run_shard_diff, run_trace_chaos, StressConfig, SCHED_DIFF,
};

/// One thing `stress` can do.
struct Mode {
    flag: &'static str,
    /// What the flag's value is, for the flags that take one.
    value: Option<&'static str>,
    doc: &'static str,
    /// Runs the mode; `true` exits 0.
    run: fn(&Invocation) -> bool,
}

const MODES: [Mode; 10] = [
    Mode {
        flag: "--smoke",
        value: None,
        doc: "differential matrix, CI size: 3 workloads x 5 runtimes x 8 seeds, 4 threads (the default)",
        run: matrix,
    },
    Mode {
        flag: "--deep",
        value: None,
        doc: "differential matrix, overnight size: 8 workloads x 5 runtimes x 16 seeds, 8 threads",
        run: matrix,
    },
    Mode {
        flag: "--sched-diff",
        value: None,
        doc: "A/B differential: fast vs reference scheduler agree on schedule, output, commit log",
        run: |i| table("sched_diff", |p| run_option_diff(&i.cfg, SCHED_DIFF, p)),
    },
    Mode {
        flag: "--shard-diff",
        value: None,
        doc: "dmt_server across 1/2/4 token domains: deterministic, 1-shard lockstep, reference store",
        run: |i| table("shard_diff", |p| run_shard_diff(&i.cfg, p)),
    },
    Mode {
        flag: "--inject-panic",
        value: None,
        doc: "seeded thread deaths must be contained reproducibly, with no hang",
        run: |i| table("inject_panic", |p| run_panic_inject(&i.cfg, p)),
    },
    Mode {
        flag: "--inject-bug",
        value: None,
        doc: "plant an eligibility bug; exits 1 when it was caught, shrunk and diagnosed (as it must)",
        run: inject_bug,
    },
    Mode {
        flag: "--soak",
        value: None,
        doc: "mixed-scenario matrix: perturb x panic x shard x record, 16 compositions",
        run: |i| table("matrix", |p| run_mixed_matrix(&i.cfg, p)),
    },
    Mode {
        flag: "--trace-chaos",
        value: None,
        doc: "record under crashes, I/O faults and a real SIGKILL; salvage; replay to the fault point",
        run: |i| table("trace_chaos", |p| run_trace_chaos(&i.cfg, p)),
    },
    Mode {
        flag: "--record",
        value: Some("DIR"),
        doc: "write one .dmtrace per workload x Consequence runtime, plus one sharded-server container",
        run: record,
    },
    Mode {
        flag: "--replay",
        value: Some("FILE-OR-DIR"),
        doc: "re-execute recorded containers; schedule, output and commit log must reproduce",
        run: replay,
    },
];

/// Internal: the child half of `--trace-chaos`'s SIGKILL scenario. Records
/// durable containers in a loop until the parent kills it.
const CHAOS_CHILD: Mode = Mode {
    flag: "--chaos-child",
    value: Some("DIR"),
    doc: "",
    run: |i| run_chaos_child(Path::new(&i.value), &i.cfg),
};

fn usage() -> String {
    let mut out = String::from(
        "usage: stress [MODE] [CONFIGURATION]\nmodes (at most one besides --smoke / --deep):\n",
    );
    for m in &MODES {
        let flag = format!("{} {}", m.flag, m.value.unwrap_or(""));
        out.push_str(&format!("  {flag:<22}{}\n", m.doc));
    }
    out.push_str("configuration (overrides the preset, in any order):\n");
    for (flag, value, doc) in StressConfig::FLAGS {
        out.push_str(&format!("  {:<22}{doc}\n", format!("{flag} {value}")));
    }
    out
}

/// A parsed command line.
struct Invocation {
    mode: &'static Mode,
    /// The mode flag's value (`--record DIR`), empty when it takes none.
    value: String,
    /// `"smoke"`, `"deep"`, or `"custom"` once workloads or runtimes were
    /// chosen by hand; names the matrix report.
    label: &'static str,
    cfg: StressConfig,
}

/// Parses the arguments. The preset applies first and explicit values
/// override it wherever they appear; two modes, or two presets, are an
/// error naming both.
fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut preset: Option<&'static Mode> = None;
    let mut chosen: Option<(&'static Mode, String)> = None;
    let mut explicit = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        if let Some(m) = MODES.iter().chain([&CHAOS_CHILD]).find(|m| m.flag == a) {
            let v = m.value.map_or(Ok(String::new()), |_| value())?;
            // Both size flags run the differential matrix, and size
            // whichever other mode is given.
            let clash = if matches!(m.flag, "--smoke" | "--deep") {
                preset.replace(m)
            } else {
                chosen.replace((m, v)).map(|(prev, _)| prev)
            };
            if let Some(prev) = clash {
                return Err(format!("{} and {} cannot be combined", prev.flag, m.flag));
            }
        } else if StressConfig::FLAGS.iter().any(|f| f.0 == a) {
            explicit.push((a.as_str(), value()?));
        } else {
            return Err(format!("unknown argument {a:?}"));
        }
    }

    let preset = preset.unwrap_or(&MODES[0]);
    let mut cfg = if preset.flag == "--deep" {
        StressConfig::deep()
    } else {
        StressConfig::smoke()
    };
    let mut label = &preset.flag[2..];
    for (flag, v) in explicit {
        cfg.set(flag, &v)?;
        if matches!(flag, "--workloads" | "--runtimes") {
            label = "custom";
        }
    }
    let (mode, value) = chosen.unwrap_or((preset, String::new()));
    Ok(Invocation {
        mode,
        value,
        label,
        cfg,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = parse(&args).unwrap_or_else(|e| {
        eprintln!("stress: {e}\n{}", usage());
        std::process::exit(2);
    });
    println!("== stress {}: {}", inv.mode.flag, inv.mode.doc);
    println!("   {}", inv.cfg);
    let t0 = std::time::Instant::now();
    let ok = (inv.mode.run)(&inv);
    eprintln!("total: {:.1}s", t0.elapsed().as_secs_f64());
    std::process::exit(if ok { 0 } else { 1 });
}

fn matrix(inv: &Invocation) -> bool {
    table(inv.label, |p| {
        let mut report = run_matrix(&inv.cfg, p);
        report.extra.mode = inv.label.to_string();
        report
    })
}

fn record(inv: &Invocation) -> bool {
    let (cfg, dir) = (&inv.cfg, Path::new(&inv.value));
    let runtimes: Vec<&str> = cfg.runtimes.iter().map(|k| k.label()).collect();
    let (threads, scale, seed) = (cfg.threads, cfg.scale, cfg.input_seed);
    let (recorded, mut ok) = record_all(dir, &runtimes, &cfg.workloads, threads, scale, seed);
    // One sharded-server container rides along: 2 token domains, 2
    // workers each (see dmt_shard::record for the label convention).
    let spath = dir.join(format!("dmt_server-sharded-ic-2-t2-s{scale}.dmtrace"));
    let params = dmt_workloads::Params::new(2, scale, seed);
    match dmt_shard::record_server_trace(2, 2, params, &spath) {
        Ok((meta, _)) => println!(
            "[ok] dmt_server sharded-ic-2: {} events, hash {:#018x} -> {}",
            meta.event_count,
            meta.schedule_hash,
            spath.display()
        ),
        Err(e) => {
            println!("[FAILED] dmt_server sharded-ic-2: {e}");
            ok = false;
        }
    }
    dump("target/stress", "record", &recorded);
    ok
}

fn replay(inv: &Invocation) -> bool {
    let (results, ok) = replay_all(&[&inv.value]);
    dump("target/stress", "replay", &results);
    println!("{}: {} trace(s) replayed", verdict(ok), results.len());
    ok
}

/// Exits 1 by design when the planted bug was caught: a determinism
/// violation was (correctly) detected. CI asserts this exit code.
fn inject_bug(_: &Invocation) -> bool {
    let out = run_inject_bug(12, 4, 400);
    dump("target/stress", "inject_bug", &out);
    for line in out.summary() {
        println!("{line}");
    }
    !out.caught
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn explicit_values_override_the_preset_in_any_order() {
        let early = parsed("--seeds 1 --threads 2 --smoke").unwrap();
        let late = parsed("--smoke --seeds 1 --threads 2").unwrap();
        for inv in [early, late] {
            assert_eq!((inv.cfg.seeds, inv.cfg.threads, inv.label), (1, 2, "smoke"));
        }
        let inv = parsed("--workloads kmeans --deep --scale 2").unwrap();
        assert_eq!((inv.cfg.seeds, inv.cfg.threads, inv.cfg.scale), (16, 8, 2));
        assert_eq!(inv.cfg.workloads, ["kmeans"]);
        assert_eq!(inv.label, "custom");
    }

    #[test]
    fn two_modes_are_an_error_naming_both() {
        let e = parsed("--sched-diff --shard-diff").err().unwrap();
        assert!(e.contains("--sched-diff and --shard-diff"), "{e}");
        for bad in [
            "--smoke --deep",
            "--bogus",
            "--seeds",
            "--seeds x",
            "--runtimes x",
        ] {
            assert!(parsed(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ci_invocations_parse_to_their_modes() {
        for line in [
            "--smoke",
            "--sched-diff",
            "--shard-diff",
            "--inject-panic --seeds 4",
            "--inject-bug",
            "--soak --smoke",
            "--replay tests/corpus",
            "--trace-chaos",
            "--chaos-child /tmp/d --threads 2 --scale 1 --base-seed 7",
        ] {
            let inv = parsed(line).unwrap();
            assert_eq!(inv.mode.flag, line.split(' ').next().unwrap());
            assert_eq!(inv.value.is_empty(), inv.mode.value.is_none(), "{line}");
        }
        assert_eq!(parsed("").unwrap().mode.flag, "--smoke");
        assert_eq!(parsed("--inject-panic --seeds 4").unwrap().cfg.seeds, 4);
        assert_eq!(
            parsed("--replay tests/corpus").unwrap().value,
            "tests/corpus"
        );
    }

    #[test]
    fn docs_list_every_flag_with_its_one_liner() {
        let doc = include_str!("../../../../docs/STRESS.md");
        for line in usage().lines().skip(1) {
            assert!(doc.contains(line), "docs/STRESS.md lacks {line:?}");
        }
    }
}
