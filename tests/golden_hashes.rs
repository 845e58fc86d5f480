//! Seed-stability golden hashes: the schedule digests of fixed
//! `(workload, runtime, threads, scale, seed)` cells, committed as
//! constants.
//!
//! Everything else in the suite checks determinism *within* a build —
//! run twice, compare. These constants check determinism *across*
//! builds: the paper's contract is that a schedule is a pure function of
//! the program and the options, so an innocent-looking change that moves
//! a digest here changed scheduling semantics for every user. That is
//! sometimes intentional (a new event kind, a cost-model fix) — when it
//! is, regenerate the table: the failure message prints every actual
//! row ready to paste. What it must never be is *unnoticed*: committed
//! traces (`tests/corpus/`), committed benchmarks (`BENCH_*.json`) and
//! saved reproducers all hash with these functions.

use std::sync::Arc;

use consequence_repro::dmt_api::{CommonConfig, CostModel, HashSink, PerturbHandle, TraceHandle};
use consequence_repro::dmt_baselines::{make_runtime, RuntimeKind};
use consequence_repro::dmt_shard::{run_sharded_server, ShardCfg};
use consequence_repro::dmt_workloads::{workload_by_name, Params};

/// The fixed cell geometry. Changing any of these invalidates the table.
const THREADS: usize = 4;
const SCALE: u32 = 1;
const SEED: u64 = 42;

/// `(workload, runtime label, schedule hash)` — regenerate by running
/// this test and pasting the table it prints on mismatch.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("histogram", "consequence-ic", 0x50a222204a7684a9),
    ("histogram", "consequence-rr", 0x53b2a90ec75db5c2),
    ("histogram", "dwc", 0x2ce2850ae9926e8e),
    ("kmeans", "consequence-ic", 0xadc31a1d1bca6414),
    ("kmeans", "consequence-rr", 0x41a3c4d13ebd832c),
    ("kmeans", "dwc", 0x62f857dc4b0f0b02),
    ("word_count", "consequence-ic", 0x507f0c2e4efafb2d),
    ("word_count", "consequence-rr", 0x672b94b514e343f9),
    ("word_count", "dwc", 0xc25059efb6fda943),
    ("string_match", "consequence-ic", 0x5ecddfee5172b047),
    ("string_match", "consequence-rr", 0x99d767796e133821),
    ("string_match", "dwc", 0xb2b4487894de43cf),
    ("dmt_server", "consequence-ic", 0x34300d2f73672d92),
];

/// The sharded server at 2 workers per domain, same scale and seed:
/// `(domains, combined schedule digest, combined output digest)`, and the
/// store digest every domain count ends in.
const GOLDEN_SHARDED: &[(u32, u64, u64)] = &[
    (1, 0xb91a5d4ae3d4fd64, 0x947ee4eb85fad37a),
    (2, 0x888a641580c7a3f3, 0xce4844e56e76a401),
    (4, 0x8cda1f850fd0f491, 0x7a75507601806305),
];
const GOLDEN_SHARDED_STORE: u64 = 0x80617159c05a42ac;

fn schedule_hash(label: &str, name: &str) -> u64 {
    let kind = RuntimeKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .unwrap_or_else(|| panic!("unknown runtime label {label}"));
    let w = workload_by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let p = Params::new(THREADS, SCALE, SEED);
    let sink = Arc::new(HashSink::new());
    let cfg = CommonConfig {
        heap_pages: w.heap_pages(&p),
        max_threads: 64,
        cost: CostModel::default(),
        gc_budget: 4,
        trace: TraceHandle::to(sink as _),
        perturb: PerturbHandle::off(),
    };
    let mut rt = make_runtime(kind, cfg);
    let prepared = w.prepare(rt.as_mut(), &p);
    let report = rt.run(prepared.job);
    let v = (prepared.validate)(rt.as_ref());
    assert!(
        v.matches_reference,
        "{name} under {label} failed validation"
    );
    report.schedule_hash
}

#[test]
fn schedule_hashes_match_the_committed_goldens() {
    let mut drift = String::new();
    for &(name, label, want) in GOLDEN {
        let got = schedule_hash(label, name);
        if got != want {
            drift.push_str(&format!("    (\"{name}\", \"{label}\", {got:#018x}),\n"));
        }
    }
    assert!(
        drift.is_empty(),
        "schedule digests drifted from the committed goldens.\n\
         If the change to scheduling semantics is intentional, replace the\n\
         drifted GOLDEN rows in tests/golden_hashes.rs with:\n{drift}"
    );
}

#[test]
fn sharded_hashes_match_the_committed_goldens() {
    let mut drift = String::new();
    for &(shards, schedule, output) in GOLDEN_SHARDED {
        let r = run_sharded_server(&ShardCfg::new(shards, 2, Params::new(2, SCALE, SEED)));
        let got = (r.schedule_hash, r.output_hash, r.store_hash);
        if got != (schedule, output, GOLDEN_SHARDED_STORE) {
            drift.push_str(&format!(
                "    ({shards}, {:#018x}, {:#018x}), store {:#018x}\n",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "sharded digests drifted from the committed goldens.\n\
         If intentional, update GOLDEN_SHARDED in tests/golden_hashes.rs:\n{drift}"
    );
}

/// The goldens are meaningful only if the digest is actually sensitive
/// to the cell geometry: a different thread count must move every
/// deterministic runtime's schedule hash. (The input *seed* legitimately
/// may not — histogram's schedule is data-independent.)
#[test]
fn goldens_are_geometry_sensitive() {
    for label in ["consequence-ic", "consequence-rr", "dwc"] {
        let kind = RuntimeKind::ALL
            .into_iter()
            .find(|k| k.label() == label)
            .unwrap();
        let run = |threads| {
            let w = workload_by_name("histogram").unwrap();
            let p = Params::new(threads, SCALE, SEED);
            let sink = Arc::new(HashSink::new());
            let cfg = CommonConfig {
                heap_pages: w.heap_pages(&p),
                max_threads: 64,
                cost: CostModel::default(),
                gc_budget: 4,
                trace: TraceHandle::to(sink as _),
                perturb: PerturbHandle::off(),
            };
            let mut rt = make_runtime(kind, cfg);
            let prepared = w.prepare(rt.as_mut(), &p);
            rt.run(prepared.job).schedule_hash
        };
        assert_ne!(
            run(THREADS),
            run(THREADS - 1),
            "{label}: schedule hash is not geometry-sensitive"
        );
    }
}

// ---------------------------------------------------------------------
// Virtual-time pins.
//
// The schedule digests above hash logical clocks, not virtual time: a
// change that swaps "commit" and "depart" inside one primitive keeps every
// digest and silently moves every figure in EXPERIMENTS.md. These rows pin
// `(virtual_cycles, commit_log_hash, schedule_hash, Breakdown)` per cell
// (the schedule digest again because the `mixed` program and the
// round-robin `dmt_server` cells are not in the table above).
//
// Only fixed-publication configurations reproduce virtual time across
// runs (`determinism_matrix::virtual_time_reproducible_for_fixed_overflow_ic`
// states the rule), so `consequence-ic` runs with `adaptive_overflow =
// false`.
// ---------------------------------------------------------------------

use consequence_repro::consequence::{ConsequenceRuntime, Options};
use consequence_repro::dmt_api::{RunReport, Runtime, RuntimeMemExt, Tid};

/// A field that does not reproduce run to run at the commit the pins
/// were captured at, and so is not compared:
///
/// `determ_wait` / `barrier_wait` of `dmt_server` — barrier leavers
/// unpin the installed version outside the token, so *which* thread
/// pays a `gc_version` charge varies (the total, in `commit`, does
/// not), and the waits absorb the difference. `virtual_cycles` and the
/// other five fields were identical over 48 runs per configuration.
const RACY: u64 = u64::MAX;

/// `(program, runtime label, virtual_cycles, commit_log_hash, schedule_hash,
/// [chunk, determ_wait, barrier_wait, commit, update, fault, lib])`.
/// Captured at the commit before the `ctx.rs` decomposition (dfd9067) and
/// not to be edited by a refactor: a drift here means the refactor moved
/// virtual time. The `commit_log_hash` column alone was re-captured
/// twice, each time for a new definition of the log's per-page term, not
/// for anything a run does; every other column reproduced unedited, under
/// both schedulers. The first re-capture replaced `Fnv1a::hash(page)` by a
/// four-lane digest of the whole 4 KiB page; the second replaced that by
/// `conversion::merge::record_term`, a digest of the page's write set and
/// the values written.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const GOLDEN_VTIME: &[(&str, &str, u64, u64, u64, [u64; 7])] = &[
    ("histogram", "consequence-ic", 6428074, 0x4b036a187c7f061e, 0x50a222204a7684a9, [15992832, 6723808, 0, 40900, 17800, 12000, 8381780]),
    ("histogram", "consequence-rr", 4400284, 0x4b036a187c7f061e, 0x53b2a90ec75db5c2, [15992832, 4701748, 0, 39400, 17200, 12000, 335040]),
    ("histogram", "dwc", 4403848, 0x4b036a187c7f061e, 0x2ce2850ae9926e8e, [15992832, 4678306, 0, 49900, 19900, 12000, 340740]),
    ("kmeans", "consequence-ic", 6199388, 0x627fa724a0db7068, 0xadc31a1d1bca6414, [12684576, 8059796, 0, 428900, 182400, 252000, 7155800]),
    ("kmeans", "consequence-rr", 4464628, 0x627fa724a0db7068, 0x41a3c4d13ebd832c, [12684576, 6440676, 0, 428900, 182400, 252000, 451640]),
    ("kmeans", "dwc", 7522088, 0x3d037b262d59f18d, 0x62f857dc4b0f0b02, [12684576, 15439536, 0, 1584300, 687600, 612000, 2001140]),
    ("word_count", "consequence-ic", 3900495, 0xbf66692a70a6b862, 0x507f0c2e4efafb2d, [6337728, 8042903, 0, 313900, 171850, 333000, 3380100]),
    ("word_count", "consequence-rr", 3146675, 0xbf66692a70a6b862, 0x672b94b514e343f9, [6337728, 7313693, 0, 313900, 171850, 333000, 322880]),
    ("word_count", "dwc", 4170134, 0x6b4e9660f6f21464, 0xc25059efb6fda943, [6337714, 11235858, 0, 1015100, 460500, 441000, 576980]),
    ("string_match", "consequence-ic", 3801542, 0x61a53ba246f26d15, 0x5ecddfee5172b047, [9044032, 4081068, 0, 40900, 17800, 12000, 4891460]),
    ("string_match", "consequence-rr", 2641252, 0x61a53ba246f26d15, 0x99d767796e133821, [9044032, 2926508, 0, 39400, 17200, 12000, 314720]),
    ("string_match", "dwc", 2646720, 0x61a53ba246f26d15, 0xb2b4487894de43cf, [9044032, 2912698, 0, 49900, 19900, 12000, 320420]),
    ("dmt_server", "consequence-ic", 102663980, 0x99360acdc626ef21, 0x34300d2f73672d92, [275340, RACY, RACY, 35517600, 17798600, 24687000, 42469020]),
    ("dmt_server", "consequence-rr", 112992221, 0x45cf25d62179ffbd, 0xad95e70023088f2d, [275683, RACY, RACY, 48600800, 22759400, 24687000, 18969940]),
    ("dmt_server", "dwc", 132807765, 0x6c03f671b7fa3262, 0x240f69238f82e0c2, [275683, RACY, RACY, 70281000, 31280000, 25398000, 25892740]),
    ("mixed", "consequence-ic", 499332, 0x10569860aabaa499, 0x3616bfca540423c6, [57327, 685395, 70186, 129550, 50350, 36000, 389420]),
    ("mixed", "consequence-rr", 426139, 0x2daaa8597ccf927d, 0xe4a329dabdd49684, [57324, 690053, 53656, 110050, 42550, 36000, 212420]),
    ("mixed", "dwc", 519376, 0x2daaa8597ccf927d, 0x8e9096a206696aea, [57324, 807746, 30054, 133700, 53350, 36000, 277060]),
];

fn fixed_publication(label: &str) -> Options {
    match label {
        "consequence-ic" => Options {
            adaptive_overflow: false,
            ..Options::consequence_ic()
        },
        "consequence-rr" => Options::consequence_rr(),
        "dwc" => Options::dwc(),
        other => panic!("no fixed-publication preset for {other}"),
    }
}

/// The golden cells' configuration (`CommonConfig::default()` is 64
/// threads, default costs, `gc_budget` 4, nothing attached).
fn vt_cfg(heap_pages: usize) -> CommonConfig {
    CommonConfig {
        heap_pages,
        trace: TraceHandle::to(Arc::new(HashSink::new()) as _),
        ..CommonConfig::default()
    }
}

/// What the golden kernels do not use: rwlock read/write holds with
/// queued waiters of both kinds, `atomic_fetch_add`, `cond_broadcast`,
/// a barrier (serial under `dwc`, two-phase otherwise) and a pooled
/// re-spawn after the first generation of workers has exited.
fn mixed_program(rt: &mut ConsequenceRuntime) -> RunReport {
    let m = rt.create_mutex();
    let c = rt.create_cond();
    let rw = rt.create_rwlock();
    let b = rt.create_barrier(3);
    rt.init_u64(0, 0);
    let report = rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = (0..3u64)
            .map(|i| {
                ctx.spawn(Box::new(move |t| {
                    t.tick(50 * (i + 1));
                    // Round 1: the writer gets in first and holds long;
                    // both readers queue and are granted together.
                    if i == 0 {
                        t.rw_write_lock(rw);
                        t.tick(5_000);
                        t.st_u64(16, 7);
                        t.rw_write_unlock(rw);
                    } else {
                        t.rw_read_lock(rw);
                        let seen = t.ld_u64(16);
                        t.tick(3_000);
                        t.st_u64(24 + 8 * i as usize, seen);
                        t.rw_read_unlock(rw);
                    }
                    t.atomic_fetch_add_u64(64, i + 1);
                    t.barrier_wait(b);
                    // Round 2: a reader holds, the writer queues behind
                    // it and the second reader queues behind the writer.
                    match i {
                        2 => {
                            t.rw_read_lock(rw);
                            t.tick(4_000);
                            t.rw_read_unlock(rw);
                        }
                        0 => {
                            t.tick(500);
                            t.rw_write_lock(rw);
                            t.st_u64(16, 9);
                            t.rw_write_unlock(rw);
                        }
                        _ => {
                            t.tick(1_000);
                            t.rw_read_lock(rw);
                            t.tick(200);
                            t.rw_read_unlock(rw);
                        }
                    }
                    t.mutex_lock(m);
                    while t.ld_u64(8) == 0 {
                        t.cond_wait(c, m);
                    }
                    t.mutex_unlock(m);
                    t.atomic_fetch_add_u64(64, 10);
                }))
            })
            .collect();
        ctx.tick(40_000);
        ctx.mutex_lock(m);
        ctx.st_u64(8, 1);
        ctx.cond_broadcast(c);
        ctx.mutex_unlock(m);
        for k in kids {
            ctx.join(k);
        }
        // Second generation: with `thread_pool` this reuses a parked
        // worker and its workspace.
        let again = ctx.spawn(Box::new(move |t| {
            t.tick(300);
            t.atomic_fetch_add_u64(64, 100);
        }));
        ctx.join(again);
    }));
    assert_eq!(rt.final_u64(64), 1 + 2 + 3 + 30 + 100);
    assert_eq!(rt.final_u64(16), 9);
    report
}

fn vt_run(program: &str, opts: Options) -> RunReport {
    if program == "mixed" {
        return mixed_program(&mut ConsequenceRuntime::new(vt_cfg(16), opts));
    }
    let w = workload_by_name(program).unwrap_or_else(|| panic!("unknown workload {program}"));
    let p = Params::new(THREADS, SCALE, SEED);
    let mut rt = ConsequenceRuntime::new(vt_cfg(w.heap_pages(&p)), opts);
    let prepared = w.prepare(&mut rt, &p);
    let report = rt.run(prepared.job);
    assert!(
        (prepared.validate)(&rt).matches_reference,
        "{program} failed validation"
    );
    report
}

#[test]
fn virtual_time_matches_the_committed_pins() {
    let mut drift = String::new();
    for &(program, label, v, log, sched_hash, bd) in GOLDEN_VTIME {
        let r = vt_run(program, fixed_publication(label));
        // Compare only what the pin states: a `RACY` field takes the
        // pinned value.
        let mut got_bd = r.breakdown.values();
        for (g, w) in got_bd.iter_mut().zip(bd) {
            if w == RACY {
                *g = RACY;
            }
        }
        let got = (r.virtual_cycles, r.commit_log_hash, r.schedule_hash, got_bd);
        if got != (v, log, sched_hash, bd) {
            drift.push_str(&format!(
                "    {program} {label}: ({}, {:#018x}, {:#018x}, {:?})\n",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "virtual time drifted from the pins captured before the refactor \
         (want the GOLDEN_VTIME row, got):\n{drift}"
    );
}
