//! Property-style tests over the substrates, at the integration level:
//! arbitrary write patterns through Conversion must behave like a flat
//! memory under sequential application, parallel barrier commits must equal
//! serial commits, and the token order must equal the sort order of
//! `(clock, tid)` pairs.
//!
//! Originally `proptest` properties; now scripted pseudo-random cases from
//! a local LCG so the workspace builds with no external dependencies.

use consequence_repro::conversion::{ParallelCommit, Segment};
use consequence_repro::det_clock::{OrderPolicy, SchedKind, SchedTable, Slots};
use consequence_repro::dmt_api::{Tid, PAGE_SIZE};

/// Deterministic LCG (MMIX constants) driving case generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A scripted write: thread, address, value.
#[derive(Clone, Debug)]
struct W {
    t: usize,
    addr: usize,
    val: u8,
}

fn gen_writes(rng: &mut Rng, threads: usize, pages: usize) -> Vec<W> {
    let len = rng.below(60) as usize;
    (0..len)
        .map(|_| W {
            t: rng.below(threads as u64) as usize,
            addr: rng.below((pages * PAGE_SIZE) as u64) as usize,
            val: rng.next() as u8,
        })
        .collect()
}

/// Round-robin of writes with a commit+update after every write is
/// equivalent to applying the writes to a flat array in that order.
#[test]
fn committed_writes_apply_in_commit_order() {
    let mut rng = Rng(0xD4_D4_D4);
    for _ in 0..64 {
        let ws = gen_writes(&mut rng, 3, 2);
        let seg = Segment::new(2, 4);
        let mut spaces: Vec<_> = (0..3).map(|t| seg.new_workspace(Tid(t)).0).collect();
        let mut flat = vec![0u8; 2 * PAGE_SIZE];
        for w in &ws {
            spaces[w.t].write_bytes(w.addr, &[w.val]);
            seg.commit(&mut spaces[w.t], None);
            seg.update(&mut spaces[w.t]);
            flat[w.addr] = w.val;
        }
        let mut got = vec![0u8; 2 * PAGE_SIZE];
        seg.read_latest(0, &mut got);
        assert_eq!(got, flat);
    }
}

/// Uncommitted writes are invisible to other workspaces (isolation),
/// and visible to the writer (its own store buffer).
#[test]
fn isolation_until_commit() {
    let mut rng = Rng(0xE5_E5_E5);
    for _ in 0..64 {
        let ws = gen_writes(&mut rng, 2, 2);
        let seg = Segment::new(2, 4);
        let mut a = seg.new_workspace(Tid(0)).0;
        let b = seg.new_workspace(Tid(1)).0;
        let mut mine = vec![0u8; 2 * PAGE_SIZE];
        for w in ws.iter().filter(|w| w.t == 0) {
            a.write_bytes(w.addr, &[w.val]);
            mine[w.addr] = w.val;
        }
        // The writer sees its own writes…
        let mut got = vec![0u8; 2 * PAGE_SIZE];
        a.read_bytes(0, &mut got);
        assert_eq!(&got, &mine);
        // …the other workspace sees none of them.
        let mut other = vec![0u8; 2 * PAGE_SIZE];
        b.read_bytes(0, &mut other);
        assert_eq!(other, vec![0u8; 2 * PAGE_SIZE]);
    }
}

/// A parallel two-phase barrier commit produces exactly the same final
/// memory as committing each workspace serially in the same order.
#[test]
fn parallel_commit_equals_serial() {
    let mut rng = Rng(0xF6_F6_F6);
    for _ in 0..64 {
        let ws = gen_writes(&mut rng, 4, 3);
        let apply = |parallel: bool| {
            let seg = Segment::new(3, 8);
            let mut spaces: Vec<_> = (0..4).map(|t| seg.new_workspace(Tid(t)).0).collect();
            for w in &ws {
                spaces[w.t].write_bytes(w.addr, &[w.val]);
            }
            if parallel {
                let pc = ParallelCommit::new();
                for s in spaces.iter_mut() {
                    pc.register(s);
                }
                pc.seal(&seg);
                for i in 0..4 {
                    pc.merge_for(i);
                }
                pc.install(&seg);
            } else {
                for s in spaces.iter_mut() {
                    seg.commit(s, None);
                }
            }
            let mut out = vec![0u8; 3 * PAGE_SIZE];
            seg.read_latest(0, &mut out);
            out
        };
        assert_eq!(apply(true), apply(false));
    }
}

/// Token grants under instruction-count ordering equal sorting the
/// requests by `(clock, tid)`: simulate a set of one-shot sync requests
/// and grant greedily — on the clock table of either kind.
#[test]
fn ic_token_order_sorts_by_clock_then_tid() {
    let mut rng = Rng(0x17_17_17);
    for _ in 0..64 {
        let n = 2 + rng.below(6) as usize;
        let clocks: Vec<u64> = (0..n).map(|_| rng.below(1_000)).collect();
        for kind in [SchedKind::Reference, SchedKind::Fast] {
            let mut table = SchedTable::new(kind, OrderPolicy::InstructionCount, Slots::new(n));
            for (i, &c) in clocks.iter().enumerate() {
                table.register(Tid(i as u32), c, 0);
                table.arrive_sync(Tid(i as u32), c, 0);
            }
            let mut granted = Vec::new();
            let mut done = vec![false; n];
            for _ in 0..n {
                let who = (0..n)
                    .find(|&i| !done[i] && table.eligible(Tid(i as u32)))
                    .expect("someone must be eligible");
                granted.push(who);
                done[who] = true;
                table.finish(Tid(who as u32), 0);
            }
            let mut expect: Vec<usize> = (0..n).collect();
            expect.sort_by_key(|&i| (clocks[i], i));
            assert_eq!(granted, expect);
        }
    }
}

/// Byte merging is lossless for disjoint writers regardless of commit
/// order: both orders produce the same bytes at every written address.
#[test]
fn disjoint_commits_commute() {
    let mut rng = Rng(0x28_28_28);
    for _ in 0..64 {
        let ws = gen_writes(&mut rng, 2, 1);
        // Deduplicate addresses so the two threads write disjoint bytes.
        let mut seen = std::collections::HashSet::new();
        let disjoint: Vec<W> = ws.into_iter().filter(|w| seen.insert(w.addr)).collect();
        let run = |order: [usize; 2]| {
            let seg = Segment::new(1, 2);
            let mut spaces: Vec<_> = (0..2).map(|t| seg.new_workspace(Tid(t)).0).collect();
            for w in &disjoint {
                spaces[w.t].write_bytes(w.addr, &[w.val]);
            }
            for &t in &order {
                seg.commit(&mut spaces[t], None);
            }
            let mut out = vec![0u8; PAGE_SIZE];
            seg.read_latest(0, &mut out);
            out
        };
        assert_eq!(run([0, 1]), run([1, 0]));
    }
}

/// The resource witness's bounds are *tight*, not decorative: an
/// envelope learned from a healthy run (default collector budget) must
/// be tripped by the same workload under a stalled collector
/// (`gc_budget: 0` — the paper's Figure 12 "collector cannot keep up"
/// regime, where version chains grow without trim). A witness that
/// blesses that run would also bless a real leak.
#[test]
fn witness_envelope_is_tight_against_a_stalled_collector() {
    use consequence_repro::consequence::{ConsequenceRuntime, Options};
    use consequence_repro::dmt_api::{
        CommonConfig, CostModel, PerturbHandle, ResourceBounds, ResourceWitness, Runtime,
        TraceHandle, WitnessHandle,
    };
    use consequence_repro::dmt_workloads::{workload_by_name, Params};

    // A commit-heavy workload: the server commits once per served
    // request, so a stalled collector's chain growth is visible within
    // one run (histogram commits only once per worker — too few).
    let run = |gc_budget: usize, witness: WitnessHandle| {
        let w = workload_by_name("dmt_server").unwrap();
        let p = Params::new(4, 1, 42);
        let cfg = CommonConfig {
            heap_pages: w.heap_pages(&p),
            max_threads: 8,
            cost: CostModel::default(),
            track_lrc: false,
            gc_budget,
            trace: TraceHandle::off(),
            perturb: PerturbHandle::off(),
            witness,
        };
        let mut rt = ConsequenceRuntime::new(cfg, Options::consequence_ic());
        let prepared = w.prepare(&mut rt, &p);
        rt.run(prepared.job);
    };

    // Learn the healthy envelope, exactly as the soak harness does.
    let probe = ResourceWitness::new(ResourceBounds::unbounded());
    run(4, WitnessHandle::to(std::sync::Arc::clone(&probe)));
    let healthy = probe.summary();
    assert!(healthy.samples > 0, "witness never sampled");
    let bound = healthy.maxima.retained_versions * 2 + 8;

    // The same run under a dead collector must cross it.
    let witness = ResourceWitness::new(ResourceBounds {
        max_retained_versions: bound,
        ..ResourceBounds::unbounded()
    });
    run(0, WitnessHandle::to(std::sync::Arc::clone(&witness)));
    let leaked = witness.summary();
    assert!(
        !leaked.within_bounds() && leaked.violation_count > 0,
        "stalled-collector run stayed inside the healthy envelope \
         (peak {} vs bound {bound}): the witness bound is not tight",
        leaked.maxima.retained_versions
    );
    assert!(
        leaked.maxima.retained_versions > bound,
        "violation recorded but the retained-versions gauge never crossed"
    );
    assert!(
        leaked
            .violations
            .iter()
            .any(|v| v.contains("retained_versions")),
        "violations do not name the leaking gauge: {:?}",
        leaked.violations
    );
}
