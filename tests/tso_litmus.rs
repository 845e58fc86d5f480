//! TSO litmus suite: SB, MP, LB and IRIW shapes across the deterministic
//! runtimes and a hand-rolled sequential (SC) reference executor.
//!
//! Consequence's isolation acts as a software store buffer: a thread's
//! stores sit in its workspace until commit, so the memory model presented
//! to racing threads is total store order (the paper's §3). Each shape
//! below pins one TSO guarantee:
//!
//! * **SB** (store buffering): `r1 = r2 = 0` is *allowed* — the one
//!   relaxation TSO adds over SC — and Consequence actually exhibits it.
//! * **MP** (message passing): seeing the flag implies seeing the data;
//!   stores from one thread are never reordered.
//! * **LB** (load buffering): `r1 = r2 = 1` is forbidden; loads are never
//!   reordered after program-order-later stores.
//! * **IRIW**: two readers never disagree on the order of independent
//!   writes; commit order is a total store order.
//!
//! Every (shape, runtime) cell runs under ≥ 3 perturbation seeds. For the
//! deterministic runtimes the outcome must be identical per seed *and*
//! across seeds (physical jitter must not move the schedule — the same
//! invariance `dmt-stress` checks). The sequential executor interleaves
//! op-by-op under a seeded LCG: every SC outcome is TSO-allowed, so it
//! doubles as a sanity check that the allowed-sets are not vacuous.

use consequence_repro::dmt_api::{
    CommonConfig, CostModel, PerturbHandle, PlanPerturber, RuntimeMemExt, ThreadCtx, Tid,
    TraceHandle,
};
use consequence_repro::dmt_baselines::{make_runtime, RuntimeKind};

/// One memory operation of a litmus thread. Locations are abstract indices
/// (mapped to distinct pages); registers land in a result area read back
/// after the run.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Store `value` to location.
    St(usize, u64),
    /// Load location into register.
    Ld(usize, usize),
}

struct Litmus {
    name: &'static str,
    threads: &'static [&'static [Op]],
    nregs: usize,
    /// Whether a register assignment is TSO-allowed.
    allowed: fn(&[u64]) -> bool,
}

use Op::{Ld, St};

const SB: Litmus = Litmus {
    name: "SB",
    threads: &[&[St(0, 1), Ld(1, 0)], &[St(1, 1), Ld(0, 1)]],
    nregs: 2,
    // TSO allows all four outcomes, including the (0,0) relaxation.
    allowed: |r| r[0] <= 1 && r[1] <= 1,
};

const MP: Litmus = Litmus {
    name: "MP",
    // T0: data = 1; flag = 1.   T1: r0 = flag; r1 = data.
    threads: &[&[St(0, 1), St(1, 1)], &[Ld(1, 0), Ld(0, 1)]],
    nregs: 2,
    // Forbidden: saw the flag but not the data.
    allowed: |r| !(r[0] == 1 && r[1] == 0),
};

const LB: Litmus = Litmus {
    name: "LB",
    // T0: r0 = X; Y = 1.   T1: r1 = Y; X = 1.
    threads: &[&[Ld(0, 0), St(1, 1)], &[Ld(1, 1), St(0, 1)]],
    nregs: 2,
    // Forbidden: both loads observe the other thread's later store.
    allowed: |r| !(r[0] == 1 && r[1] == 1),
};

const IRIW: Litmus = Litmus {
    name: "IRIW",
    // T0: X = 1.  T1: Y = 1.  T2: r0 = X; r1 = Y.  T3: r2 = Y; r3 = X.
    threads: &[
        &[St(0, 1)],
        &[St(1, 1)],
        &[Ld(0, 0), Ld(1, 1)],
        &[Ld(1, 2), Ld(0, 3)],
    ],
    nregs: 4,
    // Forbidden: the readers disagree on the order of the two writes.
    allowed: |r| !(r[0] == 1 && r[1] == 0 && r[2] == 1 && r[3] == 0),
};

const SHAPES: [&Litmus; 4] = [&SB, &MP, &LB, &IRIW];
const SEEDS: [u64; 3] = [0x5eed1, 0x5eed2, 0x5eed3];

/// Locations live on distinct pages so page merging cannot couple them;
/// registers live on one further page at disjoint 8-byte slots (racy
/// byte-disjoint writes merge deterministically).
const PAGE: usize = 4096;
const REG_BASE: usize = 8 * PAGE;

fn cfg(perturb: PerturbHandle) -> CommonConfig {
    CommonConfig {
        heap_pages: 16,
        max_threads: 8,
        cost: CostModel::default(),
        gc_budget: 4,
        trace: TraceHandle::off(),
        perturb,
    }
}

/// Runs `lit` on a real runtime; returns the register file.
fn run_on(kind: RuntimeKind, lit: &Litmus, seed: u64) -> Vec<u64> {
    let mut rt = make_runtime(kind, cfg(PlanPerturber::handle(seed)));
    let progs: Vec<Vec<Op>> = lit.threads.iter().map(|t| t.to_vec()).collect();
    rt.run(Box::new(move |ctx| {
        let kids: Vec<Tid> = progs
            .into_iter()
            .map(|prog| {
                ctx.spawn(Box::new(move |c: &mut dyn ThreadCtx| {
                    for op in &prog {
                        match *op {
                            St(loc, v) => {
                                c.st_u64(loc * PAGE, v);
                            }
                            Ld(loc, reg) => {
                                let v = c.ld_u64(loc * PAGE);
                                c.st_u64(REG_BASE + reg * 8, v);
                            }
                        }
                    }
                }))
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    }));
    (0..lit.nregs)
        .map(|r| rt.final_u64(REG_BASE + r * 8))
        .collect()
}

/// Hand-rolled sequential reference executor: one global memory, threads
/// interleaved op-by-op under a seeded LCG. Every schedule it can produce
/// is sequentially consistent.
fn run_sequential(lit: &Litmus, seed: u64) -> Vec<u64> {
    let mut mem = [0u64; 8];
    let mut regs = vec![0u64; lit.nregs];
    let mut pc = vec![0usize; lit.threads.len()];
    let mut rng = seed.wrapping_mul(2) + 1;
    loop {
        let runnable: Vec<usize> = (0..lit.threads.len())
            .filter(|&t| pc[t] < lit.threads[t].len())
            .collect();
        if runnable.is_empty() {
            return regs;
        }
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let t = runnable[((rng >> 33) as usize) % runnable.len()];
        match lit.threads[t][pc[t]] {
            St(loc, v) => mem[loc] = v,
            Ld(loc, reg) => regs[reg] = mem[loc],
        }
        pc[t] += 1;
    }
}

const RUNTIMES: [RuntimeKind; 3] = [
    RuntimeKind::DThreads,
    RuntimeKind::ConsequenceRr,
    RuntimeKind::ConsequenceIc,
];

#[test]
fn litmus_outcomes_are_tso_allowed_and_deterministic() {
    for lit in SHAPES {
        for kind in RUNTIMES {
            let mut across_seeds: Option<Vec<u64>> = None;
            for seed in SEEDS {
                let a = run_on(kind, lit, seed);
                let b = run_on(kind, lit, seed);
                assert_eq!(
                    a, b,
                    "{} on {kind:?} seed {seed:#x}: outcome not deterministic",
                    lit.name
                );
                assert!(
                    (lit.allowed)(&a),
                    "{} on {kind:?} seed {seed:#x}: TSO-forbidden outcome {a:?}",
                    lit.name
                );
                match &across_seeds {
                    None => across_seeds = Some(a),
                    Some(first) => assert_eq!(
                        &a, first,
                        "{} on {kind:?}: perturbation seed moved the outcome",
                        lit.name
                    ),
                }
            }
        }
    }
}

#[test]
fn sequential_reference_stays_within_tso_sets() {
    for lit in SHAPES {
        for seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
            let a = run_sequential(lit, seed);
            assert_eq!(a, run_sequential(lit, seed), "SC executor must replay");
            assert!(
                (lit.allowed)(&a),
                "{} sequential seed {seed}: outcome {a:?} outside TSO set \
                 (SC ⊆ TSO, so the allowed-set predicate is wrong)",
                lit.name
            );
        }
    }
}

#[test]
fn sb_relaxation_is_exercised_under_consequence() {
    // The one outcome TSO adds over SC: both loads miss both stores. Under
    // Consequence each thread loads from its isolated snapshot taken
    // before either commit, so (0, 0) is not merely allowed, it is the
    // deterministic outcome.
    for seed in SEEDS {
        let r = run_on(RuntimeKind::ConsequenceIc, &SB, seed);
        assert_eq!(
            r,
            vec![0, 0],
            "expected the TSO store-buffering relaxation under consequence-ic"
        );
    }
    // And no SC interleaving of SB can produce it, which is exactly what
    // makes it the distinguishing outcome.
    for seed in 1u64..=16 {
        let r = run_sequential(&SB, seed);
        assert_ne!(r, vec![0, 0], "SC cannot produce the SB relaxation");
    }
}
