//! Property tests for byte-granularity last-writer-wins merging under
//! perturbed commit orderings.
//!
//! Conversion resolves same-page write conflicts by diffing a committer's
//! working copy against its fault-time twin and taking the changed bytes
//! over the currently committed page (`merge.rs`). The determinism
//! argument is that the final contents are a function of the *version DAG*
//! — who wrote which bytes, in which commit order — and not of the physical
//! schedule that computed the merges. These properties pin that down with a
//! seeded LCG (no external proptest dependency):
//!
//! * for writers with **disjoint** byte sets, every permutation of the
//!   commit order yields identical final contents;
//! * for **overlapping** writers, chained [`merge_into`] equals the
//!   byte-wise oracle "the highest-version writer of byte `i` wins", and
//!   equals the in-place [`apply_diff`] path the parallel barrier uses —
//!   two physically different merge schedules, one result;
//! * what `Segment::commit` and a barrier commit publish from the write
//!   set the stores recorded equals the byte-loop reference over full pages.

use conversion::merge::{apply_diff, merge_into, DirtyMap};
use dmt_api::PAGE_SIZE;

/// Knuth 64-bit LCG + output mix, the workspace's stand-in for a proptest
/// generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^ (z >> 33)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

type Page = Box<[u8; PAGE_SIZE]>;

fn page_of(f: impl Fn(usize) -> u8) -> Page {
    let mut p = Box::new([0u8; PAGE_SIZE]);
    for i in 0..PAGE_SIZE {
        p[i] = f(i);
    }
    p
}

/// One writer in the version DAG: a twin (the base it faulted on) plus a
/// working copy with `writes` randomized byte stores.
struct Writer {
    work: Page,
    touched: Vec<usize>,
}

fn random_writer(rng: &mut Lcg, base: &Page, bytes: &[usize]) -> Writer {
    let mut work = Box::new(**base);
    let mut touched = Vec::new();
    for &i in bytes {
        // Force a value different from the base so the diff is non-empty
        // at exactly `bytes` (equal stores are invisible to the diff).
        let v = base[i].wrapping_add(1 + (rng.next() % 251) as u8);
        work[i] = v;
        touched.push(i);
    }
    Writer { work, touched }
}

/// Applies the writers' diffs in the given commit order via chained
/// `merge_into`, each against the then-latest page.
fn chain_merges(base: &Page, writers: &[&Writer], order: &[usize]) -> Page {
    let mut latest = Box::new(**base);
    for &w in order {
        let mut out = Box::new([0u8; PAGE_SIZE]);
        merge_into(base, &writers[w].work, &latest, &mut out);
        latest = out;
    }
    latest
}

/// The semantic oracle: byte `i` takes the value of the last writer (in
/// commit order) that touched it, else the base value.
fn oracle(base: &Page, writers: &[&Writer], order: &[usize]) -> Page {
    let mut out = Box::new(**base);
    for &w in order {
        for &i in &writers[w].touched {
            out[i] = writers[w].work[i];
        }
    }
    out
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for at in 0..=p.len() {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

#[test]
fn disjoint_writers_commute_under_any_commit_order() {
    let mut rng = Lcg(0xD15C0);
    for round in 0..16 {
        let base = page_of(|i| (i as u64 ^ round).wrapping_mul(37) as u8);
        // Partition a random byte set across 3 writers (disjoint by
        // construction).
        let mut bytes: Vec<Vec<usize>> = vec![Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..48 {
            bytes[rng.below(3)].push(rng.below(PAGE_SIZE));
        }
        for b in &mut bytes {
            b.sort_unstable();
            b.dedup();
        }
        // A byte in two lists is no longer disjoint; drop duplicates across
        // writers too.
        let b0 = bytes[0].clone();
        bytes[1].retain(|i| !b0.contains(i));
        let b1 = bytes[1].clone();
        bytes[2].retain(|i| !b0.contains(i) && !b1.contains(i));

        let ws: Vec<Writer> = bytes
            .iter()
            .map(|b| random_writer(&mut rng, &base, b))
            .collect();
        let writers: Vec<&Writer> = ws.iter().collect();

        let reference = chain_merges(&base, &writers, &[0, 1, 2]);
        for order in permutations(3) {
            let got = chain_merges(&base, &writers, &order);
            assert_eq!(
                &got[..],
                &reference[..],
                "disjoint writers disagreed under commit order {order:?} (round {round})"
            );
        }
    }
}

#[test]
fn overlapping_writers_match_the_last_writer_wins_oracle() {
    let mut rng = Lcg(0xFACE);
    for round in 0..16 {
        let base = page_of(|i| (i % 251) as u8);
        // Deliberately overlapping byte sets (false sharing within a page).
        let hot: Vec<usize> = (0..8).map(|_| rng.below(PAGE_SIZE)).collect();
        let ws: Vec<Writer> = (0..3)
            .map(|_| {
                let mut bytes = hot.clone();
                for _ in 0..12 {
                    bytes.push(rng.below(PAGE_SIZE));
                }
                bytes.sort_unstable();
                bytes.dedup();
                random_writer(&mut rng, &base, &bytes)
            })
            .collect();
        let writers: Vec<&Writer> = ws.iter().collect();

        for order in permutations(3) {
            let merged = chain_merges(&base, &writers, &order);
            let want = oracle(&base, &writers, &order);
            assert_eq!(
                &merged[..],
                &want[..],
                "LWW oracle mismatch for commit order {order:?} (round {round})"
            );
        }
    }
}

#[test]
fn serial_and_parallel_merge_paths_agree() {
    // The parallel barrier commit applies diffs in place (`apply_diff`);
    // the asynchronous commit path chains `merge_into` against the latest
    // page. Same version DAG, physically different schedules — the final
    // segment contents must be identical.
    let mut rng = Lcg(0xBA55);
    for _ in 0..16 {
        let base = page_of(|i| (i % 13) as u8);
        let ws: Vec<Writer> = (0..4)
            .map(|_| {
                let bytes: Vec<usize> = (0..20).map(|_| rng.below(PAGE_SIZE)).collect();
                random_writer(&mut rng, &base, &bytes)
            })
            .collect();
        assert!(ws
            .iter()
            .all(|w| !DirtyMap::diff(&base, &w.work).is_clean()));
        let writers: Vec<&Writer> = ws.iter().collect();
        let order: Vec<usize> = (0..4).collect();

        let chained = chain_merges(&base, &writers, &order);
        let mut in_place = Box::new(*base);
        for &w in &order {
            apply_diff(&base, &writers[w].work, &mut in_place);
        }
        assert_eq!(&chained[..], &in_place[..]);
    }
}

/// The write set the stores record drives both commits to the bytes the
/// byte-loop reference computes from full pages: three workspaces store
/// into the same four pages (words, runs, the value already there, a write
/// taken back), then commit — one after another, and again through one
/// barrier commit — and the segment must hold, page by page, the chained
/// `bytewise::merge_into` of their views in commit order.
#[test]
fn committed_stores_match_the_bytewise_model_under_both_commits() {
    use conversion::merge::bytewise;
    use conversion::{ParallelCommit, Segment, Workspace};
    use dmt_api::Tid;

    const PAGES: usize = 4;
    const LEN: usize = PAGES * PAGE_SIZE;
    const THREADS: usize = 3;
    for seed in 0..12u64 {
        let init: Vec<u8> = (0..LEN).map(|i| (i as u64 * 31 + seed) as u8).collect();
        let mut model = init.clone();
        for barrier in [false, true] {
            let mut rng = Lcg(0x5EED ^ seed);
            let seg = Segment::new(PAGES, THREADS);
            seg.init_write(0, &init);
            let mut ws: Vec<Workspace> = (0..THREADS)
                .map(|t| seg.new_workspace(Tid(t as u32)).0)
                .collect();
            for w in ws.iter_mut() {
                for _ in 0..1 + rng.below(12) {
                    let addr = rng.below(LEN - 600);
                    match rng.below(5) {
                        0 => drop(w.st_u64(addr & !7, rng.next())),
                        1 => drop(w.st_u64(addr, rng.next())),
                        2 => {
                            let run: Vec<u8> =
                                (0..rng.below(600)).map(|_| rng.next() as u8).collect();
                            w.write_bytes(addr, &run);
                        }
                        3 => drop(w.st_u64(addr, w.ld_u64(addr))),
                        _ => {
                            let old = w.ld_u64(addr);
                            w.st_u64(addr, !old);
                            w.st_u64(addr, old);
                        }
                    }
                }
            }
            if !barrier {
                // Every workspace is based on the initial version, so its
                // twins are `init` and its view is its working copy.
                for w in &ws {
                    let mut view = vec![0u8; LEN];
                    w.read_bytes(0, &mut view);
                    for p in (0..LEN).step_by(PAGE_SIZE) {
                        let page = |b: &[u8]| -> Page {
                            Box::new(b[p..p + PAGE_SIZE].try_into().unwrap())
                        };
                        let mut out = Box::new([0u8; PAGE_SIZE]);
                        bytewise::merge_into(&page(&init), &page(&view), &page(&model), &mut out);
                        model[p..p + PAGE_SIZE].copy_from_slice(&out[..]);
                    }
                }
                for w in ws.iter_mut() {
                    seg.commit(w, None);
                }
            } else {
                let pc = ParallelCommit::new();
                for w in ws.iter_mut() {
                    pc.register(w);
                }
                pc.seal(&seg);
                for i in 0..THREADS {
                    pc.merge_for(i);
                }
                pc.install(&seg);
            }
            let mut got = vec![0u8; LEN];
            seg.read_latest(0, &mut got);
            assert!(got == model, "seed {seed}, barrier commit: {barrier}");
        }
        assert!(model != init, "seed {seed} committed nothing");
    }
}

/// One observation sequence of a lagging reader: the bytes it sees at each
/// of its (sparse, seeded) updates while a writer commits continuously.
/// `gc` controls whether the collector runs between commits.
fn lagging_reader_observations(seed: u64, gc: bool) -> Vec<Vec<u8>> {
    use conversion::Segment;
    use dmt_api::Tid;

    const PAGES: usize = 4;
    let mut rng = Lcg(seed);
    let seg = Segment::new(PAGES, 2);
    let (mut w, _) = seg.new_workspace(Tid(0));
    let (mut r, _) = seg.new_workspace(Tid(1));
    let mut seen = Vec::new();
    for round in 0..200u64 {
        // A few scattered writes, then commit.
        for _ in 0..1 + rng.below(6) {
            let addr = rng.below(PAGES * PAGE_SIZE);
            w.write_bytes(addr, &[(round as u8).wrapping_add(rng.next() as u8 | 1)]);
        }
        seg.commit(&mut w, None);
        seg.update(&mut w);
        // Draw the budget unconditionally so both runs consume the same
        // RNG stream and replay the same commit/update schedule.
        let budget = rng.below(8);
        if gc {
            // Seeded budget, including zero (a skipped pass) — pruning
            // must be invisible at every aggressiveness level.
            seg.gc(budget);
        }
        // The reader lags: it updates rarely, holding an old snapshot
        // across many commits (and, with `gc` on, across many prunes).
        if rng.below(16) == 0 {
            seg.update(&mut r);
            let mut buf = vec![0u8; PAGES * PAGE_SIZE];
            r.read_bytes(0, &mut buf);
            seen.push(buf);
        }
    }
    seg.update(&mut r);
    let mut buf = vec![0u8; PAGES * PAGE_SIZE];
    r.read_bytes(0, &mut buf);
    seen.push(buf);
    seen
}

#[test]
fn gc_while_a_reader_lags_is_invisible_to_its_updates() {
    // Version-chain pruning is pure bookkeeping: for the same seeded
    // commit history, a lagging reader must observe byte-identical
    // contents at every update whether or not the collector ran between
    // commits — dropping or squashing a version a live base can still
    // reach would corrupt exactly this observation sequence.
    for seed in [0xD06_F00Du64, 0xFEED, 0xABAD1DEA, 17, 99] {
        let with_gc = lagging_reader_observations(seed, true);
        let without = lagging_reader_observations(seed, false);
        assert_eq!(
            with_gc.len(),
            without.len(),
            "seed {seed:#x}: update schedules diverged"
        );
        for (i, (a, b)) in with_gc.iter().zip(&without).enumerate() {
            assert_eq!(
                a, b,
                "seed {seed:#x}: observation {i} changed under GC pruning"
            );
        }
    }
}
