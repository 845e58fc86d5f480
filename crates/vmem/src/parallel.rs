//! Two-phase parallel commit (§4.2 of the Consequence paper).
//!
//! At a barrier, Conversion can commit many threads' pages in parallel:
//!
//! 1. **Phase 1 (serial, under the global token):** each arriving thread
//!    *registers* its dirty pages. Registration order fixes the per-page
//!    merge order — this is all the determinism needs.
//! 2. **Phase 2 (parallel):** pages are partitioned among the participants;
//!    each participant byte-merges the ordered diffs of its assigned pages.
//!    Phase 2 does several times the work of phase 1, so parallelizing it
//!    is where the barrier speedup comes from (Figure 13, "parallel
//!    barrier").
//! 3. **Install:** the merged pages are published as one version per
//!    participant (in registration order, pages attributed to their last
//!    writer), after which every thread updates its workspace.

use std::sync::Arc;

use dmt_api::sync::Mutex;

use dmt_api::{Tid, VectorClock};

use crate::merge;
use crate::page::{PageBuf, PageRef};
use crate::segment::Segment;
use crate::workspace::Workspace;

/// One registered diff: a thread's modification of one page. The dirty-word
/// bitmap is computed once at registration (where it also answers the
/// is-modified test) and reused by every phase-2 merge of this diff.
#[derive(Clone)]
struct Diff {
    participant: usize,
    twin: PageRef,
    work: PageRef,
    map: merge::DirtyMap,
}

struct PagePlan {
    page: u32,
    /// Latest committed content captured at first registration.
    base: PageRef,
    /// Diffs in registration (= commit) order.
    diffs: Vec<Diff>,
}

#[derive(Default)]
struct PcInner {
    participants: Vec<(Tid, Option<Arc<VectorClock>>)>,
    /// Plan entries in ascending page order of first registration.
    plan: Vec<PagePlan>,
    /// page -> index into `plan`.
    index: std::collections::HashMap<u32, usize>,
    sealed: bool,
}

/// Statistics from one participant's phase-2 merge work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeWork {
    /// Pages this participant produced.
    pub pages: u32,
    /// Pages that required an actual multi-writer or remote merge.
    pub merged: u32,
}

/// A two-phase parallel commit in progress.
pub struct ParallelCommit {
    inner: Mutex<PcInner>,
    /// Merged output: `(page, content, last-writer participant)`.
    results: Mutex<Vec<(u32, PageRef, usize)>>,
}

impl ParallelCommit {
    /// Creates an empty parallel commit.
    pub fn new() -> ParallelCommit {
        ParallelCommit {
            inner: Mutex::new(PcInner::default()),
            results: Mutex::new(Vec::new()),
        }
    }

    /// Phase 1: registers `ws`'s dirty pages under the caller's
    /// serialization. Returns `(participant index, pages registered)`.
    ///
    /// # Panics
    ///
    /// Panics if called after [`seal`](Self::seal).
    pub fn register(
        &self,
        seg: &Segment,
        ws: &mut Workspace,
        vc: Option<Arc<VectorClock>>,
    ) -> (usize, u32) {
        let mut inner = self.inner.lock();
        assert!(!inner.sealed, "register after seal");
        let participant = inner.participants.len();
        inner.participants.push((ws.tid(), vc));
        let dirty = ws.take_dirty();
        let mut registered = 0;
        for (p, d) in dirty {
            let map = merge::DirtyMap::diff(d.twin.bytes(), d.work.bytes());
            if map.is_clean() {
                continue;
            }
            registered += 1;
            let work: PageRef = PageRef::from(d.work);
            if let Some(&i) = inner.index.get(&p) {
                inner.plan[i].diffs.push(Diff {
                    participant,
                    twin: d.twin,
                    work,
                    map,
                });
            } else {
                let base = seg.latest_page(p);
                let i = inner.plan.len();
                inner.plan.push(PagePlan {
                    page: p,
                    base,
                    diffs: vec![Diff {
                        participant,
                        twin: d.twin,
                        work,
                        map,
                    }],
                });
                inner.index.insert(p, i);
            }
        }
        (participant, registered)
    }

    /// Ends phase 1. After sealing, participants may merge concurrently.
    ///
    /// The caller must hold whatever serializes commits (the global token)
    /// from before this call until [`install`](Self::install) returns:
    /// every page's merge base is re-captured *here*, so commits that
    /// happened between early registrations and the seal (threads that
    /// performed other synchronization before arriving) are preserved.
    pub fn seal(&self, seg: &Segment) {
        let mut inner = self.inner.lock();
        for e in inner.plan.iter_mut() {
            e.base = seg.latest_page(e.page);
        }
        inner.sealed = true;
    }

    /// Number of registered participants.
    pub fn participants(&self) -> usize {
        self.inner.lock().participants.len()
    }

    /// Phase 2: merges the pages assigned to `participant` (those whose
    /// *last* registered writer it is — a deterministic partition). Safe to
    /// call concurrently from all participants.
    ///
    /// # Panics
    ///
    /// Panics if called before [`seal`](Self::seal).
    pub fn merge_for(&self, participant: usize) -> MergeWork {
        let mine: Vec<(u32, PageRef, Vec<Diff>)> = {
            let inner = self.inner.lock();
            assert!(inner.sealed, "merge_for before seal");
            inner
                .plan
                .iter()
                .filter(|e| e.diffs.last().map(|d| d.participant) == Some(participant))
                .map(|e| (e.page, Arc::clone(&e.base), e.diffs.clone()))
                .collect()
        };
        let mut work = MergeWork::default();
        let mut out: Vec<(u32, PageRef, usize)> = Vec::with_capacity(mine.len());
        for (page, base, diffs) in mine {
            work.pages += 1;
            let last = diffs.last().expect("plan entry without diffs").participant;
            let sole_clean = diffs.len() == 1 && Arc::ptr_eq(&base, &diffs[0].twin);
            let merged: PageRef = if sole_clean {
                // Single writer of an unchanged page: adopt its copy.
                Arc::clone(&diffs[0].work)
            } else {
                work.merged += 1;
                let mut buf = Box::new(PageBuf::duplicate(&base));
                for d in &diffs {
                    merge::apply_with_map(&d.map, d.twin.bytes(), d.work.bytes(), buf.bytes_mut());
                }
                PageRef::from(buf)
            };
            out.push((page, merged, last));
        }
        self.results.lock().extend(out);
        work
    }

    /// Installs the merged pages into `seg` as one version per participant,
    /// in registration order. Call exactly once, after every participant's
    /// [`merge_for`](Self::merge_for) has returned, serialized with other
    /// commits. Returns, per participant in registration order, the thread
    /// id and the number of *installed* pages attributed to it (merged
    /// pages count once, for their last writer).
    pub fn install(&self, seg: &Segment) -> Vec<(Tid, u32)> {
        let inner = self.inner.lock();
        let mut results = self.results.lock();
        debug_assert_eq!(
            results.len(),
            inner.plan.len(),
            "install before all merges finished"
        );
        let mut per: Vec<Vec<(u32, PageRef)>> = vec![Vec::new(); inner.participants.len()];
        results.sort_unstable_by_key(|(p, _, _)| *p);
        for (page, content, last) in results.drain(..) {
            per[last].push((page, content));
        }
        let built: Vec<_> = per
            .into_iter()
            .enumerate()
            .map(|(i, pages)| {
                let (tid, vc) = &inner.participants[i];
                (*tid, pages, vc.clone())
            })
            .collect();
        let counts: Vec<(Tid, u32)> = built
            .iter()
            .map(|(t, pages, _)| (*t, pages.len() as u32))
            .collect();
        seg.install_versions(built);
        counts
    }
}

impl Default for ParallelCommit {
    fn default() -> Self {
        ParallelCommit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the same writes through a serial commit sequence and through a
    /// parallel commit; final segment bytes must be identical.
    #[test]
    fn parallel_commit_equals_serial_commit() {
        let writes: Vec<(Tid, usize, Vec<u8>)> = vec![
            (Tid(0), 0, vec![1, 2, 3]),
            (Tid(1), 2, vec![9, 9]),         // overlaps T0's page 0, byte 2
            (Tid(2), 5000, vec![7]),         // page 1
            (Tid(1), 4096 + 10, vec![5, 5]), // also page 1
        ];

        let serial = {
            let seg = Segment::new(4, 4);
            let mut ws: Vec<Workspace> = (0..3).map(|t| seg.new_workspace(Tid(t)).0).collect();
            for (t, addr, data) in &writes {
                ws[t.index()].write_bytes(*addr, data);
            }
            for w in ws.iter_mut() {
                seg.commit(w, None);
            }
            let mut buf = vec![0u8; seg.len()];
            seg.read_latest(0, &mut buf);
            buf
        };

        let parallel = {
            let seg = Segment::new(4, 4);
            let mut ws: Vec<Workspace> = (0..3).map(|t| seg.new_workspace(Tid(t)).0).collect();
            for (t, addr, data) in &writes {
                ws[t.index()].write_bytes(*addr, data);
            }
            let pc = ParallelCommit::new();
            for w in ws.iter_mut() {
                pc.register(&seg, w, None);
            }
            pc.seal(&seg);
            for i in 0..3 {
                pc.merge_for(i);
            }
            pc.install(&seg);
            let mut buf = vec![0u8; seg.len()];
            seg.read_latest(0, &mut buf);
            buf
        };

        assert_eq!(serial, parallel);
    }

    /// Deterministic LCG (MMIX constants) driving the property cases.
    struct Lcg(u64);

    impl Lcg {
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

    /// Everything an interleaved history can observe about a segment.
    #[derive(Debug, PartialEq, Eq)]
    struct Observed {
        bytes: Vec<u8>,
        log_hash: u64,
        latest_id: u64,
        retained_peak: usize,
        gc_totals: (u64, u64),
    }

    /// Drives one scripted interleaved commit/update/GC history against a
    /// segment and returns every observable.
    fn run_history(seed: u64) -> Observed {
        const PAGES: usize = 6;
        const THREADS: usize = 3;
        let seg = Segment::new(PAGES, THREADS);
        let mut ws: Vec<Workspace> = (0..THREADS)
            .map(|t| seg.new_workspace(Tid(t as u32)).0)
            .collect();
        let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        for _ in 0..120 {
            let t = rng.below(THREADS as u64) as usize;
            for _ in 0..1 + rng.below(3) {
                let addr = rng.below((PAGES * dmt_api::PAGE_SIZE) as u64) as usize;
                ws[t].write_bytes(addr, &[rng.next() as u8]);
            }
            seg.commit(&mut ws[t], None);
            seg.update(&mut ws[t]);
            // Occasionally bring another (clean) workspace forward too, so
            // histories interleave updates from lagging bases.
            if rng.below(3) == 0 {
                let o = (t + 1) % THREADS;
                seg.update(&mut ws[o]);
            }
            seg.gc(rng.below(4) as usize);
        }
        for w in ws.iter_mut() {
            seg.commit(w, None);
            seg.update(w);
        }
        let mut bytes = vec![0u8; seg.len()];
        seg.read_latest(0, &mut bytes);
        Observed {
            bytes,
            log_hash: seg.log_hash(),
            latest_id: seg.latest_id(),
            retained_peak: seg.retained_peak(),
            gc_totals: seg.gc_totals(),
        }
    }

    /// Every observable of an interleaved commit/update/GC history — final
    /// bytes, commit-log digest, `retained_peak`, collector totals — is a
    /// pure function of the call sequence.
    #[test]
    fn interleaved_histories_reproduce_every_observable() {
        for seed in 0..6u64 {
            let first = run_history(seed);
            assert!(first.latest_id > 0 && first.retained_peak > 0);
            assert_eq!(first, run_history(seed), "seed {seed}");
        }
    }

    /// The barrier install pushes one version per participant before any
    /// collector pass can trim them; the witness's high-water mark must
    /// see that spike (the Figure 12 blow-up cases commit this way).
    #[test]
    fn install_raises_retained_peak_by_one_per_participant() {
        const N: usize = 5;
        let seg = Segment::new(N, N);
        let mut ws: Vec<Workspace> = (0..N).map(|t| seg.new_workspace(Tid(t as u32)).0).collect();
        let pc = ParallelCommit::new();
        for (i, w) in ws.iter_mut().enumerate() {
            w.write_bytes(i * dmt_api::PAGE_SIZE, &[i as u8 + 1]);
            pc.register(&seg, w, None);
        }
        pc.seal(&seg);
        for i in 0..N {
            pc.merge_for(i);
        }
        pc.install(&seg);
        assert_eq!(seg.retained_versions(), N);
        assert!(
            seg.retained_peak() >= N,
            "peak {} hides a {N}-version barrier spike",
            seg.retained_peak()
        );
    }

    #[test]
    fn later_registrant_wins_conflicting_bytes() {
        let seg = Segment::new(1, 4);
        let mut a = seg.new_workspace(Tid(0)).0;
        let mut b = seg.new_workspace(Tid(1)).0;
        a.write_bytes(0, &[10]);
        b.write_bytes(0, &[20]);
        let pc = ParallelCommit::new();
        pc.register(&seg, &mut a, None);
        pc.register(&seg, &mut b, None);
        pc.seal(&seg);
        pc.merge_for(0);
        pc.merge_for(1);
        pc.install(&seg);
        let mut buf = [0u8; 1];
        seg.read_latest(0, &mut buf);
        assert_eq!(buf[0], 20, "registration order = commit order");
    }

    #[test]
    fn pages_are_partitioned_by_last_writer() {
        let seg = Segment::new(3, 4);
        let mut a = seg.new_workspace(Tid(0)).0;
        let mut b = seg.new_workspace(Tid(1)).0;
        a.write_bytes(0, &[1]); // page 0: only A
        a.write_bytes(4096, &[1]); // page 1: A then B
        b.write_bytes(4097, &[2]);
        b.write_bytes(8192, &[2]); // page 2: only B
        let pc = ParallelCommit::new();
        pc.register(&seg, &mut a, None);
        pc.register(&seg, &mut b, None);
        pc.seal(&seg);
        let wa = pc.merge_for(0);
        let wb = pc.merge_for(1);
        assert_eq!(wa.pages, 1, "A merges only page 0");
        assert_eq!(wb.pages, 2, "B merges pages 1 and 2 (last writer)");
        let counts = pc.install(&seg);
        assert_eq!(counts.len(), 2, "one entry per participant");
        assert_eq!(counts[0].1, 1, "A installed page 0");
        assert_eq!(counts[1].1, 2, "B installed pages 1 and 2");
    }

    #[test]
    fn updates_after_install_see_merged_state() {
        let seg = Segment::new(2, 4);
        let mut a = seg.new_workspace(Tid(0)).0;
        let mut b = seg.new_workspace(Tid(1)).0;
        a.write_bytes(0, &[1]);
        b.write_bytes(1, &[2]);
        let pc = ParallelCommit::new();
        pc.register(&seg, &mut a, None);
        pc.register(&seg, &mut b, None);
        pc.seal(&seg);
        pc.merge_for(0);
        pc.merge_for(1);
        pc.install(&seg);
        seg.update(&mut a);
        seg.update(&mut b);
        let mut buf = [0u8; 2];
        a.read_bytes(0, &mut buf);
        assert_eq!(buf, [1, 2]);
        b.read_bytes(0, &mut buf);
        assert_eq!(buf, [1, 2]);
    }

    #[test]
    fn empty_participants_create_no_versions() {
        let seg = Segment::new(1, 2);
        let mut a = seg.new_workspace(Tid(0)).0;
        let pc = ParallelCommit::new();
        pc.register(&seg, &mut a, None);
        pc.seal(&seg);
        pc.merge_for(0);
        let counts = pc.install(&seg);
        assert_eq!(counts, vec![(Tid(0), 0)]);
        assert_eq!(seg.latest_id(), 0);
    }
}
