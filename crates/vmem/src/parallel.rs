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
//!
//! Only the staging is this module's own. What is registered
//! (`Workspace::take_modified`), how a page is built from its diffs
//! (`segment::build_page`) and how a version is published
//! (`SegInner::install`) are [`Segment::commit`]'s, called from here.

use std::collections::BTreeMap;
use std::sync::Arc;

use dmt_api::sync::Mutex;

use dmt_api::Tid;

use crate::merge::DirtyMap;
use crate::page::PageRef;
use crate::segment::{build_page, BuiltVersion, Segment};
use crate::workspace::{Diff, Workspace};

#[derive(Default)]
struct PagePlan {
    /// The page's last registered writer: it merges the page in phase 2
    /// and is credited with it at install (a deterministic partition).
    last: usize,
    /// Diffs in registration (= commit) order.
    diffs: Vec<Diff>,
}

#[derive(Default)]
struct PcInner {
    participants: Vec<Tid>,
    /// Page -> what was registered for it; emptied by `seal`.
    plan: BTreeMap<u32, PagePlan>,
    /// The plan in page order, each entry with the merge base captured
    /// for it at `seal`. Immutable from then on, so phase 2 reads it
    /// without the mutex.
    sealed: Option<Arc<Vec<(u32, PageRef, PagePlan)>>>,
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
    /// Merged output: `(page, content, write set, last-writer participant)`.
    results: Mutex<Vec<(u32, PageRef, DirtyMap, usize)>>,
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
    pub fn register(&self, ws: &mut Workspace) -> (usize, u32) {
        let mut inner = self.inner.lock();
        assert!(inner.sealed.is_none(), "register after seal");
        let participant = inner.participants.len();
        inner.participants.push(ws.tid());
        let mut registered = 0;
        ws.take_modified(|d| {
            registered += 1;
            let e = inner.plan.entry(d.page).or_default();
            e.last = participant;
            e.diffs.push(d);
        });
        (participant, registered)
    }

    /// Ends phase 1. After sealing, participants may merge concurrently.
    ///
    /// The caller must hold whatever serializes commits (the global token)
    /// from before this call until [`install`](Self::install) returns:
    /// every page's merge base is captured *here*, not at registration, so
    /// commits that happened between early registrations and the seal
    /// (threads that performed other synchronization before arriving) are
    /// preserved.
    pub fn seal(&self, seg: &Segment) {
        let mut inner = self.inner.lock();
        let plan = std::mem::take(&mut inner.plan);
        let bases = seg.latest_pages(plan.keys().copied());
        let sealed = plan.into_iter().zip(bases);
        inner.sealed = Some(Arc::new(sealed.map(|((p, e), b)| (p, b, e)).collect()));
    }

    /// Phase 2: merges the pages assigned to `participant` (those whose
    /// *last* registered writer it is — a deterministic partition). Safe to
    /// call concurrently from all participants.
    ///
    /// # Panics
    ///
    /// Panics if called before [`seal`](Self::seal).
    pub fn merge_for(&self, participant: usize) -> MergeWork {
        let sealed = Arc::clone(
            self.inner
                .lock()
                .sealed
                .as_ref()
                .expect("merge_for before seal"),
        );
        let mut work = MergeWork::default();
        let mut out: Vec<(u32, PageRef, DirtyMap, usize)> = Vec::new();
        for (p, base, e) in sealed.iter().filter(|(_, _, e)| e.last == participant) {
            let (page, map, merged) = build_page(base, &e.diffs);
            work.pages += 1;
            work.merged += merged as u32;
            out.push((*p, page, map, e.last));
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
            Some(results.len()),
            inner.sealed.as_ref().map(|s| s.len()),
            "install before all merges finished"
        );
        // Each participant's `merge_for` appended its pages in one `extend`,
        // in the sealed plan's page order, so dealing them out keeps every
        // list page-sorted, which `SegInner::install` needs.
        let mut per: Vec<BuiltVersion> = inner
            .participants
            .iter()
            .map(|t| (*t, Vec::new(), Vec::new()))
            .collect();
        for (page, content, map, last) in results.drain(..) {
            per[last].1.push((page, content));
            per[last].2.push(map);
        }
        debug_assert!(per
            .iter()
            .all(|(_, pages, _)| pages.windows(2).all(|w| w[0].0 < w[1].0)));
        let counts = per
            .iter()
            .map(|(t, pages, _)| (*t, pages.len() as u32))
            .collect();
        seg.install_versions(per);
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
    use crate::segment::model_log;
    use dmt_api::PAGE_SIZE;

    /// One whole barrier commit: `ws` register in order, the plan is
    /// sealed, everyone merges, the result is installed.
    fn barrier_commit(seg: &Segment, ws: &mut [Workspace]) -> Vec<(Tid, u32)> {
        let pc = ParallelCommit::new();
        for w in ws.iter_mut() {
            pc.register(w);
        }
        pc.seal(seg);
        for i in 0..ws.len() {
            pc.merge_for(i);
        }
        pc.install(seg)
    }

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
            barrier_commit(&seg, &mut ws);
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

    /// The barrier install pushes one version per participant before the
    /// installer's collector pass can trim them; the report's
    /// `peak_versions` must see that spike (the barrier kernels of Figure 12 commit
    /// this way).
    #[test]
    fn install_raises_retained_peak_by_one_per_participant() {
        const N: usize = 5;
        let seg = Segment::new(N, N);
        let mut ws: Vec<Workspace> = (0..N).map(|t| seg.new_workspace(Tid(t as u32)).0).collect();
        for (i, w) in ws.iter_mut().enumerate() {
            w.write_bytes(i * dmt_api::PAGE_SIZE, &[i as u8 + 1]);
        }
        barrier_commit(&seg, &mut ws);
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
        barrier_commit(&seg, &mut [a, b]);
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
        pc.register(&mut a);
        pc.register(&mut b);
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
        let mut ws = [seg.new_workspace(Tid(0)).0, seg.new_workspace(Tid(1)).0];
        ws[0].write_bytes(0, &[1]);
        ws[1].write_bytes(1, &[2]);
        barrier_commit(&seg, &mut ws);
        for w in ws.iter_mut() {
            seg.update(w);
            let mut buf = [0u8; 2];
            w.read_bytes(0, &mut buf);
            assert_eq!(buf, [1, 2]);
        }
    }

    #[test]
    fn empty_participants_create_no_versions() {
        let seg = Segment::new(1, 2);
        let mut a = seg.new_workspace(Tid(0)).0;
        let mut b = seg.new_workspace(Tid(1)).0;
        let before = b.ld_u64(0);
        b.st_u64(0, before); // fault, but write the same value
        let pc = ParallelCommit::new();
        assert_eq!(pc.register(&mut a), (0, 0));
        assert_eq!(pc.register(&mut b), (1, 0), "an unmodified page");
        pc.seal(&seg);
        assert_eq!(pc.merge_for(0), MergeWork::default());
        assert_eq!(pc.merge_for(1), MergeWork::default());
        let counts = pc.install(&seg);
        assert_eq!(counts, vec![(Tid(0), 0), (Tid(1), 0)]);
        assert_eq!(seg.latest_id(), 0);
    }

    /// Why the merge bases are captured at `seal` and not at registration:
    /// a thread that is not a party commits between an early arrival and
    /// the last one, and its bytes must survive the install — on a page
    /// two parties merge, and on a page whose sole writer would otherwise
    /// be adopted wholesale.
    #[test]
    fn foreign_commit_between_registration_and_seal_survives() {
        let seg = Segment::new(2, 4);
        let mut a = seg.new_workspace(Tid(0)).0;
        let mut b = seg.new_workspace(Tid(1)).0;
        let mut c = seg.new_workspace(Tid(2)).0;
        a.write_bytes(0, &[1]);
        a.write_bytes(4096, &[4]); // page 1: A alone among the parties
        b.write_bytes(8, &[2]);
        c.write_bytes(16, &[3]);
        c.write_bytes(4096 + 16, &[5]);
        let pc = ParallelCommit::new();
        pc.register(&mut a);
        assert_eq!(seg.commit(&mut c, None).pages, 2);
        pc.register(&mut b);
        pc.seal(&seg);
        let one_merged = MergeWork {
            pages: 1,
            merged: 1,
        };
        assert_eq!(pc.merge_for(0), one_merged, "page 1: A's twin is stale");
        assert_eq!(pc.merge_for(1), one_merged, "page 0: B registered last");
        pc.install(&seg);
        let mut buf = [0u8; 4096 + 24];
        seg.read_latest(0, &mut buf);
        assert_eq!(
            (buf[0], buf[8], buf[16]),
            (1, 2, 3),
            "A's, B's and C's bytes"
        );
        assert_eq!((buf[4096], buf[4096 + 16]), (4, 5), "A's and C's bytes");
    }

    /// The latest content of page `p`.
    fn page(seg: &Segment, p: usize) -> [u8; PAGE_SIZE] {
        let mut page = [0u8; PAGE_SIZE];
        seg.read_latest(p * PAGE_SIZE, &mut page);
        page
    }

    /// A barrier page records the union of its diffs' maps, a word that
    /// ends equal to its base included: A faulted after C's commit and
    /// writes words 0 and 2, B faulted before it and stores C's value
    /// into word 0, so B's byte wins and word 0 ends as the base had it.
    #[test]
    fn a_barrier_page_records_the_union_of_its_diffs() {
        let seg = Segment::new(1, 3);
        let mut a = seg.new_workspace(Tid(0)).0;
        let mut b = seg.new_workspace(Tid(1)).0;
        let mut c = seg.new_workspace(Tid(2)).0;
        c.st_u64(0, 7);
        seg.commit(&mut c, None);
        let base = page(&seg, 0);
        seg.update(&mut a);
        a.st_u64(0, 1);
        a.st_u64(16, 3);
        b.st_u64(0, 7);
        assert_eq!(
            barrier_commit(&seg, &mut [a, b]),
            [(Tid(0), 0), (Tid(1), 1)]
        );
        let published = page(&seg, 0);
        assert_eq!(published[..8], base[..8], "word 0 ends as its base");
        assert_eq!(published[16], 3, "A's word 2");
        let model = model_log(&[
            (1, Tid(2), vec![(0, vec![0], base)]),
            (2, Tid(1), vec![(0, vec![0, 2], published)]),
        ]);
        assert_eq!(seg.log_hash(), model);
    }

    /// A commit between a registration and the seal is the base the
    /// barrier's page is recorded against: A's map is its write set
    /// against the page C published, which A's twin predates. Debug builds
    /// assert that every word outside the map equals that base.
    #[test]
    fn a_foreign_commit_before_the_seal_is_the_recorded_base() {
        let seg = Segment::new(1, 2);
        let mut a = seg.new_workspace(Tid(0)).0;
        let mut c = seg.new_workspace(Tid(1)).0;
        a.st_u64(0, 1);
        let pc = ParallelCommit::new();
        pc.register(&mut a);
        c.st_u64(8, 5);
        seg.commit(&mut c, None);
        let foreign = page(&seg, 0);
        pc.seal(&seg);
        assert_eq!(
            pc.merge_for(0),
            MergeWork {
                pages: 1,
                merged: 1
            }
        );
        pc.install(&seg);
        let published = page(&seg, 0);
        assert_eq!((published[0], published[8]), (1, 5), "A's and C's words");
        let model = model_log(&[
            (1, Tid(1), vec![(0, vec![1], foreign)]),
            (2, Tid(0), vec![(0, vec![0], published)]),
        ]);
        assert_eq!(seg.log_hash(), model);
    }

    /// The barrier's side of
    /// `segment::tests::equal_bytes_through_different_write_sets_give_different_logs`:
    /// B re-stores the value C committed, or does not, and every version
    /// holds the same bytes either way.
    #[test]
    fn equal_barrier_bytes_through_different_write_sets_give_different_logs() {
        let run = |b_restores: bool| {
            let seg = Segment::new(1, 3);
            let mut a = seg.new_workspace(Tid(0)).0;
            let mut b = seg.new_workspace(Tid(1)).0;
            let mut c = seg.new_workspace(Tid(2)).0;
            c.st_u64(0, 7);
            seg.commit(&mut c, None);
            if b_restores {
                b.st_u64(0, 7);
            }
            b.st_u64(16, 3);
            barrier_commit(&seg, std::slice::from_mut(&mut b));
            a.st_u64(24, 4);
            seg.commit(&mut a, None);
            (page(&seg, 0), seg.log_hash())
        };
        let (bytes, log) = run(false);
        let (restored_bytes, restored_log) = run(true);
        assert_eq!(bytes, restored_bytes);
        assert_ne!(log, restored_log);
    }
}
