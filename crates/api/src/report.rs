//! Run reports: virtual-time breakdowns and event counters.

use std::ops::AddAssign;
use std::time::Duration;

use crate::ids::Tid;
use crate::trace::EventCounts;

/// Where a thread's virtual cycles went.
///
/// The categories mirror Figure 15 of the paper: chunk execution, waiting
/// for the deterministic order (`determ_wait`), waiting at barriers
/// (`barrier_wait`, which the paper separates because it is not caused by
/// deterministic ordering), Conversion commit and update work, copy-on-write
/// fault handling, and general library overhead (token bookkeeping, counter
/// reads, wake-ups).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Useful work: `tick` cycles plus shared-memory access cycles.
    pub chunk: u64,
    /// Waiting imposed by the deterministic total order (token / turn).
    pub determ_wait: u64,
    /// Waiting for other threads to arrive at a barrier.
    pub barrier_wait: u64,
    /// Committing dirty pages (including merges).
    pub commit: u64,
    /// Applying remote versions to the local workspace.
    pub update: u64,
    /// Copy-on-write page faults.
    pub fault: u64,
    /// Library overhead: token ops, counter reads, publications, wake-ups.
    pub lib: u64,
}

impl Breakdown {
    /// Total virtual cycles across all categories.
    pub fn total(&self) -> u64 {
        self.chunk
            + self.determ_wait
            + self.barrier_wait
            + self.commit
            + self.update
            + self.fault
            + self.lib
    }

    /// Non-`chunk` cycles: everything determinism added on top of the work.
    pub fn overhead(&self) -> u64 {
        self.total() - self.chunk
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, o: Breakdown) {
        self.chunk += o.chunk;
        self.determ_wait += o.determ_wait;
        self.barrier_wait += o.barrier_wait;
        self.commit += o.commit;
        self.update += o.update;
        self.fault += o.fault;
        self.lib += o.lib;
    }
}

/// Event counters accumulated across all threads of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Commit operations performed.
    pub commits: u64,
    /// Dirty pages published by commits.
    pub pages_committed: u64,
    /// Pages that needed a byte-granularity merge at commit.
    pub pages_merged: u64,
    /// Pages applied by updates — the paper's "pages propagated under TSO".
    pub pages_propagated: u64,
    /// Copy-on-write faults taken.
    pub faults: u64,
    /// Global-token acquisitions.
    pub token_acquisitions: u64,
    /// Logical-clock publications (counter overflows / chunk-end reads).
    pub publications: u64,
    /// Deterministic mutex acquisitions.
    pub lock_acquires: u64,
    /// Barrier-wait operations.
    pub barrier_waits: u64,
    /// Condition-variable waits.
    pub cond_waits: u64,
    /// Threads spawned.
    pub spawns: u64,
    /// Spawns satisfied from the §3.3 thread pool.
    pub pool_hits: u64,
    /// Chunks executed (regions between commits).
    pub chunks: u64,
    /// Chunks that were coarsened into a preceding chunk (§3.1).
    pub coarsened_chunks: u64,
    /// Versions dropped outright by the version-chain collector.
    pub gc_versions_dropped: u64,
    /// Version pairs squashed (compacted) by the collector while pinned by
    /// a lagging workspace.
    pub gc_versions_squashed: u64,
    /// Page allocations served from the freed-page recycle pool instead of
    /// the system allocator.
    pub page_pool_hits: u64,
    /// Iterations of the token wait loop: one per return from a sleep, for
    /// a real wake or a stale permit, and none for a grant that found the
    /// token free on arrival. `token_wake_loops / token_acquisitions` is
    /// the wakeups-per-grant fan-out: at most 1, since a hand-off wakes
    /// one thread (`kv_server` reads 0.43).
    pub token_wake_loops: u64,
    /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
    #[doc(hidden)]
    pub settle_pages_deferred: u64,
    /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
    #[doc(hidden)]
    pub pretwin_hits: u64,
    /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
    #[doc(hidden)]
    pub pretwin_misses: u64,
}

impl AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.commits += o.commits;
        self.pages_committed += o.pages_committed;
        self.pages_merged += o.pages_merged;
        self.pages_propagated += o.pages_propagated;
        self.faults += o.faults;
        self.token_acquisitions += o.token_acquisitions;
        self.publications += o.publications;
        self.lock_acquires += o.lock_acquires;
        self.barrier_waits += o.barrier_waits;
        self.cond_waits += o.cond_waits;
        self.spawns += o.spawns;
        self.pool_hits += o.pool_hits;
        self.chunks += o.chunks;
        self.coarsened_chunks += o.coarsened_chunks;
        self.gc_versions_dropped += o.gc_versions_dropped;
        self.gc_versions_squashed += o.gc_versions_squashed;
        self.page_pool_hits += o.page_pool_hits;
        self.token_wake_loops += o.token_wake_loops;
    }
}

/// Result of one [`crate::Runtime::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Critical-path execution time in virtual cycles: the maximum over all
    /// threads of their final virtual clock. Deterministic for DMT runtimes
    /// (with adaptive overflow notification disabled); noisy for pthreads,
    /// exactly as wall-clock would be.
    pub virtual_cycles: u64,
    /// Real elapsed time of the run on the (single-core) host. Reported for
    /// transparency only; see `DESIGN.md`.
    pub wall: Duration,
    /// Aggregate virtual-time breakdown over all threads.
    pub breakdown: Breakdown,
    /// Per-thread breakdowns, indexed by spawn order.
    pub per_thread: Vec<(Tid, Breakdown)>,
    /// Aggregate event counters.
    pub counters: Counters,
    /// Peak number of distinct live pages across all versions and
    /// workspaces (× 4 KiB = the paper's Figure 12 peak memory). Zero for
    /// runtimes without versioned memory (pthreads).
    pub peak_pages: usize,
    /// Peak number of versions retained on the version chains, read
    /// before the collector trims (the chain length Figure 12's collector
    /// must keep up with). Zero for pthreads.
    pub peak_versions: usize,
    /// Peak length of any thread's clock history on the scheduling table
    /// (watermark pruning must bound it). Zero for runtimes without one.
    pub peak_clock_history: usize,
    /// FNV-1a digest of the committed-version log
    /// `(committer, version id, page ids)`*: two deterministic runs must
    /// agree on this. Zero for pthreads.
    pub commit_log_hash: u64,
    /// Incremental FNV-1a digest of the run's deterministic event order
    /// (see [`crate::trace`]). Bit-identical across runs for deterministic
    /// runtimes when a hashing sink is attached; 0 when tracing is off.
    /// For pthreads it varies run to run — that variance is the point.
    pub schedule_hash: u64,
    /// Per-category trace event counts (zeroes when tracing is off).
    pub events: EventCounts,
    /// Number of threads that ran (including the main job).
    pub threads: u32,
    /// Master seed of the fault-injection plan active during the run
    /// (see [`crate::perturb`]); 0 when no perturber was attached. Makes
    /// stress artifacts self-describing: the report alone reproduces the
    /// run.
    pub perturb_seed: u64,
    /// FNV-1a digest of the active fault-injection plan (identifies shrunk
    /// plans, whose master seed alone is ambiguous); 0 when off.
    pub perturb_plan: u64,
    /// Workload panics contained during the run, `(tid, message)` in
    /// deterministic containment (token-grant) order. Empty for a clean
    /// run; runtimes without containment leave it empty too (the panic
    /// propagates instead).
    pub panics: Vec<(Tid, String)>,
    /// The watchdog's diagnosis when the run was torn down for lack of
    /// logical progress (deadlock / wedged holder); `None` for a run that
    /// finished on its own.
    pub fault: Option<String>,
    /// Whether the run's recording degraded: the trace sink hit a fault
    /// mid-run (named in `fault`), so the reproducer is truncated there.
    /// The computation itself finished, on its deterministic schedule.
    pub degraded: bool,
}

impl RunReport {
    /// Breakdown of a single thread, if it exists.
    pub fn thread_breakdown(&self, tid: Tid) -> Option<&Breakdown> {
        self.per_thread
            .iter()
            .find(|(t, _)| *t == tid)
            .map(|(_, b)| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_overhead() {
        let b = Breakdown {
            chunk: 100,
            determ_wait: 20,
            barrier_wait: 5,
            commit: 10,
            update: 3,
            fault: 2,
            lib: 1,
        };
        assert_eq!(b.total(), 141);
        assert_eq!(b.overhead(), 41);
    }

    #[test]
    fn breakdown_add_assign_sums_fields() {
        let mut a = Breakdown {
            chunk: 1,
            ..Breakdown::default()
        };
        a += Breakdown {
            chunk: 2,
            lib: 7,
            ..Breakdown::default()
        };
        assert_eq!(a.chunk, 3);
        assert_eq!(a.lib, 7);
    }

    #[test]
    fn counters_add_assign_sums_fields() {
        let mut a = Counters::default();
        a += Counters {
            commits: 4,
            faults: 2,
            ..Counters::default()
        };
        a += Counters {
            commits: 1,
            ..Counters::default()
        };
        assert_eq!(a.commits, 5);
        assert_eq!(a.faults, 2);
    }

    #[test]
    fn thread_breakdown_lookup() {
        let r = RunReport {
            virtual_cycles: 0,
            wall: Duration::ZERO,
            breakdown: Breakdown::default(),
            per_thread: vec![(Tid(0), Breakdown::default())],
            counters: Counters::default(),
            peak_pages: 0,
            peak_versions: 0,
            peak_clock_history: 0,
            commit_log_hash: 0,
            schedule_hash: 0,
            events: EventCounts::default(),
            threads: 1,
            perturb_seed: 0,
            perturb_plan: 0,
            panics: Vec::new(),
            fault: None,
            degraded: false,
        };
        assert!(r.thread_breakdown(Tid(0)).is_some());
        assert!(r.thread_breakdown(Tid(1)).is_none());
    }
}
