//! Run reports: virtual-time breakdowns and event counters.
//!
//! [`Breakdown`] and [`Counters`] are declared by one `metrics!` table:
//! each row states a field's doc, its [`Class`] and its name once, and
//! the struct, its `AddAssign`, its [`FIELDS`](Counters::FIELDS) listing
//! and its `values()` derive from that row.

use std::ops::AddAssign;
use std::time::{Duration, Instant};

use crate::ids::Tid;
use crate::runtime::CommonConfig;
use crate::trace::EventCounts;

/// Whether a metric reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A function of the program and its options under a deterministic
    /// runtime: equal across runs, so a test may pin it.
    Det,
    /// Moves with physical timing from run to run; for diagnosis only.
    Racy,
}

/// Declares a struct of summed `u64` metrics, one row per field, with
/// `AddAssign`, `FIELDS` (each name and class, in order) and `values()`.
macro_rules! metrics {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $class:ident $field:ident,)+
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)+
        }

        impl $name {
            /// Each field's name and class, in declaration order.
            pub const FIELDS: &'static [(&'static str, Class)] =
                &[$((stringify!($field), Class::$class)),+];

            /// Each field's value, in the order of `FIELDS`.
            pub fn values(&self) -> [u64; $name::FIELDS.len()] {
                [$(self.$field),+]
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, o: $name) {
                $(self.$field += o.$field;)+
            }
        }
    };
}

metrics! {
    /// Where a thread's virtual cycles went.
    ///
    /// The categories mirror Figure 15 of the paper: chunk execution, waiting
    /// for the deterministic order (`determ_wait`), waiting at barriers
    /// (`barrier_wait`, which the paper separates because it is not caused by
    /// deterministic ordering), Conversion commit and update work, copy-on-write
    /// fault handling, and general library overhead (token bookkeeping, counter
    /// reads, wake-ups).
    ///
    /// The two waits are [`Class::Racy`]: barrier leavers unpin the installed
    /// version outside the token, so which thread pays a `gc_version` charge
    /// varies, and the waits absorb the difference.
    pub struct Breakdown {
        /// Useful work: `tick` cycles plus shared-memory access cycles.
        Det chunk,
        /// Waiting imposed by the deterministic total order (token / turn).
        Racy determ_wait,
        /// Waiting for other threads to arrive at a barrier.
        Racy barrier_wait,
        /// Committing dirty pages (including merges).
        Det commit,
        /// Applying remote versions to the local workspace.
        Det update,
        /// Copy-on-write page faults.
        Det fault,
        /// Library overhead: token ops, counter reads, publications, wake-ups.
        Det lib,
    }
}

impl Breakdown {
    /// Total virtual cycles across all categories.
    pub fn total(&self) -> u64 {
        self.values().iter().sum()
    }

    /// Non-`chunk` cycles: everything determinism added on top of the work.
    pub fn overhead(&self) -> u64 {
        self.total() - self.chunk
    }
}

metrics! {
    /// Event counters accumulated across all threads of a run.
    ///
    /// A [`Class::Det`] counter is equal across runs of one program under
    /// one deterministic runtime configuration (Consequence-IC with a fixed
    /// publication interval, -RR, DWC, DThreads), and
    /// `determinism_matrix::deterministic_metrics_reproduce` holds it to
    /// that. A [`Class::Racy`] one counts physical events (sleeps, wakes,
    /// timer-driven publications, recycled pages) and moves from run to
    /// run.
    pub struct Counters {
        /// Commit operations performed.
        Det commits,
        /// Dirty pages published by commits.
        Det pages_committed,
        /// Pages that needed a byte-granularity merge at commit.
        Det pages_merged,
        /// Pages applied by updates — the paper's "pages propagated under TSO".
        Det pages_propagated,
        /// Copy-on-write faults taken.
        Det faults,
        /// Global-token acquisitions.
        Det token_acquisitions,
        /// Logical-clock publications (counter overflows / chunk-end reads).
        /// Racy under adaptive overflow notification (§3.2).
        Racy publications,
        /// Deterministic mutex acquisitions.
        Det lock_acquires,
        /// Barrier-wait operations.
        Det barrier_waits,
        /// Condition-variable waits.
        Det cond_waits,
        /// Threads spawned.
        Det spawns,
        /// Spawns satisfied from the §3.3 thread pool.
        Det pool_hits,
        /// Chunks executed (regions between commits).
        Det chunks,
        /// Chunks that were coarsened into a preceding chunk (§3.1).
        Det coarsened_chunks,
        /// Versions dropped outright by the version-chain collector.
        Racy gc_versions_dropped,
        /// Version pairs squashed (compacted) by the collector while pinned by
        /// a lagging workspace.
        Racy gc_versions_squashed,
        /// Page allocations served from the freed-page recycle pool instead of
        /// the system allocator.
        Racy page_pool_hits,
        /// Iterations of the token wait loop: one per return from a sleep, for
        /// a real wake or a stale permit, and none for a grant that found the
        /// token free on arrival. `token_wake_loops / token_acquisitions` is
        /// the wakeups-per-grant fan-out: at most 1, since a hand-off wakes
        /// one thread (`kv_server` reads 0.43).
        Racy token_wake_loops,
        /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
        #[doc(hidden)]
        Det settle_pages_deferred,
        /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
        #[doc(hidden)]
        Det pretwin_hits,
        /// Inert; read only by `e2e/`; deleted with ROADMAP item 3(a).
        #[doc(hidden)]
        Det pretwin_misses,
        /// Real sleeps: returns from a park of a thread waiting under the
        /// runtime lock, for any reason (token, wake flag, barrier phase, the
        /// end of the run). Zero for runtimes without parking (the baselines).
        Racy parks,
        /// Real wakes delivered: one per thread unparked after the runtime
        /// lock is released, a broadcast counting every registered thread.
        Racy unparks,
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
    /// The report every runtime shares: `per_thread` sorted by tid and
    /// summed into `breakdown`, `wall` read now, the schedule hash, event
    /// counts and plan identity read from `cfg`'s trace and perturber, and
    /// a trace-sink fault reported as `fault` with `degraded` set. The
    /// runtime then sets the fields it owns (peaks, commit-log hash,
    /// contained panics, a watchdog fault).
    pub fn new(
        cfg: &CommonConfig,
        start: Instant,
        mut per_thread: Vec<(Tid, Breakdown)>,
        counters: Counters,
        virtual_cycles: u64,
        threads: u32,
    ) -> RunReport {
        per_thread.sort_by_key(|(t, _)| *t);
        let mut breakdown = Breakdown::default();
        for (_, b) in &per_thread {
            breakdown += *b;
        }
        // A degraded recording (the sink hit a write fault mid-run) is a
        // run fault even though the computation itself finished: the
        // promised reproducer is truncated at the point of failure.
        let fault = cfg.trace.fault();
        RunReport {
            virtual_cycles,
            wall: start.elapsed(),
            breakdown,
            per_thread,
            counters,
            peak_pages: 0,
            peak_versions: 0,
            peak_clock_history: 0,
            commit_log_hash: 0,
            schedule_hash: cfg.trace.schedule_hash(),
            events: cfg.trace.counts(),
            threads,
            perturb_seed: cfg.perturb.seed(),
            perturb_plan: cfg.perturb.plan_digest(),
            panics: Vec::new(),
            degraded: fault.is_some(),
            fault,
        }
    }

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
        let bd = |chunk| Breakdown {
            chunk,
            ..Breakdown::default()
        };
        let r = RunReport::new(
            &CommonConfig::default(),
            Instant::now(),
            vec![(Tid(1), bd(2)), (Tid(0), bd(1))],
            Counters::default(),
            0,
            2,
        );
        assert_eq!(r.per_thread, [(Tid(0), bd(1)), (Tid(1), bd(2))]);
        assert_eq!(r.breakdown, bd(3));
        assert_eq!(r.thread_breakdown(Tid(1)), Some(&bd(2)));
        assert!(r.thread_breakdown(Tid(2)).is_none());
        assert!(!r.degraded && r.fault.is_none());
    }
}
