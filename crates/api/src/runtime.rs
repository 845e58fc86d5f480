//! The runtime trait and its shared configuration.

use crate::cost::CostModel;
use crate::ctx::Job;
use crate::ids::{Addr, BarrierId, CondId, MutexId, RwLockId};
use crate::perturb::PerturbHandle;
use crate::report::RunReport;
use crate::trace::TraceHandle;

/// Configuration shared by every runtime implementation.
#[derive(Clone, Debug)]
pub struct CommonConfig {
    /// Shared heap size in 4 KiB pages.
    pub heap_pages: usize,
    /// Upper bound on concurrently live threads (sizing hint for clock
    /// tables and vector clocks).
    pub max_threads: usize,
    /// Virtual-time prices for runtime operations.
    pub cost: CostModel,
    /// Versions the garbage collector may reclaim per installing step (a
    /// serial commit, or a parallel barrier's install); models the paper's
    /// single-threaded Conversion collector that "cannot keep up" under
    /// high page churn (Figure 12). `usize::MAX` means an idealized
    /// collector.
    pub gc_budget: usize,
    /// Event-trace destination (see [`crate::trace`]). Off by default:
    /// every emission site then reduces to one branch, so benchmark
    /// figures are unaffected.
    pub trace: TraceHandle,
    /// Fault injector (see [`crate::perturb`]). Off by default: every
    /// hook site then reduces to one branch. Attached by the `dmt-stress`
    /// harness to perturb physical timing without — for deterministic
    /// runtimes — moving the schedule hash.
    pub perturb: PerturbHandle,
}

impl Default for CommonConfig {
    fn default() -> Self {
        CommonConfig {
            heap_pages: 1024,
            max_threads: 64,
            cost: CostModel::default(),
            gc_budget: 4,
            trace: TraceHandle::off(),
            perturb: PerturbHandle::off(),
        }
    }
}

impl CommonConfig {
    /// Heap size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.heap_pages * crate::PAGE_SIZE
    }
}

/// A multithreading runtime: pthreads or one of the deterministic systems.
///
/// The lifecycle is: create the runtime with a configuration, create the
/// synchronization objects and initialize the heap, call
/// [`run`](Runtime::run) exactly once with the main job, then read results
/// back with [`final_read`](Runtime::final_read).
///
/// # Panics
///
/// Implementations panic if `run` is called twice, if objects are created
/// after the run, or on out-of-range heap accesses.
pub trait Runtime {
    /// Human-readable runtime name (e.g. `"consequence-ic"`).
    fn name(&self) -> &'static str;

    /// Whether this runtime guarantees deterministic execution.
    fn is_deterministic(&self) -> bool;

    /// Creates a mutex. Must be called before [`run`](Runtime::run).
    fn create_mutex(&mut self) -> MutexId;

    /// Creates a condition variable. Must be called before `run`.
    fn create_cond(&mut self) -> CondId;

    /// Creates a barrier for `parties` threads. Must be called before `run`.
    fn create_barrier(&mut self, parties: usize) -> BarrierId;

    /// Creates a read-write lock. Must be called before `run`.
    ///
    /// Runtimes without shared-reader support (DThreads' single global
    /// lock) may implement it as an exclusive lock; that is a legal —
    /// merely slower — rwlock.
    fn create_rwlock(&mut self) -> RwLockId {
        unimplemented!("this runtime does not provide read-write locks")
    }

    /// Shared heap length in bytes.
    fn heap_len(&self) -> usize;

    /// Writes initial heap contents before the run.
    fn init_write(&mut self, addr: Addr, data: &[u8]);

    /// Reads final heap contents after the run.
    fn final_read(&self, addr: Addr, buf: &mut [u8]);

    /// Executes `main` (as `Tid(0)`) to completion, including every thread
    /// it transitively spawns, and returns the run report.
    fn run(&mut self, main: Job) -> RunReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = CommonConfig::default();
        assert_eq!(c.heap_bytes(), 1024 * 4096);
        assert!(c.max_threads >= 32);
    }
}
