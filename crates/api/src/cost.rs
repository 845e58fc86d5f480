//! Virtual-time cost model.
//!
//! The evaluation host cannot measure parallel wall-clock time (it has a
//! single core), so every runtime charges its operations in *virtual cycles*
//! against the constants defined here. The defaults are calibrated to the
//! rough magnitudes of the paper's testbed (2 GHz Xeon, Linux 2.6.37 with
//! the Conversion kernel patch): a copy-on-write page fault costs a trap
//! plus a 4 KiB copy, a commit scans each dirty page, reading a performance
//! counter from kernel space costs a syscall, and so on.
//!
//! The absolute values only scale the overhead-to-work ratio; the figures in
//! the paper are ratios between runtimes that all pay from this same table,
//! so the reproduced *shapes* are insensitive to modest recalibration. Each
//! constant is documented with what it substitutes for.

/// Prices (in virtual cycles) for runtime-internal operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Copy-on-write page fault: trap + twin copy of one 4 KiB page.
    pub fault: u64,
    /// Fixed cost of a commit operation (version bookkeeping).
    pub commit_base: u64,
    /// Per dirty page committed without a conflict (diff scan + publish).
    pub page_commit: u64,
    /// Additional cost when a committed page conflicts with a remote commit
    /// and needs a byte-granularity merge.
    pub page_merge: u64,
    /// Per page applied during an update (page-table entry swap).
    pub page_update: u64,
    /// Per page registered in phase 1 of a parallel barrier commit; the
    /// paper notes phase 2 does "several times" the work of phase 1.
    pub page_register: u64,
    /// Per *mapped* page re-protected at an mprotect-based commit. Only
    /// DThreads pays this (its isolation is `mprotect()`); DWC and
    /// Consequence use Conversion's kernel page-table support, which is
    /// exactly the difference the DWC system exists to remove.
    pub page_protect: u64,
    /// Fixed cost of an update operation.
    pub update_base: u64,
    /// Token acquire/release bookkeeping.
    pub token_op: u64,
    /// Kernel-space read of the retired-instruction counter (one syscall).
    pub counter_read_kernel: u64,
    /// User-space read of the retired-instruction counter (§3.4).
    pub counter_read_user: u64,
    /// Performance-counter overflow interrupt (publication of the clock).
    pub overflow_irq: u64,
    /// Entry into a synchronization operation (library prologue/epilogue).
    pub sync_op: u64,
    /// Waking one blocked thread (futex wake analogue).
    pub wakeup: u64,
    /// Fixed cost of forking a fresh isolated thread (process creation).
    pub spawn_base: u64,
    /// Per mapped page copied into a fresh workspace's page table (§3.3).
    pub page_map: u64,
    /// Reusing a pooled thread instead of forking (§3.3).
    pub pool_reuse: u64,
    /// Nondeterministic pthreads lock/unlock (uncontended fast path).
    pub pthread_lock: u64,
    /// Nondeterministic pthreads barrier / condvar operation.
    pub pthread_sync: u64,
    /// Nondeterministic pthreads thread creation.
    pub pthread_spawn: u64,
    /// Per 8-byte word of shared-memory access (load or store).
    pub mem_word: u64,
    /// Per version reclaimed (dropped or squashed) by the version-chain
    /// collector; the single-threaded collector of Fig. 12 pays this on the
    /// critical path of the thread that installs versions (a serial commit,
    /// or a parallel barrier's last arriver).
    pub gc_version: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibration: 1 virtual cycle ~= 1 cycle at 2 GHz.
        CostModel {
            fault: 3_000,
            commit_base: 1_500,
            page_commit: 1_200,
            page_merge: 2_500,
            page_update: 250,
            page_register: 300,
            page_protect: 45,
            update_base: 600,
            token_op: 150,
            counter_read_kernel: 3_000,
            counter_read_user: 60,
            overflow_irq: 2_500,
            sync_op: 200,
            wakeup: 1_200,
            spawn_base: 60_000,
            page_map: 40,
            pool_reuse: 2_000,
            pthread_lock: 40,
            pthread_sync: 400,
            pthread_spawn: 9_000,
            mem_word: 1,
            gc_version: 400,
        }
    }
}

impl CostModel {
    /// Cost model with all runtime overheads zeroed (work and memory cycles
    /// only). Useful in tests to isolate logical-clock behaviour.
    pub fn free() -> Self {
        CostModel {
            fault: 0,
            commit_base: 0,
            page_commit: 0,
            page_merge: 0,
            page_update: 0,
            page_register: 0,
            page_protect: 0,
            update_base: 0,
            token_op: 0,
            counter_read_kernel: 0,
            counter_read_user: 0,
            overflow_irq: 0,
            sync_op: 0,
            wakeup: 0,
            spawn_base: 0,
            page_map: 0,
            pool_reuse: 0,
            pthread_lock: 0,
            pthread_sync: 0,
            pthread_spawn: 0,
            mem_word: 0,
            gc_version: 0,
        }
    }

    /// Virtual cost of accessing `bytes` bytes of shared memory.
    #[inline]
    pub fn mem_access(&self, bytes: usize) -> u64 {
        // Round up to whole words so single-byte accesses are not free.
        self.mem_word * (bytes.div_ceil(8) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_calibrated() {
        let c = CostModel::default();
        // A fault must dwarf a word access, and kernel counter reads must
        // dwarf user-space reads (that differential is what §3.4 measures).
        assert!(c.fault > 100 * c.mem_word);
        assert!(c.counter_read_kernel > 10 * c.counter_read_user);
    }

    #[test]
    fn free_model_charges_nothing_for_runtime_ops() {
        let c = CostModel::free();
        assert_eq!(c.fault, 0);
        assert_eq!(c.mem_access(4096), 0);
    }

    #[test]
    fn mem_access_rounds_up_to_words() {
        let c = CostModel {
            mem_word: 2,
            ..CostModel::free()
        };
        assert_eq!(c.mem_access(0), 0);
        assert_eq!(c.mem_access(1), 2);
        assert_eq!(c.mem_access(8), 2);
        assert_eq!(c.mem_access(9), 4);
        assert_eq!(c.mem_access(4096), 2 * 512);
    }
}
