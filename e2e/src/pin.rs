//! Confines the benchmark to one processor.
//!
//! Every wait in the runtime is a futex sleep, so a token hand-off between
//! two processors of the evaluation host's guest costs an inter-processor
//! interrupt through the hypervisor, several times what a context switch
//! on one processor does: with its threads on both processors `kv_server`
//! takes 1.08 s, on one 0.36 s. Left alone the guest kernel moves the
//! threads between the two arrangements every few repetitions, and the
//! price of the interrupt follows the load of the physical host, so an
//! unconfined run measures the scheduler and the neighbours
//! (README.md, "Noise"). On one processor the program's threads take
//! turns, wall time is the work done plus the switches, and repetitions
//! agree.

// std links the C library on every Linux target; these two calls are all
// the benchmark needs from it.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// The processors the calling thread may run on (the first 64 at most).
pub fn allowed_cpus() -> Vec<u32> {
    let mut mask = 0u64;
    // SAFETY: `mask` is 8 writable bytes, the size passed.
    let rc = unsafe { sched_getaffinity(0, 8, &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64).filter(|b| mask >> b & 1 == 1).collect()
}

/// Binds the calling thread, and with it every thread created from now on
/// (a new thread starts with its creator's mask), to the last processor it
/// may use: the first one takes most of a guest's interrupts. Returns that
/// processor, or `None` if the kernel refused.
pub fn confine_to_one_cpu() -> Option<u32> {
    let cpu = *allowed_cpus().last()?;
    let mask = 1u64 << cpu;
    // SAFETY: `mask` is 8 readable bytes, the size passed.
    let rc = unsafe { sched_setaffinity(0, 8, &mask) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_confined_thread_and_its_children_share_one_processor() {
        // In a thread of its own: the other tests keep their processors.
        let (before, cpu, inside, child) = std::thread::spawn(|| {
            let before = allowed_cpus();
            let cpu = confine_to_one_cpu();
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            (before, cpu, allowed_cpus(), child)
        })
        .join()
        .unwrap();
        assert!(!before.is_empty());
        assert_eq!(cpu, before.last().copied());
        assert_eq!(inside, [cpu.unwrap()]);
        assert_eq!(child, inside);
    }
}
