//! Thread placement. Each connection's client thread and the server
//! thread that serves it are pinned to one core of their own, so a
//! request's round trip is two context switches on one core rather than
//! two cross-core wake-ups, whose latency on a virtual machine swings by
//! a factor of two from run to run. Commits still contend across cores
//! at the commit applier.

use std::collections::BTreeSet;

/// Bytes of the kernel's CPU mask we pass (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pin thread `tid` (0: the calling thread) to the `slot`-th allowed
/// CPU; returns that CPU. Placement is best-effort: where the call fails,
/// the thread stays where the scheduler puts it and the result is `None`.
pub fn pin(tid: i32, slot: usize) -> Option<usize> {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return None;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; the
    // kernel validates `tid`.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Ids of this process's threads (from `/proc/self/task`).
pub fn threads() -> BTreeSet<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}
