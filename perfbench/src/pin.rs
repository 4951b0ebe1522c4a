//! Set-ups timed on every CPU in turn.
//!
//! On a virtual machine whose CPUs run at different speeds (on one 2-CPU
//! host, a set-up loop ran 1.7 times slower on CPU 0 than on CPU 1), a
//! set-up timed on the main thread takes the speed of whichever CPU the
//! scheduler gives that thread, so per-process set-up times were bimodal.
//! Timing the same number of set-ups pinned to each CPU, and averaging the
//! per-CPU medians, removes that.

use std::os::raw::c_int;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// The calling thread's CPU mask (CPUs 0 to 63), if the kernel reports it.
fn affinity() -> Option<u64> {
    let mut mask = 0u64;
    // SAFETY: `mask` is a live, writable 8-byte CPU set and the size passed
    // is its size; pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
    (status == 0 && mask != 0).then_some(mask)
}

/// Restricts the calling thread (and threads it spawns from now on) to the
/// CPUs in `mask`.
fn set_affinity(mask: u64) {
    // SAFETY: `mask` is a live 8-byte CPU set and the size passed is its
    // size; pid 0 names the calling thread. A failure leaves the mask as it
    // was, which only makes the set-ups unpinned.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Runs `reps` set-ups on each CPU the process may use, with the calling
/// thread pinned to it (threads a set-up spawns inherit the pin), and
/// returns each CPU's set-up durations in seconds. Where the CPU mask cannot
/// be read, it runs `reps` set-ups unpinned, as one group.
pub fn on_each_cpu(reps: usize, mut setup: impl FnMut() -> f64) -> Vec<Vec<f64>> {
    let Some(all) = affinity() else {
        return vec![(0..reps).map(|_| setup()).collect()];
    };
    let groups = (0..64)
        .filter(|cpu| all >> cpu & 1 == 1)
        .map(|cpu| {
            set_affinity(1 << cpu);
            (0..reps).map(|_| setup()).collect()
        })
        .collect();
    set_affinity(all);
    groups
}
