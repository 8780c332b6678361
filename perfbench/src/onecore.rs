//! Confines a run to one core.
//!
//! The threaded engine's workers block between hand-offs, and a core
//! with nothing to run halts. On a virtual machine the time the host
//! takes to wake a halted vCPU is the host's to choose: on the 2-vCPU
//! sandbox it flips between two values for minutes at a time and the
//! engine's throughput with it, by a factor of two (≈ 700 k and ≈ 360 k
//! frames/s on `steady-threaded`), which no regression bound survives.
//! With the process confined to the generator's core — threads inherit
//! the mask, so the engine's workers share it — that core is never idle
//! and a hand-off is a context switch, never an interrupt to a halted
//! vCPU. What is measured is the program's own queues, wake-ups and
//! merges. What cannot show is overlap between the engine's threads;
//! ROADMAP's own threaded figures (0.41× FIFO) are from a 1-core host.
//!
//! The FIFO engine has one thread; confined, it is spared migrations.

extern "C" {
    // glibc, which `std` already links.
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and every thread it later starts —
/// to the core it is running on. False when the kernel refuses (the
/// run then goes ahead unconfined, and says so).
pub fn confine() -> bool {
    // SAFETY: no arguments, no memory touched.
    let core = unsafe { sched_getcpu() }.max(0) as usize;
    // A `cpu_set_t`: 1 024 bits.
    let mut mask = [0u64; 16];
    mask[(core / 64) % mask.len()] = 1 << (core % 64);
    // SAFETY: `mask` is live for the call and `cpusetsize` is its size
    // in bytes; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
