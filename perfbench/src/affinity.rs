//! CPU placement of the load threads and the daemon's connection
//! threads. On a 2-vCPU host whose CPUs go idle between requests, where
//! a request's threads run decides whether each hand-off between them
//! waits for the hypervisor to wake an idle vCPU; left to the
//! scheduler, that made `fleet-day` latencies move from run to run.

/// Thread ids of this process (Linux), in no particular order.
pub fn threads() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(target_os = "linux")]
mod sys {
    /// Bytes of glibc's `cpu_set_t` (1024 CPUs).
    const SET_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending; empty where
    /// they cannot be read.
    pub fn cpus() -> Vec<usize> {
        let mut mask = [0u8; SET_BYTES];
        // SAFETY: `mask` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..SET_BYTES * 8)
            .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
            .collect()
    }

    /// Binds thread `tid` (0: the calling thread) to `cpu`; `false` when
    /// that failed.
    pub fn bind(tid: i32, cpu: usize) -> bool {
        let mut mask = [0u8; SET_BYTES];
        mask[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(tid, SET_BYTES, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn bind(_tid: i32, _cpu: usize) -> bool {
        false
    }
}

pub use sys::{bind, cpus};
