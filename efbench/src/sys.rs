//! Host-side measurements the standard library has no call for: process
//! CPU time, peak resident memory, and pinning the process to one CPU.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds. Threads that already exited are included, so worker
/// threads the runner spawns and joins inside an iteration are counted.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call and the clock id is a constant the kernel defines; the call
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restricts the whole process to CPU 0, so
/// `std::thread::available_parallelism()` reports 1 and the runner fans
/// out to a single worker. Returns false where the kernel refuses.
pub fn pin_to_one_cpu() -> bool {
    let mask: [u64; 16] = {
        let mut m = [0u64; 16];
        m[0] = 1;
        m
    };
    // SAFETY: `mask` outlives the call and `cpusetsize` is exactly its
    // size in bytes; pid 0 names the calling thread, and no other thread
    // exists yet when the benchmark pins (workers are spawned per phase
    // and inherit the mask).
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

/// CPUs this process may run on right now.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set size (`VmHWM`) of this process in kB.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_kb() > 0);
    }
}
