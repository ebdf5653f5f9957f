//! Thread placement for the serving workloads.
//!
//! The reference host is a 2-vCPU virtual machine. A wake-up across its CPUs
//! has to bring a halted vCPU back through the hypervisor; it costs about 45 µs
//! against 9 µs on one CPU, and by how much depends on the host. Which of the
//! two a request pays depends on where the scheduler happens to have put the
//! reactor and the client: `PING` round trips flip between the two modes
//! within one process. Four placements were measured, six runs each, as the
//! spread (interquartile range over median) of the run's gated value:
//!
//! | placement | `serve_read` latency, qps | `serve_write` latency, rate |
//! |---|---|---|
//! | server and clients on one CPU | 74 µs ± 2.7 %, 15.8 k ± 2.1 % | 4.9 ms ± 7.9 %, 410 ± 7.5 % |
//! | clients on CPU 0, server on CPU 1 | 130 µs ± 14 %, 14.0 k ± 9.5 % | 4.9 ms ± 10.8 %, 407 ± 10.6 % |
//! | clients on CPU 0, server left to the scheduler | 106 µs ± 24 %, 14.6 k ± 8.8 % | 4.8 ms ± 9.8 %, 414 ± 9.1 % |
//! | nothing pinned | 122 µs ± 21 %, 14.2 k ± 4.6 % | 5.0 ms ± 21 %, 397 ± 19 % |
//!
//! Only the first repeats within the bounds the benchmark has to hold, so the
//! serving workloads put every thread whose work alternates with the client's
//! on one CPU ([`pin_current`], inherited by the server's and the clients'
//! threads) — the client waits while the server works and the reverse, so
//! they do not compete for it — and `serve_mixed` moves the one thread that
//! really runs beside them, the server's writer, to the second CPU
//! ([`pin_named_thread`]): there reads took 131 µs ± 2.5 % and 8.3 k/s ± 2.7 %
//! so placed, ± 5 % with only the clients pinned or nothing pinned, and half
//! the rate, ± 12 %, with both server threads on one CPU. What this placement
//! cannot show is a gain from running one request's work on two CPUs at once;
//! no such path exists today, and `serve_mixed` is where the server's threads
//! do run in parallel.

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: room for 1024 CPUs, the kernel's `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, lowest first; empty where the
/// platform cannot say.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size the
        // call is told; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0 {
            return (0..MASK_WORDS * 64)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Pin thread `tid` of this process (0 = the calling thread) to `cpu`.
fn pin(tid: i32, cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        if cpu < MASK_WORDS * 64 {
            mask[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: `mask` is a live buffer of exactly the size the call is
            // told, and the call only reads it; `tid` is 0 or a thread id read
            // from this process's own `/proc/self/task`.
            return unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) }
                == 0;
        }
    }
    let _ = (tid, cpu);
    false
}

/// Pin the calling thread — and every thread spawned from it afterwards — to
/// `cpu`. `false` where the platform has no such call or refuses it; the run
/// then goes on unpinned.
pub fn pin_current(cpu: usize) -> bool {
    pin(0, cpu)
}

/// Pin the threads of this process whose name starts with `prefix` to `cpu`;
/// `true` when at least one was found and pinned.
pub fn pin_named_thread(prefix: &str, cpu: usize) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut pinned = false;
    for task in tasks.flatten() {
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let tid = task.file_name().to_string_lossy().parse::<i32>();
        if let (true, Ok(tid)) = (name.starts_with(prefix), tid) {
            pinned |= pin(tid, cpu);
        }
    }
    pinned
}
