//! Process clocks, memory and host metadata.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn pthread_self() -> u64;
    fn pthread_getcpuclockid(thread: u64, clock_id: *mut i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock_id: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for) that outlives
    // the call; an unknown clock id makes the call fail, not misbehave.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

fn cpu_clock_s(clock_id: i32) -> f64 {
    read_clock(clock_id).unwrap_or_else(|| panic!("clock_gettime({clock_id}) failed"))
}

/// CPU seconds consumed so far by every thread of this process, at
/// nanosecond resolution (`/proc` tick counts are only 10 ms).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run so far. Time the hypervisor or
/// the scheduler gives to others does not advance it.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPU clock of one thread, readable from any thread of the process
/// while that thread runs.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// The calling thread's CPU clock.
    pub fn current() -> Self {
        let mut id = 0;
        // SAFETY: `pthread_self` has no preconditions, and `id` is a valid,
        // writable `clockid_t` that outlives the call.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut id) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        ThreadClock(id)
    }

    /// CPU seconds the thread has run so far; `None` once it has exited.
    pub fn now_s(self) -> Option<f64> {
        read_clock(self.0)
    }
}

/// A memory figure of this process from `/proc/self/status`, in MB.
fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} in /proc/self/status"));
    kb / 1024.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resident set size of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// CPU seconds the hypervisor gave to other guests while this machine's
/// CPUs wanted to run, summed over CPUs (`steal` in `/proc/stat`, counted
/// in 10 ms ticks). 0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result must carry so that a comparison across hosts is flagged
/// instead of being read as a gain.
pub fn metadata() -> serde_json::Value {
    let simd = lora_phy::simd::simd_report();
    serde_json::json!({
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "simd_backend": simd.backend,
        "simd_f64_lanes": simd.f64_lanes,
        "simd_forced": simd.forced,
    })
}
