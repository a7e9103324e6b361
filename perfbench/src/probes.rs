//! Outside-in probes: what the benchmark can see of the program without
//! touching its code — heap traffic through a counting global allocator,
//! CPU time per process and per thread, and the resident-set high-water
//! mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The system allocator with relaxed counters in front. Counting is off
/// unless [`count_allocations`] turned it on, so untraced runs pay one
/// relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters are
// plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn allocation counting on or off for every thread of the process.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (a `realloc` counts as one) and bytes requested since
/// the process started counting.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU time of the whole process, threads that have
/// already exited included, at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn ticks_per_sec() -> f64 {
    // SAFETY: sysconf has no memory-safety preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Parse utime + stime (fields 14 and 15, in clock ticks) out of a
/// `stat` line. The command name may hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat(line: &str) -> Option<u64> {
    let close = line.rfind(')')?;
    let rest: Vec<&str> = line.get(close + 2..)?.split_whitespace().collect();
    // rest[0] is field 3 (state).
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// CPU time from `/proc/self/task/*/stat`, split between the thread
/// `driver` (the benchmark's own) and every other live thread (the
/// program's). Threads that have exited are gone from the list, so read
/// a thread before it ends.
pub fn split_cpu(driver: u32) -> (Duration, Duration) {
    let tps = ticks_per_sec();
    let mut mine = Duration::ZERO;
    let mut others = Duration::ZERO;
    for entry in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let tid: Option<u32> = entry.file_name().to_str().and_then(|s| s.parse().ok());
        let stat = std::fs::read_to_string(entry.path().join("stat")).ok();
        let (Some(tid), Some(ticks)) = (tid, stat.as_deref().and_then(parse_stat)) else {
            continue;
        };
        let cpu = Duration::from_secs_f64(ticks as f64 / tps);
        if tid == driver {
            mine += cpu;
        } else {
            others += cpu;
        }
    }
    (mine, others)
}

/// `VmHWM` from `/proc/self/status`: the process's peak resident set,
/// in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_odd_command_names() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(150));
    }
}
