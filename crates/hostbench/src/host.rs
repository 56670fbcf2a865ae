//! The host clock and memory gauge.
//!
//! Host cost is gated in CPU-seconds, not wall seconds: on a shared box
//! a stolen core is paid many times over by polling rank threads, while
//! user+sys of the whole process repeats (README, sizing measurements).
//!
//! The clocks are the kernel's CPU-time clocks, read with
//! `clock_gettime`. `/proc/self/stat` carries the same process total
//! but in 10 ms ticks: repetitions of half a CPU-second then have
//! medians that land on the same tick run after run, and a benchmark
//! whose times read exactly the same on every run is refused.

use std::fs;

/// The benchmark measures on 64-bit Linux only: it reads the kernel's
/// CPU-time clocks and `/proc/self/status`. The crate sits in the
/// workspace's `crates/*` glob, so elsewhere it still has to build and
/// pass its unit tests: there `main` refuses to measure, and the two
/// clocks below fall back to wall seconds so that the smoke tests can
/// still drive every workload and oracle.
pub const SUPPORTED: bool = cfg!(all(target_os = "linux", target_pointer_width = "64"));

// Linux clock ids (`linux/time.h`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_s(clock_id: i32) -> f64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing; `ts` is a live, exclusively borrowed
    // value of exactly that layout (two 64-bit fields on the 64-bit
    // Linux targets this function is compiled for).
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_s(_clock_id: i32) -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// User+sys seconds of this process so far, every thread counted,
/// exited ones included.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU seconds of the calling thread alone: the timer for
/// single-threaded stage replays and for code inside a rank closure.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The kB value of one `Name:  123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// High-water resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&text, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// `32K`, `4096K` or `260M` as sysfs writes cache sizes.
pub fn parse_cache_size(text: &str) -> Option<u64> {
    let text = text.trim();
    if let Some(k) = text.strip_suffix('K') {
        k.parse::<u64>().ok()?.checked_mul(1 << 10)
    } else if let Some(m) = text.strip_suffix('M') {
        m.parse::<u64>().ok()?.checked_mul(1 << 20)
    } else {
        text.parse().ok()
    }
}

/// Size in bytes of the largest cache `cpu0` reports, or `None` where
/// sysfs does not say.
pub fn last_level_cache_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|index| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
            parse_cache_size(&fs::read_to_string(path).ok()?)
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parser_picks_the_named_line_only() {
        let text =
            "Name:\thostbench\nVmPeak:\t  999999 kB\nVmHWM:\t    1692 kB\nVmRSS:\t    1000 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(1692));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(1000));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 MB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
        assert_eq!(parse_cache_size("99999999999999999999K"), None);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn cpu_clocks_advance_with_work_and_count_other_threads() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let spin = || {
            let mut x = 0u64;
            for i in 0..3_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
        };
        spin();
        let mine = thread_cpu_s() - t0;
        assert!(mine > 0.0);
        // A second thread's work lands on the process clock, not on
        // this thread's, and stays there after the thread has exited.
        std::thread::spawn(spin).join().unwrap();
        let mine_after = thread_cpu_s() - t0;
        let all = process_cpu_s() - p0;
        assert!(all > mine_after, "process {all} vs thread {mine_after}");
        assert!(mine_after < 1.9 * mine + 1e-3, "{mine_after} vs {mine}");
        assert!(peak_rss_mb() > 0.1);
    }
}
