//! The observability overhead guard: the instrumented gravity
//! micro-kernel with [`obs::NullSink`] must run within 2% of the plain
//! kernel. `NullSink`'s hooks are inlined empty functions, so the
//! instrumented build *is* the uninstrumented build — this test holds
//! the compiler (and future instrumentation changes) to that.
//!
//! The strict budget is asserted only in optimized builds: in debug
//! builds nothing is inlined and the comparison would measure the
//! unoptimized call overhead, not the contract. CI runs this test with
//! `--release` (see the observability job), where the guard bites.

use kernels::gravity_kernel::KernelBench;
use std::hint::black_box;

/// On-CPU seconds of this thread (`CLOCK_THREAD_CPUTIME_ID`, read the way
/// `hostbench::host` reads it). Wall time charges whichever side the
/// scheduler happened to preempt — with a 2 % budget that failed one
/// full-suite run in three — while a descheduled thread's CPU clock
/// stands still.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_s() -> f64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing; `ts` is a live, exclusively borrowed
    // value of exactly that layout on the targets this is compiled for.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere: wall seconds, as before.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The instrumented kernel may cost this much of the plain one.
const BUDGET: f64 = 1.02;
/// Rounds of min-of-25 before a ratio over budget stands.
const ROUNDS: usize = 8;

/// The two sides, each a function of its own: inlined into the timing
/// loop, the instrumented pass's inner-loop alignment — worth ±10 % on
/// this kernel — would change with every edit to the test around it.
#[inline(never)]
fn plain_pass(bench: &KernelBench) -> f64 {
    black_box(bench.run_karp()).pot
}

#[inline(never)]
fn nulled_pass(bench: &KernelBench) -> f64 {
    black_box(bench.run_karp_observed(&mut obs::NullSink)).pot
}

/// CPU-seconds one call of `f` takes.
fn time_s(f: impl FnOnce() -> f64) -> f64 {
    let t = thread_cpu_s();
    assert!(f().is_finite());
    thread_cpu_s() - t
}

#[test]
fn null_sink_overhead_is_within_budget() {
    let bench = KernelBench::new(48, 1536, 9);
    let reps = 25;
    // Warm up caches and frequency scaling before timing either side.
    plain_pass(&bench);
    nulled_pass(&bench);

    // Min-of-N timing: the minimum over repetitions estimates the noise
    // floor far more stably than the mean under CI scheduling jitter.
    // The sides alternate, so that a core that changes speed for tens of
    // milliseconds (a busy SMT sibling, a frequency step: ×1.4 on the CI
    // box) is seen by both minima or by neither. A round that misses the
    // budget is not a verdict yet — one side may not have reached its
    // floor — so the minima carry into another round: they only fall, and
    // a real overhead keeps the floors, and so every round, apart.
    let (mut plain, mut nulled) = (f64::INFINITY, f64::INFINITY);
    let mut ratio = f64::INFINITY;
    for _round in 0..ROUNDS {
        for _ in 0..reps {
            plain = plain.min(time_s(|| plain_pass(&bench)));
            nulled = nulled.min(time_s(|| nulled_pass(&bench)));
        }
        ratio = nulled / plain;
        if ratio <= BUDGET {
            break;
        }
    }
    eprintln!("overhead guard: plain {plain:.3e}s nulled {nulled:.3e}s ratio {ratio:.4}");

    if cfg!(debug_assertions) {
        // Unoptimized build: the hooks are real calls; only sanity-check
        // that instrumentation is not catastrophically expensive here.
        assert!(ratio < 3.0, "debug-build ratio {ratio}");
        return;
    }
    assert!(
        ratio <= BUDGET,
        "NullSink overhead {:.2}% exceeds the 2% budget (plain {plain:.3e}s, nulled {nulled:.3e}s)",
        (ratio - 1.0) * 100.0
    );
}

#[test]
fn enabled_sink_records_without_changing_results() {
    // The other side of the bargain: switching the sink on changes no
    // float anywhere.
    let bench = KernelBench::new(16, 256, 5);
    let mut rec = obs::Recorder::new(0, 1);
    let observed = bench.run_karp_observed(&mut rec);
    let plain = bench.run_karp();
    assert_eq!(observed.acc, plain.acc);
    assert_eq!(observed.pot, plain.pot);
    let tr = rec.finish(0.0);
    assert_eq!(
        tr.metrics.counter("kernel.interactions"),
        bench.interactions()
    );
}
