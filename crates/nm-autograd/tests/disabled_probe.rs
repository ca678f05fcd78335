//! Cost bound on the kernel profiler's disabled path: with profiling
//! off, an instrumented tape op pays one relaxed atomic load.
//!
//! This is an integration test so it runs in its own process. The
//! crate's unit tests call `profile::set_enabled(true)`, and any one of
//! them running alongside would put the probe on its enabled path.

use nm_obs::clock::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};

const N: u64 = 1_000_000;

/// Per-probe cost of the profiler's disabled path, in nanoseconds.
fn disabled_probe_ns() -> f64 {
    for _ in 0..10_000 {
        std::hint::black_box(nm_autograd::profile::disabled_probe());
    }
    let sw = Stopwatch::start();
    for _ in 0..N {
        std::hint::black_box(nm_autograd::profile::disabled_probe());
    }
    sw.elapsed_us() as f64 * 1000.0 / N as f64
}

#[test]
fn disabled_profiler_probe_stays_near_a_relaxed_load() {
    // Profiling is off by default; be explicit about the path measured.
    nm_autograd::profile::set_enabled(false);
    let probe = disabled_probe_ns();
    // Machine-scaled reference: a bare relaxed load in the same loop
    // shape.
    let a = AtomicU64::new(1);
    let sw = Stopwatch::start();
    let mut acc = 0u64;
    for _ in 0..N {
        acc = acc.wrapping_add(std::hint::black_box(&a).load(Ordering::Relaxed));
    }
    std::hint::black_box(acc);
    let load_ns = (sw.elapsed_us() as f64 * 1000.0 / N as f64).max(0.1);
    // Debug builds don't inline the probe, so the multiple is loose
    // there; release asserts the real contract.
    let limit = if cfg!(debug_assertions) {
        (200.0 * load_ns).max(2_000.0)
    } else {
        (25.0 * load_ns).max(250.0)
    };
    assert!(
        probe < limit,
        "disabled profiler probe costs {probe:.1}ns, limit {limit:.1}ns \
         (relaxed load: {load_ns:.2}ns) — with profiling off an \
         instrumented op must stay within a small multiple of one \
         relaxed atomic load"
    );
}
