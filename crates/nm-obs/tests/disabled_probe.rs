//! Cost bound on the disabled trace probe: with no sink installed, a
//! span costs one relaxed atomic load plus call overhead.
//!
//! This is an integration test so it runs in its own process. The
//! crate's unit tests install process-wide sinks through
//! `trace::scoped`, and any one of them running alongside would put
//! the probe on its enabled path.

use nm_obs::clock::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};

const N: u64 = 1_000_000;

/// Per-probe cost of a disabled trace span, in nanoseconds.
fn disabled_probe_ns() -> f64 {
    for _ in 0..10_000 {
        let _g = nm_obs::trace::span(std::hint::black_box("bench.probe"));
    }
    let sw = Stopwatch::start();
    for _ in 0..N {
        let _g = nm_obs::trace::span(std::hint::black_box("bench.probe"));
    }
    sw.elapsed_us() as f64 * 1000.0 / N as f64
}

#[test]
fn disabled_probe_stays_near_a_relaxed_load() {
    let probe = disabled_probe_ns();
    // Reference cost: a bare relaxed atomic load in the same loop
    // shape, so the bound scales with the machine instead of being
    // an absolute number that flakes on slow CI hosts.
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
        "disabled trace probe costs {probe:.1}ns, limit {limit:.1}ns \
         (relaxed load: {load_ns:.2}ns) — the disabled path must stay \
         within a small multiple of one relaxed atomic load"
    );
}
