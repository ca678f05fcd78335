//! Allocation observability for tensor buffers.
//!
//! Every `Tensor` buffer creation funnels through
//! `Tensor::built`/`Clone` and every release through `Drop`/`into_vec`,
//! so four process-global counters can account for tensor memory
//! exactly: cumulative bytes allocated, cumulative bytes freed, live
//! bytes, and the peak of live bytes. The kernel profiler in
//! `nm-autograd` samples the cumulative counters around each op to
//! attribute allocation traffic per op kind.
//!
//! Discipline matches the PR 3 tracer: disabled (the default), every
//! hook is a single relaxed atomic load; enabled, hooks are a few
//! relaxed RMWs — cheap enough to leave on for a whole training run.
//! All ordering is `Relaxed`: the counters are statistics, not
//! synchronization, and the training loop that reads them is
//! single-threaded, which is also what makes the recorded byte counts
//! deterministic for a fixed seed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Whether tensor-buffer accounting is on. One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns accounting on or off. Enabling does not reset the counters;
/// call [`reset`] first for a clean window.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zeroes all four counters (start of a measurement window).
pub fn reset() {
    ALLOCATED.store(0, Ordering::Relaxed);
    FREED.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
}

/// Point-in-time view of the accounting counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Cumulative bytes of tensor buffers created since [`reset`].
    pub allocated_b: u64,
    /// Cumulative bytes of tensor buffers released since [`reset`].
    pub freed_b: u64,
    /// Bytes currently held by live tensors.
    pub live_b: u64,
    /// High-water mark of `live_b`.
    pub peak_b: u64,
}

/// Reads all counters (relaxed; exact on the single training thread).
pub fn stats() -> AllocStats {
    AllocStats {
        allocated_b: ALLOCATED.load(Ordering::Relaxed),
        freed_b: FREED.load(Ordering::Relaxed),
        live_b: LIVE.load(Ordering::Relaxed),
        peak_b: PEAK.load(Ordering::Relaxed),
    }
}

/// `(allocated, freed)` cumulative counters — the cheap pair the
/// per-op profiler deltas around each kernel call.
#[inline]
pub fn counters() -> (u64, u64) {
    (
        ALLOCATED.load(Ordering::Relaxed),
        FREED.load(Ordering::Relaxed),
    )
}

#[inline]
pub(crate) fn on_alloc(bytes: usize) {
    if !enabled() {
        return;
    }
    let b = bytes as u64;
    ALLOCATED.fetch_add(b, Ordering::Relaxed);
    let live = LIVE.fetch_add(b, Ordering::Relaxed) + b;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
pub(crate) fn on_free(bytes: usize) {
    if !enabled() {
        return;
    }
    let b = bytes as u64;
    FREED.fetch_add(b, Ordering::Relaxed);
    // Saturating: tensors created before accounting was enabled may be
    // freed inside the window; they must not wrap the live gauge.
    let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(b))
    });
}
