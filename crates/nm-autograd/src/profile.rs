//! The kernel-level training profiler.
//!
//! Attributes forward and backward self-time, modeled FLOPs/bytes (via
//! [`crate::cost`]), and tensor-allocation traffic (via
//! `nm_tensor::alloc`) to each op kind in the [`crate::OP_KINDS`]
//! registry. Timing flows through the `nm_obs` monotonic clock — the
//! sanctioned wall-clock domain — at nanosecond resolution, because a
//! single tape op on a probe-sized model runs well under a
//! microsecond.
//!
//! Discipline matches the PR 3 tracer: disabled (the default), every
//! instrumented op costs exactly one relaxed atomic load
//! ([`op_start`] returns `None` and the finish hook is skipped).
//! Aggregates are thread-local, like `nm_obs::trace`'s span
//! aggregates: the training loop drains its own thread's table with
//! [`take`] (or reads it with [`snapshot`]), so no cross-thread
//! synchronization ever sits on the kernel path.

use crate::cost::{self, OpDims};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether per-op profiling is on. One relaxed load — the entire cost
/// of an instrumented op when disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns per-op profiling on or off (process-global; the aggregate
/// tables stay thread-local).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Per-op-kind aggregate: call counts, self-time, modeled work, and
/// allocation traffic, split by pass direction where it matters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpAgg {
    pub fwd_calls: u64,
    pub fwd_ns: u64,
    pub fwd_flops: u64,
    pub fwd_bytes: u64,
    pub bwd_calls: u64,
    pub bwd_ns: u64,
    pub bwd_flops: u64,
    pub bwd_bytes: u64,
    /// Tensor bytes allocated while this op (either pass) ran.
    pub alloc_b: u64,
    /// Tensor bytes freed while this op (either pass) ran.
    pub freed_b: u64,
}

impl OpAgg {
    /// Folds another aggregate into this one — public so callers that
    /// combine tables across trainer calls (the streaming loop) don't
    /// have to reimplement the field list.
    pub fn merge(&mut self, other: &OpAgg) {
        self.fwd_calls += other.fwd_calls;
        self.fwd_ns += other.fwd_ns;
        self.fwd_flops += other.fwd_flops;
        self.fwd_bytes += other.fwd_bytes;
        self.bwd_calls += other.bwd_calls;
        self.bwd_ns += other.bwd_ns;
        self.bwd_flops += other.bwd_flops;
        self.bwd_bytes += other.bwd_bytes;
        self.alloc_b += other.alloc_b;
        self.freed_b += other.freed_b;
    }
}

thread_local! {
    static TABLE: RefCell<BTreeMap<&'static str, OpAgg>> = const { RefCell::new(BTreeMap::new()) };
}

/// An in-flight op measurement: start tick plus the allocation
/// counters at entry, so the finish hook can attribute deltas.
pub(crate) struct OpTimer {
    t0_ns: u64,
    alloc0: u64,
    freed0: u64,
}

/// Starts timing one op. `None` when profiling is disabled — the
/// caller skips the finish hook entirely, so the disabled path is the
/// single relaxed load inside [`enabled`].
#[inline]
pub(crate) fn op_start() -> Option<OpTimer> {
    if !enabled() {
        return None;
    }
    let (alloc0, freed0) = nm_tensor::alloc::counters();
    Some(OpTimer {
        t0_ns: nm_obs::clock::now_ns(),
        alloc0,
        freed0,
    })
}

/// Probe for the disabled path: runs exactly what an instrumented op
/// runs when profiling is off ([`op_start`] taking its early-out and
/// returning `None`). Public so the bound test in
/// `tests/disabled_probe.rs` can hold the one-relaxed-load contract
/// without reaching into crate internals. Returns whether the probe
/// stayed on the disabled path, so callers can `black_box` something
/// real.
#[inline]
pub fn disabled_probe() -> bool {
    op_start().is_none()
}

/// CI self-test knob for the differential profile gate: a value of the
/// form `kind` or `kind:factor` makes every instrumented run of that
/// op spin until it has taken `factor`× (default 2×) its measured
/// time. The spin sits inside the measured window, so the recorded
/// self-time genuinely grows — the injected per-op slowdown
/// `obs profile --compare` must catch. Never set outside CI.
fn slow_op() -> Option<(&'static str, u64)> {
    static SLOW: OnceLock<Option<(String, u64)>> = OnceLock::new();
    SLOW.get_or_init(|| {
        let v = std::env::var("NMCDR_PROF_SLOW_OP").ok()?;
        let (kind, factor) = match v.split_once(':') {
            Some((k, f)) => (k.to_string(), f.parse().unwrap_or(2)),
            None => (v, 2),
        };
        Some((kind, factor.max(2)))
    })
    .as_ref()
    .map(|(k, f)| (k.as_str(), *f))
}

fn elapsed_with_injection(kind: &'static str, t0_ns: u64) -> u64 {
    let elapsed = nm_obs::clock::now_ns().saturating_sub(t0_ns);
    let Some((slow_kind, factor)) = slow_op() else {
        return elapsed;
    };
    if slow_kind != kind {
        return elapsed;
    }
    // Busy-spin until the op has taken `factor`× its natural time (at
    // least 1us so zero-length ops still visibly slow down).
    let target = t0_ns + (elapsed * factor).max(1_000);
    let mut now = nm_obs::clock::now_ns();
    while now < target {
        std::hint::spin_loop();
        now = nm_obs::clock::now_ns();
    }
    now.saturating_sub(t0_ns)
}

fn record(kind: &'static str, f: impl FnOnce(&mut OpAgg)) {
    TABLE.with(|t| f(t.borrow_mut().entry(kind).or_default()));
}

/// Finishes a forward-pass measurement for `kind`.
pub(crate) fn op_finish_fwd(t: OpTimer, kind: &'static str, dims: &OpDims) {
    let ns = elapsed_with_injection(kind, t.t0_ns);
    let (alloc1, freed1) = nm_tensor::alloc::counters();
    let c = cost::cost_for(kind, dims).unwrap_or_default();
    record(kind, |agg| {
        agg.fwd_calls += 1;
        agg.fwd_ns += ns;
        agg.fwd_flops += c.fwd_flops;
        agg.fwd_bytes += c.fwd_bytes;
        agg.alloc_b += alloc1.saturating_sub(t.alloc0);
        agg.freed_b += freed1.saturating_sub(t.freed0);
    });
}

/// Finishes a backward-pass measurement for `kind`.
pub(crate) fn op_finish_bwd(t: OpTimer, kind: &'static str, dims: &OpDims) {
    let ns = elapsed_with_injection(kind, t.t0_ns);
    let (alloc1, freed1) = nm_tensor::alloc::counters();
    let c = cost::cost_for(kind, dims).unwrap_or_default();
    record(kind, |agg| {
        agg.bwd_calls += 1;
        agg.bwd_ns += ns;
        agg.bwd_flops += c.bwd_flops;
        agg.bwd_bytes += c.bwd_bytes;
        agg.alloc_b += alloc1.saturating_sub(t.alloc0);
        agg.freed_b += freed1.saturating_sub(t.freed0);
    });
}

/// Copies this thread's per-op aggregates, sorted by op kind.
pub fn snapshot() -> Vec<(&'static str, OpAgg)> {
    TABLE.with(|t| t.borrow().iter().map(|(k, v)| (*k, *v)).collect())
}

/// Drains this thread's per-op aggregates (returns and resets), sorted
/// by op kind.
pub fn take() -> Vec<(&'static str, OpAgg)> {
    TABLE.with(|t| std::mem::take(&mut *t.borrow_mut()).into_iter().collect())
}

/// Clears this thread's per-op aggregates.
pub fn reset() {
    TABLE.with(|t| t.borrow_mut().clear());
}

/// Folds a drained table into an accumulator keyed by kind — how the
/// trainer combines per-epoch drains into the run-level profile.
pub fn merge_into(acc: &mut BTreeMap<&'static str, OpAgg>, part: &[(&'static str, OpAgg)]) {
    for (kind, agg) in part {
        acc.entry(kind).or_default().merge(agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use nm_tensor::Tensor;

    // Profiling is process-global but tables are thread-local; run
    // each test in its own thread so a parallel test harness can't
    // interleave tables, and serialize the global toggle.
    fn with_profiling<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        use std::sync::Mutex;
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        std::thread::scope(|s| {
            s.spawn(|| {
                set_enabled(true);
                reset();
                let r = f();
                set_enabled(false);
                r
            })
            .join()
            .expect("profiled thread panicked")
        })
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        set_enabled(false);
        reset();
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros(4, 4));
        let y = t.relu(x);
        let l = t.sum_all(y);
        t.backward(l);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn forward_and_backward_are_attributed_per_kind() {
        let table = with_profiling(|| {
            let mut t = Tape::new();
            let a = t.leaf(Tensor::ones(3, 4));
            let b = t.leaf(Tensor::ones(4, 5));
            let c = t.matmul(a, b);
            let l = t.sum_all(c);
            t.backward(l);
            take()
        });
        let get = |k: &str| {
            table
                .iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, a)| *a)
                .unwrap_or_else(|| panic!("no aggregate for {k}"))
        };
        let mm = get("matmul");
        assert_eq!(mm.fwd_calls, 1);
        assert_eq!(mm.bwd_calls, 1);
        assert_eq!(mm.fwd_flops, 2 * 3 * 4 * 5);
        assert_eq!(mm.bwd_flops, 4 * 3 * 4 * 5);
        assert_eq!(get("leaf").fwd_calls, 2);
        let sum = get("sum_all");
        assert_eq!(sum.fwd_calls, 1);
        assert_eq!(sum.bwd_calls, 1);
        // take() drained the table
        assert!(snapshot().is_empty());
    }

    #[test]
    fn allocation_traffic_is_attributed_to_the_allocating_op() {
        let table = with_profiling(|| {
            nm_tensor::alloc::reset();
            nm_tensor::alloc::set_enabled(true);
            let mut t = Tape::new();
            let a = t.leaf(Tensor::zeros(8, 8));
            let _r = t.relu(a); // relu output: 8*8*4 = 256 fresh bytes
            let out = take();
            nm_tensor::alloc::set_enabled(false);
            out
        });
        let relu = table
            .iter()
            .find(|(k, _)| *k == "relu")
            .map(|(_, a)| *a)
            .expect("relu aggregate");
        assert!(
            relu.alloc_b >= 256,
            "relu attributed only {} alloc bytes",
            relu.alloc_b
        );
    }

    #[test]
    fn merge_folds_partial_drains() {
        let mut acc = BTreeMap::new();
        let part = vec![(
            "matmul",
            OpAgg {
                fwd_calls: 2,
                fwd_flops: 100,
                ..Default::default()
            },
        )];
        merge_into(&mut acc, &part);
        merge_into(&mut acc, &part);
        assert_eq!(acc["matmul"].fwd_calls, 4);
        assert_eq!(acc["matmul"].fwd_flops, 200);
    }
}
