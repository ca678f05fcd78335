//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, all lock-free atomics on the record path so hot loops
//! never block. Registration (name → handle) goes through a mutex, but
//! callers hold `Arc` handles and only touch the map at startup.
//!
//! Naming scheme: dotted lowercase paths, coarsest component first —
//! `serve.requests`, `serve.cache.hits`, `train.grad_norm`. Histograms
//! carry their unit as the last path segment (`serve.latency_us`).

use nm_sync::backend::lock_recover;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Histogram bucket upper bounds in microseconds used for latency-style
/// distributions; the implicit last bucket is +inf overflow. Roughly
/// logarithmic from 10 µs to 1 s.
pub const LATENCY_BOUNDS_US: [u64; 15] = [
    10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 500_000,
    1_000_000,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram over `u64` samples (typically microseconds).
///
/// Samples above the largest bound land in an explicit overflow bucket
/// and the maximum recorded sample is tracked separately, so tail
/// quantiles stay honest: a quantile that falls in the overflow bucket
/// reports the observed maximum instead of silently clamping to the
/// largest configured bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The standard latency histogram ([`LATENCY_BOUNDS_US`]).
    pub fn latency() -> Self {
        Self::with_bounds(&LATENCY_BOUNDS_US)
    }

    pub fn record(&self, sample: u64) {
        let idx = self.bounds.partition_point(|&b| b < sample);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sample, Ordering::Relaxed);
        self.max.fetch_max(sample, Ordering::Relaxed);
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Largest sample ever recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Samples that exceeded the largest configured bound.
    pub fn overflow_count(&self) -> u64 {
        self.buckets[self.bounds.len()].load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile: the upper bound of the bucket
    /// containing that quantile. A quantile landing in the overflow
    /// bucket reports the maximum recorded sample (which is ≥ the last
    /// bound) rather than clamping to the last bound. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return match self.bounds.get(i) {
                    Some(&bound) => bound,
                    // overflow bucket: report the honest tail
                    None => self.max(),
                };
            }
        }
        self.max()
    }

    /// The configured bucket upper bounds (excludes overflow).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Raw bucket counts, `bounds.len() + 1` entries, last = overflow.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Raw (underived) view of this histogram, for delta computation.
    pub fn raw(&self) -> RawHistogram {
        RawHistogram {
            bounds: self.bounds.clone(),
            buckets: self.bucket_counts(),
            sum: self.sum(),
            max: self.max(),
        }
    }

    /// Snapshot of the derived statistics. Each field is its own
    /// `Relaxed` load, and [`Histogram::record`] orders none of its
    /// stores against another thread's reads, so while records are in
    /// flight the fields can disagree by those records: a count that
    /// misses a bucket already counted, a sum ahead of the count. For
    /// that reason [`RawHistogram`] derives its count from the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
            overflow_count: self.overflow_count(),
        }
    }
}

/// Raw bucket-level view of one histogram: the inputs the flight
/// recorder diffs, as opposed to the derived [`HistogramSnapshot`].
///
/// `count` is deliberately *derived* from the buckets rather than read
/// from the count atomic: under concurrent recording the bucket reads
/// and the count read can tear against each other, but a bucket-summed
/// count is always self-consistent with the buckets it came from — the
/// property the series layer's delta conservation depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawHistogram {
    /// Configured upper bounds (overflow bucket excluded).
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` counts; last is overflow.
    pub buckets: Vec<u64>,
    /// Sum of recorded samples (approximate under races — read from a
    /// separate atomic than the buckets).
    pub sum: u64,
    /// Largest sample ever recorded.
    pub max: u64,
}

impl RawHistogram {
    /// Total samples, summed from the buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Derived statistics of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub mean: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
    pub overflow_count: u64,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A namespace of metrics. Handles are `Arc`s: register once at
/// startup, then update lock-free.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = lock_recover(&self.inner);
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = lock_recover(&self.inner);
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get-or-create the histogram `name`. The bounds apply only on
    /// first registration; later callers get the existing histogram.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut inner = lock_recover(&self.inner);
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::with_bounds(bounds))),
        )
    }

    /// Point-in-time snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock_recover(&self.inner);
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Raw snapshot — bucket-level histograms instead of derived
    /// statistics — for the flight recorder's delta computation.
    pub fn raw_snapshot(&self) -> RawSnapshot {
        let inner = lock_recover(&self.inner);
        RawSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.raw()))
                .collect(),
        }
    }
}

/// Raw counterpart of [`RegistrySnapshot`]: cumulative counter values,
/// gauge samples, and bucket-level histograms, names sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, RawHistogram)>,
}

/// A consistent-enough view of a registry (each metric is read
/// atomically; the set is read under the registration lock).
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// JSON-safe float formatting (JSON has no NaN/Inf literals).
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("x.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same name → same handle
        r.counter("x.count").inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("x.rate");
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn quantiles_land_in_expected_buckets() {
        let h = Histogram::latency();
        for _ in 0..90 {
            h.record(5);
        }
        for _ in 0..10 {
            h.record(3_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 10);
        assert_eq!(h.quantile(0.95), 5_000);
        assert_eq!(h.quantile(0.99), 5_000);
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::latency();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn single_bucket_histogram_quantiles() {
        let h = Histogram::with_bounds(&[100]);
        h.record(7);
        assert_eq!(h.quantile(0.0), 100);
        assert_eq!(h.quantile(1.0), 100);
        h.record(500); // overflow
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.quantile(1.0), 500);
    }

    #[test]
    fn overflow_quantile_reports_observed_max_not_last_bound() {
        let h = Histogram::latency();
        h.record(10_000_000); // 10 s, way past the 1 s last bound
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.max(), 10_000_000);
        // the old behaviour clamped this to 1_000_000, underreporting
        // tail latency by 10x
        assert_eq!(h.quantile(0.5), 10_000_000);
        // mixed: 99 fast samples + 1 overflow — p50 stays in-bounds,
        // p100 is the honest max
        for _ in 0..99 {
            h.record(5);
        }
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(1.0), 10_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::latency());
        let threads = 8;
        let per = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..per {
                        h.record(((t * per + i) % 2_000) as u64);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), (threads * per) as u64);
        let total: u64 = (0..threads * per).map(|i| (i % 2_000) as u64).sum();
        assert_eq!(h.mean(), total / (threads * per) as u64);
        assert_eq!(h.max(), 1_999);
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let c = std::sync::Arc::new(Counter::new());
        let threads = 8;
        let per = 10_000;
        let start = std::sync::Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                let start = std::sync::Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    for i in 0..per {
                        if (t + i) % 2 == 0 {
                            c.inc();
                        } else {
                            c.add(3);
                        }
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        // half the calls add 1, half add 3
        assert_eq!(c.get(), (threads * per / 2 * 4) as u64);
    }

    #[test]
    fn snapshot_names_are_sorted() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.gauge("d.g");
        r.gauge("c.g");
        r.histogram("f.h", &LATENCY_BOUNDS_US);
        r.histogram("e.h", &LATENCY_BOUNDS_US);
        let snap = r.snapshot();
        let counters: Vec<_> = snap
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        assert_eq!(counters, [("a.one", 1), ("b.two", 2)]);
        let gauges: Vec<_> = snap.gauges.iter().map(|g| g.0.as_str()).collect();
        assert_eq!(gauges, ["c.g", "d.g"]);
        let histograms: Vec<_> = snap.histograms.iter().map(|h| h.0.as_str()).collect();
        assert_eq!(histograms, ["e.h", "f.h"]);
    }
}
