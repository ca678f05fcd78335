//! Serving observability, backed by the workspace-wide [`nm_obs`]
//! metrics registry: the serve counters and the latency histogram are
//! registered under `serve.*` names in one [`Registry`], so the `obs`
//! wire request, the training telemetry, and process-local snapshots
//! all share a single implementation and JSON format.

use nm_obs::clock::Stopwatch;
use nm_obs::json::Json;
use nm_obs::{Counter, Histogram, HistogramSnapshot, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Back-compat alias: the old `nm-serve` latency histogram is now the
/// shared [`nm_obs::Histogram`] (same buckets, plus overflow-aware
/// quantiles and a tracked max).
pub type LatencyHistogram = Histogram;

/// Counters shared by the retrieval engine and the TCP server.
///
/// Fields are `Arc` handles into the registry: update them lock-free
/// on the hot path, and read the whole set via [`Stats::obs_json`].
#[derive(Debug)]
pub struct Stats {
    started: Stopwatch,
    registry: Registry,
    pub requests: Arc<Counter>,
    pub errors: Arc<Counter>,
    /// Connections refused with an `overloaded` error (load shedding).
    pub shed: Arc<Counter>,
    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    /// Scoring passes executed (each may serve several requests).
    pub batches: Arc<Counter>,
    /// Requests that shared a scoring pass with at least one other.
    pub coalesced: Arc<Counter>,
    pub latency: Arc<Histogram>,
    // --- resilience (see DESIGN.md "Failure model & degraded modes") ---
    /// Scoring jobs that panicked (caught by the worker or the batch
    /// leader that ran them, which both keep serving).
    pub worker_panics: Arc<Counter>,
    /// In-place restarts of the accept loop after a panic.
    pub accept_restarts: Arc<Counter>,
    /// Shard attempts re-run after a failure (retry budget).
    pub shard_retried: Arc<Counter>,
    /// Shards that stayed failed after the retry budget was spent.
    pub shard_failures: Arc<Counter>,
    /// Circuit-breaker trips (closed→open and reopen-after-probe).
    pub breaker_opens: Arc<Counter>,
    /// Cooldown expiries admitting a half-open probe.
    pub breaker_half_opens: Arc<Counter>,
    /// Probes that succeeded and closed the breaker.
    pub breaker_closes: Arc<Counter>,
    /// Shard passes shed by an open breaker.
    pub breaker_short_circuits: Arc<Counter>,
    /// Answers covering only the surviving slice of the catalog.
    pub degraded_partial: Arc<Counter>,
    /// Answers served from the epoch-agnostic stale cache.
    pub degraded_stale: Arc<Counter>,
    /// Empty answers (no fallback was available).
    pub degraded_unavailable: Arc<Counter>,
    /// Requests shed because their deadline expired before an answer.
    pub deadline_shed: Arc<Counter>,
    /// Successful snapshot reloads.
    pub reload_ok: Arc<Counter>,
    /// Rejected reloads (validation or injected failure).
    pub reload_failed: Arc<Counter>,
    /// Connections closed after an idle/read timeout (structured error
    /// sent first).
    pub proto_timeouts: Arc<Counter>,
    /// Frames rejected for exceeding the frame-size limit.
    pub proto_oversized: Arc<Counter>,
    /// Frames cut mid-line (no trailing newline before EOF).
    pub proto_torn: Arc<Counter>,
    /// Frames rejected as invalid UTF-8 / unparseable before dispatch.
    pub proto_malformed: Arc<Counter>,
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl Stats {
    pub fn new() -> Self {
        let registry = Registry::new();
        Self {
            started: Stopwatch::start(),
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            shed: registry.counter("serve.shed"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            batches: registry.counter("serve.batches"),
            coalesced: registry.counter("serve.coalesced"),
            latency: registry.histogram("serve.latency_us", &nm_obs::LATENCY_BOUNDS_US),
            worker_panics: registry.counter("serve.worker.panics"),
            accept_restarts: registry.counter("serve.accept.restarts"),
            shard_retried: registry.counter("serve.shard.retried"),
            shard_failures: registry.counter("serve.shard.failures"),
            breaker_opens: registry.counter("serve.breaker.opens"),
            breaker_half_opens: registry.counter("serve.breaker.half_opens"),
            breaker_closes: registry.counter("serve.breaker.closes"),
            breaker_short_circuits: registry.counter("serve.breaker.short_circuits"),
            degraded_partial: registry.counter("serve.degraded.partial"),
            degraded_stale: registry.counter("serve.degraded.stale"),
            degraded_unavailable: registry.counter("serve.degraded.unavailable"),
            deadline_shed: registry.counter("serve.deadline.shed"),
            reload_ok: registry.counter("serve.reload.ok"),
            reload_failed: registry.counter("serve.reload.failed"),
            proto_timeouts: registry.counter("serve.proto.timeout"),
            proto_oversized: registry.counter("serve.proto.oversized"),
            proto_torn: registry.counter("serve.proto.torn"),
            proto_malformed: registry.counter("serve.proto.malformed"),
            registry,
        }
    }

    /// Total degraded answers across modes (conservation partner of the
    /// per-mode counters; asserted by the chaos harness).
    pub fn degraded_total(&self) -> u64 {
        self.degraded_partial.get() + self.degraded_stale.get() + self.degraded_unavailable.get()
    }

    /// The underlying registry (e.g. to register extra metrics).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn uptime(&self) -> Duration {
        Duration::from_micros(self.started.elapsed_us())
    }

    /// Completed-request throughput since start.
    pub fn qps(&self) -> f64 {
        let secs = self.uptime().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.latency.count() as f64 / secs
        }
    }

    /// Fraction of cache lookups that hit (0.0 when no lookups yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.get() as f64;
        let total = hits + self.cache_misses.get() as f64;
        if total <= 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    fn latency_json(h: &HistogramSnapshot) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(h.count as f64)),
            ("mean".into(), Json::Num(h.mean as f64)),
            ("p50".into(), Json::Num(h.p50 as f64)),
            ("p95".into(), Json::Num(h.p95 as f64)),
            ("p99".into(), Json::Num(h.p99 as f64)),
            ("max".into(), Json::Num(h.max as f64)),
            ("overflow_count".into(), Json::Num(h.overflow_count as f64)),
        ])
    }

    /// Snapshot as a JSON object for the `stats` wire request (legacy
    /// flat shape, kept stable for existing consumers).
    pub fn to_json(&self) -> Json {
        let g = |c: &Counter| Json::Num(c.get() as f64);
        Json::Obj(vec![
            ("uptime_secs".into(), Json::Num(self.uptime().as_secs_f64())),
            ("requests".into(), g(&self.requests)),
            ("errors".into(), g(&self.errors)),
            ("shed".into(), g(&self.shed)),
            ("cache_hits".into(), g(&self.cache_hits)),
            ("cache_misses".into(), g(&self.cache_misses)),
            ("batches".into(), g(&self.batches)),
            ("coalesced".into(), g(&self.coalesced)),
            ("qps".into(), Json::Num(self.qps())),
            (
                "latency_us".into(),
                Self::latency_json(&self.latency.snapshot()),
            ),
        ])
    }

    /// Full unified registry snapshot for the `obs` wire request:
    /// every registered counter/gauge/histogram by name, plus derived
    /// rates the registry itself cannot know.
    pub fn obs_json(&self) -> Json {
        let snap = self.registry.snapshot();
        let counters = Json::Obj(
            snap.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            snap.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            snap.histograms
                .iter()
                .map(|(k, h)| (k.clone(), Self::latency_json(h)))
                .collect(),
        );
        Json::Obj(vec![
            ("uptime_secs".into(), Json::Num(self.uptime().as_secs_f64())),
            ("qps".into(), Json::Num(self.qps())),
            ("cache_hit_rate".into(), Json::Num(self.cache_hit_rate())),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_land_in_expected_buckets() {
        let h = LatencyHistogram::latency();
        // 90 fast (≤10us bucket), 10 slow (≤5ms bucket)
        for _ in 0..90 {
            h.record_duration(Duration::from_micros(5));
        }
        for _ in 0..10 {
            h.record_duration(Duration::from_micros(3_000));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 10);
        assert_eq!(h.quantile(0.95), 5_000);
        assert_eq!(h.quantile(0.99), 5_000);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let h = LatencyHistogram::latency();
        h.record_duration(Duration::from_secs(10));
        // pre-fix this clamped to the last bound (1s), underreporting
        // tail latency by 10x
        assert_eq!(h.quantile(0.5), 10_000_000);
        assert_eq!(h.overflow_count(), 1);
    }

    #[test]
    fn stats_json_has_percentiles_and_overflow() {
        let s = Stats::new();
        s.requests.add(3);
        s.latency.record_duration(Duration::from_micros(100));
        let j = s.to_json();
        assert_eq!(j.get("requests").unwrap().as_f64(), Some(3.0));
        let lat = j.get("latency_us").unwrap();
        assert!(lat.get("p99").unwrap().as_f64().unwrap() >= 100.0);
        assert_eq!(lat.get("overflow_count").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn obs_json_exposes_unified_registry() {
        let s = Stats::new();
        s.cache_hits.add(3);
        s.cache_misses.inc();
        s.latency.record_duration(Duration::from_micros(50));
        let j = s.obs_json();
        let counters = j.get("counters").unwrap();
        assert_eq!(
            counters.get("serve.cache.hits").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(counters.get("serve.shed").unwrap().as_f64(), Some(0.0));
        assert_eq!(j.get("cache_hit_rate").unwrap().as_f64(), Some(0.75));
        let hist = j
            .get("histograms")
            .unwrap()
            .get("serve.latency_us")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(1.0));
        // extra metrics registered through the same registry show up
        s.registry().counter("serve.custom").add(7);
        let j2 = s.obs_json();
        assert_eq!(
            j2.get("counters")
                .unwrap()
                .get("serve.custom")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
    }
}
