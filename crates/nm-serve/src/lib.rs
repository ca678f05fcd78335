//! # nm-serve — online inference & top-K retrieval
//!
//! Serving layer for trained NMCDR models and baselines:
//!
//! * [`snapshot`] — a frozen, versioned binary export (`NMSS`) of the
//!   user/item embedding tables and prediction heads, produced from a
//!   trained model via the [`FrozenModel`] trait;
//! * [`engine`] — a batched, multi-threaded top-K scoring engine with
//!   work-stealing over item shards, request coalescing, and a sharded
//!   LRU result cache; a scoring job that panics is caught by the
//!   thread that ran it, which counts it and keeps serving;
//! * [`server`] + [`protocol`] — a `std::net` TCP server speaking
//!   newline-delimited JSON;
//! * [`stats`] — QPS counters and latency histograms, registered in a
//!   shared [`nm_obs`] metrics registry (served raw by the `obs` op);
//! * [`reqtrace`] — per-request stage timing, the slowest-N exemplar
//!   ring, and its rendering to the schema-v1 trace format (served by
//!   the `trace` op);
//! * per-shard circuit breakers ([`nm_sync::breaker`]) with
//!   pass-ordinal (not wall-clock) cooldowns and single-probe half-open
//!   recovery;
//! * [`chaos`] — deterministic fault injection ([`ChaosConfig`]) keyed
//!   on logical coordinates, plus clock-free [`Deadline`]s; same seed,
//!   same fault schedule, same responses (see DESIGN.md "Failure model
//!   & degraded modes").
//!
//! Everything is `std`-only; the crate adds no external dependencies.

pub mod cache;
pub mod chaos;
pub mod engine;
pub mod protocol;
pub mod reqtrace;
pub mod server;
pub mod snapshot;
pub mod stats;

pub use cache::{CacheKey, CachedList, ShardedLru};
pub use chaos::{seeded_backoff, Chaos, ChaosConfig, Deadline};
pub use engine::{Engine, EngineConfig, EngineScorer, ResilienceConfig};
pub use nm_sync::breaker::BreakerConfig;
pub use protocol::Request;
pub use reqtrace::{DegradedKind, Exemplar, ExemplarRing, ReqTiming, StageUs};
pub use server::{Server, ServerConfig};
pub use snapshot::{DomainSnapshot, FrozenModel, HeadKind, MlpHead, Snapshot};
pub use stats::{LatencyHistogram, Stats};
