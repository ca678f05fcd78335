//! # nm-obs — workspace-wide observability substrate
//!
//! All `std`-only and shared by training, serving, and the benches:
//!
//! * [`clock`] — the sanctioned monotonic clock domain (`now_us`,
//!   `Stopwatch`); every duration measured anywhere in the workspace
//!   flows through here so `lint/no-wallclock` can forbid raw
//!   `Instant::now()` elsewhere.
//! * [`metrics`] — a registry of named counters, gauges, and
//!   fixed-bucket histograms behind lock-free atomics. The registry
//!   generalizes the counters `nm-serve` used to keep privately; one
//!   implementation and one JSON snapshot format now cover both the
//!   serving hot path and training telemetry.
//! * [`trace`] — hierarchical scoped spans (RAII guards over a
//!   thread-local span stack) and typed events, written as line-JSON to
//!   a pluggable sink. Installing a sink is a *runtime* decision; with
//!   no sink installed every probe is a single relaxed atomic load, so
//!   instrumented hot paths cost nothing in production. Span drops also
//!   feed per-thread aggregates (`calls / total / self` time and value
//!   sums) that the trainer drains once per epoch.
//! * [`json`] + [`parse`] — the dependency-free JSON value type (also
//!   re-exported by nm-serve for the wire protocol) with its strict
//!   object accessor, and the one line reader behind every artifact
//!   reader: traces (`nmcdr obs validate`), profile dumps and
//!   flight-recorder series.
//! * [`report`] — offline aggregation over a recorded trace: the
//!   self-time/total-time profile behind `nmcdr obs report` and the
//!   structural validator behind `nmcdr obs validate` / `scripts/ci.sh`.
//! * [`flame`] — collapsed-stack folding, self-contained SVG
//!   flamegraph rendering, and critical-path extraction behind
//!   `nmcdr obs flame`.
//! * [`profile`] — kernel-profile artifacts: the deterministic per-op
//!   dump written by `train --profile-out`, the roofline report and
//!   differential gate behind `nmcdr obs profile`, and the
//!   machine-peak micro-probes.
//! * [`series`] + [`slo`] — continuous telemetry: the flight recorder
//!   (a bounded drop-oldest ring of per-tick registry delta snapshots
//!   on a deterministic logical tick source), the windowed derivation
//!   engine (rates, ratios, delta-histogram quantiles over any tick
//!   range), and the multi-window burn-rate SLO engine behind
//!   `nmcdr obs tail` / `nmcdr obs slo` and the `{"op":"series"}`
//!   wire request.
//!
//! Tracing observes and never mutates: no RNG stream, step counter, or
//! parameter is touched by a span, so a traced training run stays
//! bit-identical to an untraced one (enforced by the fault harness).

pub mod clock;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod parse;
pub mod profile;
pub mod report;
pub mod series;
pub mod slo;
pub mod trace;

pub use flame::{critical_path, fold, render_collapsed, render_svg, CriticalPathRow};
pub use json::Json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot, LATENCY_BOUNDS_US,
};
pub use parse::parse_trace;
pub use profile::{
    parse_dump, probe_peaks, render_dump, AllocSummary, OpCounters, OpTiming, Peaks, ProfileDump,
};
pub use report::{validate, ProfileRow, TraceRecord, ValidateSummary};
pub use series::{
    render_tail, FlightRecorder, HistDelta, HistWindow, RecorderConfig, TickDelta, WindowStats,
};
pub use slo::{
    count_alerts, evaluate_series, parse_series, render_slo_report, BudgetRow, Objective, Series,
    SloDecision, SloEngine, SloSpec, Telemetry, TelemetryConfig,
};
pub use trace::{FileSink, MemorySink, SpanGuard, ThreadStats, TraceSink};
