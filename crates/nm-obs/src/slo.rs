//! Declarative SLOs with multi-window burn-rate alerting, evaluated
//! over the flight recorder's tick series.
//!
//! An [`SloSpec`] names an objective — a bad/total counter ratio
//! (errors, degraded answers, rollbacks) or a latency-above-limit ratio
//! derived from histogram bucket deltas — and a target bad fraction.
//! The **burn rate** of a window is `(bad/total) / target`: burn 1.0
//! consumes the error budget exactly at the allowed pace, burn 6.0
//! exhausts it six times too fast. Following the SRE multi-window
//! pattern, an alert fires only when **both** a fast window (quick
//! detection) and a slow window (noise suppression) burn at or above
//! the threshold and the fast window saw at least `min_events` — a
//! single bad request in an idle second does not page.
//!
//! Everything here is a pure function of the tick series, so same seed
//! ⇒ same series ⇒ same SLO decisions; the `nmcdr chaos` drill
//! byte-compares both across its two runs.

use crate::json::Json;
use crate::metrics::Registry;
use crate::parse::read_lines;
use crate::series::{FlightRecorder, RecorderConfig, TickDelta, WindowStats};
use crate::{clock::Stopwatch, trace};
use nm_sync::backend::lock_recover;
use std::fmt::Write as _;
use std::sync::Mutex;

/// What an SLO measures over a window.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `sum(bad counters) / total counter`.
    CounterRatio { bad: Vec<String>, total: String },
    /// Fraction of histogram samples strictly above `limit_us`
    /// (latency SLO; exact when the limit is a configured bound).
    HistAbove { hist: String, limit_us: u64 },
}

impl Objective {
    /// (bad, total) event counts of this objective over a window.
    pub fn measure(&self, w: &WindowStats) -> (u64, u64) {
        match self {
            Objective::CounterRatio { bad, total } => (w.counter_sum(bad), w.counter(total)),
            Objective::HistAbove { hist, limit_us } => match w.hists.get(hist) {
                Some(h) => (h.above(*limit_us), h.count),
                None => (0, 0),
            },
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Objective::CounterRatio { bad, total } => Json::Obj(vec![
                ("kind".into(), Json::Str("counter_ratio".into())),
                (
                    "bad".into(),
                    Json::Arr(bad.iter().map(|b| Json::Str(b.clone())).collect()),
                ),
                ("total".into(), Json::Str(total.clone())),
            ]),
            Objective::HistAbove { hist, limit_us } => Json::Obj(vec![
                ("kind".into(), Json::Str("hist_above".into())),
                ("hist".into(), Json::Str(hist.clone())),
                ("limit_us".into(), Json::Num(*limit_us as f64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("kind").and_then(Json::as_str) {
            Some("counter_ratio") => {
                let f = v.fields("counter_ratio objective", &["kind", "bad", "total"])?;
                let bad = f
                    .arr("bad")?
                    .iter()
                    .map(|j| {
                        j.as_str()
                            .map(String::from)
                            .ok_or_else(|| "'bad' entries must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Objective::CounterRatio {
                    bad,
                    total: f.str("total")?.to_string(),
                })
            }
            Some("hist_above") => {
                let f = v.fields("hist_above objective", &["kind", "hist", "limit_us"])?;
                Ok(Objective::HistAbove {
                    hist: f.str("hist")?.to_string(),
                    limit_us: f.u64("limit_us")?,
                })
            }
            Some(other) => Err(format!("unknown objective kind '{other}'")),
            None => Err("objective is not an object with a string 'kind'".into()),
        }
    }
}

/// One declarative objective plus its burn-rate alert policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub name: String,
    pub objective: Objective,
    /// Allowed bad fraction (e.g. 0.01 = 1% error budget).
    pub target: f64,
    /// Fast detection window, in ticks.
    pub fast_window: usize,
    /// Slow confirmation window, in ticks.
    pub slow_window: usize,
    /// Both windows must burn at ≥ this multiple of the budget pace.
    pub burn_threshold: f64,
    /// The fast window must contain at least this many total events.
    pub min_events: u64,
}

impl SloSpec {
    /// The default serving objectives: p99 latency, error ratio, and
    /// degraded-answer ratio.
    pub fn serve_defaults() -> Vec<SloSpec> {
        vec![
            SloSpec {
                name: "serve-p99".into(),
                objective: Objective::HistAbove {
                    hist: "serve.latency_us".into(),
                    limit_us: 5_000,
                },
                target: 0.01,
                fast_window: 6,
                slow_window: 24,
                burn_threshold: 6.0,
                min_events: 20,
            },
            SloSpec {
                name: "serve-error-ratio".into(),
                objective: Objective::CounterRatio {
                    bad: vec!["serve.errors".into()],
                    total: "serve.requests".into(),
                },
                target: 0.01,
                fast_window: 6,
                slow_window: 24,
                burn_threshold: 6.0,
                min_events: 20,
            },
            SloSpec {
                name: "serve-degraded-ratio".into(),
                objective: Objective::CounterRatio {
                    bad: vec![
                        "serve.degraded.partial".into(),
                        "serve.degraded.stale".into(),
                        "serve.degraded.unavailable".into(),
                    ],
                    total: "serve.requests".into(),
                },
                target: 0.02,
                fast_window: 6,
                slow_window: 24,
                burn_threshold: 6.0,
                min_events: 20,
            },
        ]
    }

    /// The default streaming objective: rollback rate per round.
    pub fn stream_defaults() -> Vec<SloSpec> {
        vec![SloSpec {
            name: "stream-rollback-rate".into(),
            objective: Objective::CounterRatio {
                bad: vec!["stream.rollbacks".into()],
                total: "stream.rounds".into(),
            },
            target: 0.05,
            fast_window: 4,
            slow_window: 16,
            burn_threshold: 4.0,
            min_events: 4,
        }]
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("objective".into(), self.objective.to_json()),
            ("target".into(), Json::Num(self.target)),
            ("fast_window".into(), Json::Num(self.fast_window as f64)),
            ("slow_window".into(), Json::Num(self.slow_window as f64)),
            ("burn_threshold".into(), Json::Num(self.burn_threshold)),
            ("min_events".into(), Json::Num(self.min_events as f64)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let f = v.fields(
            "slo spec",
            &[
                "name",
                "objective",
                "target",
                "fast_window",
                "slow_window",
                "burn_threshold",
                "min_events",
            ],
        )?;
        let spec = SloSpec {
            name: f.str("name")?.to_string(),
            objective: Objective::from_json(f.value("objective")?)?,
            target: f.f64("target")?,
            fast_window: f.u64("fast_window")? as usize,
            slow_window: f.u64("slow_window")? as usize,
            burn_threshold: f.f64("burn_threshold")?,
            min_events: f.u64("min_events")?,
        };
        if !spec.target.is_finite()
            || spec.target <= 0.0
            || spec.fast_window == 0
            || spec.slow_window < spec.fast_window
        {
            return Err(format!(
                "slo spec '{}' needs target > 0 and slow_window >= fast_window >= 1",
                spec.name
            ));
        }
        Ok(spec)
    }
}

/// The burn rate of one objective over one window.
fn burn(objective: &Objective, target: f64, ticks: &[TickDelta]) -> (f64, u64, u64) {
    let w = WindowStats::fold(ticks);
    let (bad, total) = objective.measure(&w);
    let ratio = if total == 0 {
        0.0
    } else {
        bad as f64 / total as f64
    };
    (ratio / target, bad, total)
}

/// One SLO evaluation at one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct SloDecision {
    pub slo: String,
    pub tick: u64,
    pub fast_burn: f64,
    pub slow_burn: f64,
    pub firing: bool,
    /// Alert state flipped at this tick (fired or resolved).
    pub changed: bool,
}

impl SloDecision {
    /// Deterministic one-line rendering (fixed 2-decimal burns), used
    /// for the drill's byte-compared decision log.
    pub fn render(&self) -> String {
        format!(
            "tick {:>4}  {:<24} {}  fast {:>8.2}x  slow {:>8.2}x",
            self.tick,
            self.slo,
            if self.firing { "FIRING " } else { "ok     " },
            self.fast_burn,
            self.slow_burn
        )
    }
}

/// Error-budget state of one SLO over the retained series.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub slo: String,
    pub bad: u64,
    pub total: u64,
    pub ratio: f64,
    pub target: f64,
    /// `ratio / target`: fraction of the budget consumed over the
    /// window (>1 = budget blown).
    pub budget_consumed: f64,
    pub firing: bool,
}

/// Evaluates a fixed set of [`SloSpec`]s against the tick series,
/// tracking per-SLO alert state across ticks.
#[derive(Debug, Clone)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    firing: Vec<bool>,
}

impl SloEngine {
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let n = specs.len();
        Self {
            specs,
            firing: vec![false; n],
        }
    }

    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Evaluates every SLO at the newest tick of `ticks` (oldest
    /// first). Returns one decision per SLO; `changed` marks alert
    /// transitions.
    pub fn evaluate(&mut self, ticks: &[TickDelta]) -> Vec<SloDecision> {
        let Some(last) = ticks.last() else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let fast = &ticks[ticks.len().saturating_sub(spec.fast_window)..];
            let slow = &ticks[ticks.len().saturating_sub(spec.slow_window)..];
            let (fast_burn, _, fast_total) = burn(&spec.objective, spec.target, fast);
            let (slow_burn, _, _) = burn(&spec.objective, spec.target, slow);
            let firing = fast_total >= spec.min_events
                && fast_burn >= spec.burn_threshold
                && slow_burn >= spec.burn_threshold;
            let changed = firing != self.firing[i];
            self.firing[i] = firing;
            out.push(SloDecision {
                slo: spec.name.clone(),
                tick: last.tick,
                fast_burn,
                slow_burn,
                firing,
                changed,
            });
        }
        out
    }

    /// Error-budget report over the whole retained series.
    pub fn budget(&self, ticks: &[TickDelta]) -> Vec<BudgetRow> {
        let w = WindowStats::fold(ticks);
        self.specs
            .iter()
            .zip(&self.firing)
            .map(|(spec, &firing)| {
                let (bad, total) = spec.objective.measure(&w);
                let ratio = if total == 0 {
                    0.0
                } else {
                    bad as f64 / total as f64
                };
                BudgetRow {
                    slo: spec.name.clone(),
                    bad,
                    total,
                    ratio,
                    target: spec.target,
                    budget_consumed: ratio / spec.target,
                    firing,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Telemetry: recorder + SLO engine + dump, the unit embedded in engines
// ---------------------------------------------------------------------

/// Configuration of one [`Telemetry`] instance.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Flight-recorder ring capacity, in ticks.
    pub capacity: usize,
    /// Metrics excluded from recording (see [`RecorderConfig`]).
    pub exclude: Vec<String>,
    /// The SLOs to evaluate at every tick.
    pub slos: Vec<SloSpec>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            exclude: Vec::new(),
            slos: SloSpec::serve_defaults(),
        }
    }
}

/// The embedded telemetry unit: a flight recorder plus an SLO engine,
/// ticked together. Each tick samples the registry, evaluates every
/// SLO, emits `obs.sample` / `obs.slo.alert` / `obs.slo.resolve` trace
/// events, and accounts its own cost to the `obs.self_us` counter.
pub struct Telemetry {
    recorder: FlightRecorder,
    engine: Mutex<SloEngine>,
    transitions: Mutex<Vec<SloDecision>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish_non_exhaustive()
    }
}

impl Telemetry {
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            recorder: FlightRecorder::new(RecorderConfig {
                capacity: cfg.capacity,
                exclude: cfg.exclude,
            }),
            engine: Mutex::new(SloEngine::new(cfg.slos)),
            transitions: Mutex::new(Vec::new()),
        }
    }

    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Records one tick and evaluates the SLOs. Returns the decisions
    /// of this tick (one per SLO).
    pub fn tick(&self, registry: &Registry) -> Vec<SloDecision> {
        let sw = Stopwatch::start();
        let tick = self.recorder.tick(registry);
        let ticks = self.recorder.ticks();
        let decisions = lock_recover(&self.engine).evaluate(&ticks);
        for d in &decisions {
            if !d.changed {
                continue;
            }
            if d.firing {
                trace::event("obs.slo.alert", |e| {
                    e.s("slo", &d.slo)
                        .u("tick", d.tick)
                        .f("fast_burn", d.fast_burn)
                        .f("slow_burn", d.slow_burn);
                });
            } else {
                trace::event("obs.slo.resolve", |e| {
                    e.s("slo", &d.slo).u("tick", d.tick);
                });
            }
            lock_recover(&self.transitions).push(d.clone());
        }
        let self_us = sw.elapsed_us();
        registry
            .counter(crate::series::SELF_TIME_COUNTER)
            .add(self_us);
        trace::event("obs.sample", |e| {
            e.u("tick", tick).u("self_us", self_us);
        });
        decisions
    }

    /// Every alert transition (fire/resolve) observed so far.
    pub fn transitions(&self) -> Vec<SloDecision> {
        lock_recover(&self.transitions).clone()
    }

    /// The deterministic transition log: one [`SloDecision::render`]
    /// line per alert state flip.
    pub fn render_transitions(&self) -> String {
        let mut out = String::new();
        for d in self.transitions() {
            let _ = writeln!(out, "{}", d.render());
        }
        out
    }

    /// Line-JSON flight-recorder dump: a `series_meta` header followed
    /// by one `tick` line per retained tick. Byte-identical across
    /// same-seed runs when wall-clock metrics are excluded.
    pub fn dump(&self) -> String {
        let specs = lock_recover(&self.engine).specs().to_vec();
        let mut out = format!(
            "{{\"t\":\"series_meta\",\"version\":1,\"capacity\":{},\"dropped\":{},\"next_tick\":{},\"slos\":{}}}\n",
            self.recorder.capacity(),
            self.recorder.dropped(),
            self.recorder.next_tick(),
            Json::Arr(specs.iter().map(SloSpec::to_json).collect()).encode()
        );
        for t in self.recorder.ticks() {
            out.push_str(&t.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Wire payload for the `{"op":"series"}` request: the last
    /// `window` ticks folded into rates/quantiles plus budget rows.
    pub fn series_json(&self, window: usize) -> Json {
        let ticks = self.recorder.ticks();
        let start = ticks.len().saturating_sub(window.max(1));
        let view = &ticks[start..];
        let w = WindowStats::fold(view);
        let counters = Json::Obj(
            w.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            w.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let hists = Json::Obj(
            w.hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::Num(h.count as f64)),
                            ("p50".into(), Json::Num(h.quantile(0.50) as f64)),
                            ("p95".into(), Json::Num(h.quantile(0.95) as f64)),
                            ("p99".into(), Json::Num(h.quantile(0.99) as f64)),
                            ("max".into(), Json::Num(h.max as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        let budget = lock_recover(&self.engine).budget(view);
        let slos = Json::Arr(
            budget
                .iter()
                .map(|b| {
                    Json::Obj(vec![
                        ("slo".into(), Json::Str(b.slo.clone())),
                        ("bad".into(), Json::Num(b.bad as f64)),
                        ("total".into(), Json::Num(b.total as f64)),
                        ("target".into(), Json::Num(b.target)),
                        ("budget_consumed".into(), Json::Num(b.budget_consumed)),
                        ("firing".into(), Json::Bool(b.firing)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("ticks".into(), Json::Num(w.ticks as f64)),
            ("first_tick".into(), Json::Num(w.first_tick as f64)),
            ("last_tick".into(), Json::Num(w.last_tick as f64)),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), hists),
            ("slos".into(), slos),
        ])
    }
}

// ---------------------------------------------------------------------
// offline: parse a dump, replay the SLO engine, render reports
// ---------------------------------------------------------------------

/// A parsed flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub capacity: u64,
    pub dropped: u64,
    pub next_tick: u64,
    pub slos: Vec<SloSpec>,
    pub ticks: Vec<TickDelta>,
}

/// Strict parse of a [`Telemetry::dump`] document: exactly one
/// `series_meta` first line, then `tick` lines with strictly
/// increasing ordinals.
pub fn parse_series(text: &str) -> Result<Series, String> {
    let mut series: Option<Series> = None;
    read_lines(text, |json| {
        let Some(series) = &mut series else {
            series = Some(series_meta(json)?);
            return Ok(());
        };
        let t = TickDelta::from_json(json)?;
        if let Some(last) = series.ticks.last() {
            if t.tick <= last.tick {
                return Err(format!("tick {} not strictly after {}", t.tick, last.tick));
            }
        }
        series.ticks.push(t);
        Ok(())
    })?;
    series.ok_or_else(|| "empty series dump".into())
}

/// Reads the `series_meta` line that heads a series dump, with no
/// ticks yet.
fn series_meta(json: &Json) -> Result<Series, String> {
    if json.get("t").and_then(Json::as_str) != Some("series_meta") {
        return Err("first line must be a series_meta record".into());
    }
    let meta = json.fields(
        "series_meta",
        &["t", "version", "capacity", "dropped", "next_tick", "slos"],
    )?;
    match meta.u64("version")? {
        1 => {}
        other => return Err(format!("unsupported series version {other}")),
    }
    Ok(Series {
        slos: meta
            .arr("slos")?
            .iter()
            .map(SloSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?,
        capacity: meta.u64("capacity")?,
        dropped: meta.u64("dropped")?,
        next_tick: meta.u64("next_tick")?,
        ticks: Vec::new(),
    })
}

/// Replays the dump's SLO specs over its retained ticks exactly as the
/// live engine did, returning every alert transition plus the final
/// budget state. Covers the retained window only: ticks evicted by the
/// drop-oldest ring are gone (the dump records how many via `dropped`).
pub fn evaluate_series(series: &Series) -> (Vec<SloDecision>, Vec<BudgetRow>) {
    let mut engine = SloEngine::new(series.slos.clone());
    let mut transitions = Vec::new();
    for n in 1..=series.ticks.len() {
        for d in engine.evaluate(&series.ticks[..n]) {
            if d.changed {
                transitions.push(d);
            }
        }
    }
    let budget = engine.budget(&series.ticks);
    (transitions, budget)
}

/// Deterministic budget/alert report — the body of `nmcdr obs slo`.
pub fn render_slo_report(series: &Series) -> String {
    let (transitions, budget) = evaluate_series(series);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "series: {} tick(s) retained (capacity {}, {} dropped), {} slo(s)",
        series.ticks.len(),
        series.capacity,
        series.dropped,
        series.slos.len()
    );
    let _ = writeln!(
        out,
        "{:<24}  {:>8} {:>8}  {:>8}  {:>8}  {:>10}  state",
        "slo", "bad", "total", "ratio", "target", "budget"
    );
    for b in &budget {
        let _ = writeln!(
            out,
            "{:<24}  {:>8} {:>8}  {:>7.3}%  {:>7.3}%  {:>9.2}x  {}",
            b.slo,
            b.bad,
            b.total,
            b.ratio * 100.0,
            b.target * 100.0,
            b.budget_consumed,
            if b.firing { "FIRING" } else { "ok" }
        );
    }
    if transitions.is_empty() {
        let _ = writeln!(out, "no alert transitions");
    } else {
        let _ = writeln!(out, "alert transitions:");
        for d in &transitions {
            let _ = writeln!(
                out,
                "  {} {} (fast {:.2}x, slow {:.2}x)",
                if d.firing { "ALERT  " } else { "resolve" },
                format_args!("tick {:>4} {}", d.tick, d.slo),
                d.fast_burn,
                d.slow_burn
            );
        }
    }
    out
}

/// Count of alert *firings* (not resolves) in a transition list.
pub fn count_alerts(transitions: &[SloDecision]) -> usize {
    transitions.iter().filter(|d| d.firing).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LATENCY_BOUNDS_US;

    fn spec_errors(target: f64) -> SloSpec {
        SloSpec {
            name: "errors".into(),
            objective: Objective::CounterRatio {
                bad: vec!["serve.errors".into()],
                total: "serve.requests".into(),
            },
            target,
            fast_window: 2,
            slow_window: 4,
            burn_threshold: 2.0,
            min_events: 4,
        }
    }

    fn tick(tick: u64, req: u64, err: u64) -> TickDelta {
        TickDelta {
            tick,
            counters: vec![("serve.errors".into(), err), ("serve.requests".into(), req)],
            gauges: vec![],
            hists: vec![],
        }
    }

    #[test]
    fn burn_rate_fires_only_when_both_windows_burn() {
        let mut engine = SloEngine::new(vec![spec_errors(0.05)]);
        // healthy prefix
        let mut ticks = vec![tick(0, 10, 0), tick(1, 10, 0), tick(2, 10, 0)];
        assert!(!engine.evaluate(&ticks)[0].firing);
        // a hot fast window but a cool slow window: one bad tick makes
        // fast burn = (5/20)/0.05 = 5x >= 2x, slow = (5/40)/0.05 = 2.5x
        ticks.push(tick(3, 10, 5));
        let d = &engine.evaluate(&ticks)[0];
        assert!(d.firing && d.changed, "{d:?}");
        // recovery: two clean ticks cool the fast window below threshold
        ticks.push(tick(4, 10, 0));
        ticks.push(tick(5, 10, 0));
        let d = &engine.evaluate(&ticks)[0];
        assert!(!d.firing && d.changed, "{d:?}");
        // steady state: no further transition
        ticks.push(tick(6, 10, 0));
        let d = &engine.evaluate(&ticks)[0];
        assert!(!d.firing && !d.changed);
    }

    #[test]
    fn min_events_suppresses_idle_window_alerts() {
        let mut engine = SloEngine::new(vec![spec_errors(0.05)]);
        // 1 error in 2 requests is a huge burn but only 2 events < 4
        let ticks = vec![tick(0, 1, 0), tick(1, 1, 1)];
        assert!(!engine.evaluate(&ticks)[0].firing);
    }

    #[test]
    fn zero_total_is_zero_burn() {
        let mut engine = SloEngine::new(vec![spec_errors(0.05)]);
        let d = &engine.evaluate(&[tick(0, 0, 0)])[0];
        assert_eq!(d.fast_burn, 0.0);
        assert!(!d.firing);
    }

    #[test]
    fn hist_above_objective_measures_tail_fraction() {
        let r = Registry::new();
        let h = r.histogram("serve.latency_us", &LATENCY_BOUNDS_US);
        let tel = Telemetry::new(TelemetryConfig {
            slos: vec![SloSpec {
                name: "p99".into(),
                objective: Objective::HistAbove {
                    hist: "serve.latency_us".into(),
                    limit_us: 5_000,
                },
                target: 0.01,
                fast_window: 1,
                slow_window: 1,
                burn_threshold: 6.0,
                min_events: 10,
            }],
            ..Default::default()
        });
        for _ in 0..9 {
            h.record(100);
        }
        h.record(50_000); // 10% above limit => burn 10x
        let d = tel.tick(&r);
        assert!(d[0].firing, "{d:?}");
        assert!((d[0].fast_burn - 10.0).abs() < 1e-9);
    }

    #[test]
    fn specs_roundtrip_through_json_strictly() {
        for spec in SloSpec::serve_defaults()
            .into_iter()
            .chain(SloSpec::stream_defaults())
        {
            let j = spec.to_json();
            assert_eq!(SloSpec::from_json(&j).unwrap(), spec);
            let text = j.encode().replacen("\"name\"", "\"evil\":1,\"name\"", 1);
            assert!(SloSpec::from_json(&Json::parse(&text).unwrap()).is_err());
        }
        // invalid windows rejected
        let mut bad = spec_errors(0.05);
        bad.slow_window = 1;
        assert!(SloSpec::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn dump_parses_replays_and_is_stable() {
        let r = Registry::new();
        let req = r.counter("serve.requests");
        let err = r.counter("serve.errors");
        let tel = Telemetry::new(TelemetryConfig {
            capacity: 8,
            slos: vec![spec_errors(0.05)],
            ..Default::default()
        });
        for i in 0..6u64 {
            req.add(10);
            err.add(if i == 3 { 5 } else { 0 });
            tel.tick(&r);
        }
        let dump = tel.dump();
        assert_eq!(dump, tel.dump(), "dump must be stable");
        let series = parse_series(&dump).unwrap();
        assert_eq!(series.ticks.len(), 6);
        assert_eq!(series.slos, vec![spec_errors(0.05)]);
        let (transitions, budget) = evaluate_series(&series);
        // the replay reproduces the live engine's transitions exactly
        assert_eq!(transitions, tel.transitions());
        assert_eq!(count_alerts(&transitions), 1);
        assert_eq!(budget[0].bad, 5);
        assert_eq!(budget[0].total, 60);
        let report = render_slo_report(&series);
        assert!(report.contains("ALERT"));
        assert!(report.contains("errors"));
        // strict parse: non-monotonic ticks rejected
        let mut lines: Vec<&str> = dump.lines().collect();
        lines.swap(2, 3);
        assert!(parse_series(&lines.join("\n")).is_err());
        // unknown meta fields rejected
        let bad = dump.replacen("\"capacity\"", "\"evil\":1,\"capacity\"", 1);
        assert!(parse_series(&bad).is_err());
    }

    #[test]
    fn telemetry_accounts_self_time_but_never_records_it() {
        let r = Registry::new();
        r.counter("serve.requests").inc();
        let tel = Telemetry::new(TelemetryConfig {
            slos: vec![],
            ..Default::default()
        });
        tel.tick(&r);
        tel.tick(&r);
        // the counter exists in the registry…
        let names: Vec<String> = r
            .raw_snapshot()
            .counters
            .iter()
            .map(|c| c.0.clone())
            .collect();
        assert!(names.contains(&crate::series::SELF_TIME_COUNTER.to_string()));
        // …but no tick delta ever contains it
        for t in tel.recorder().ticks() {
            assert!(t
                .counters
                .iter()
                .all(|(k, _)| k != crate::series::SELF_TIME_COUNTER));
        }
    }

    #[test]
    fn series_json_exposes_window_and_budget() {
        let r = Registry::new();
        r.counter("serve.requests").add(20);
        r.counter("serve.errors").add(1);
        let tel = Telemetry::new(TelemetryConfig {
            slos: vec![spec_errors(0.05)],
            ..Default::default()
        });
        tel.tick(&r);
        let j = tel.series_json(16);
        assert_eq!(j.get("ticks").and_then(Json::as_u64), Some(1));
        let slos = j.get("slos").and_then(Json::as_arr).unwrap();
        assert_eq!(slos[0].get("bad").and_then(Json::as_u64), Some(1));
        assert_eq!(slos[0].get("total").and_then(Json::as_u64), Some(20));
    }
}
