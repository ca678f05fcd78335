//! # nm-perf — one benchmark for the NMCDR pipeline
//!
//! Four workloads drive the system a user runs — training, the TCP
//! server, the streaming loop — and report what that user sees, then
//! attribute it to the layers underneath:
//!
//! * **measured phase** (tracing off): the end-to-end metrics in
//!   [`END_TO_END`], the same four names on every workload;
//! * **traced phase**: the benchmark's own `perf.*` spans around the
//!   layers' public functions, the program's existing spans and
//!   profiler tables, and outside kernel probes, reduced to the
//!   [`PER_LAYER`] metrics and written to
//!   `<target>/nm-perf/<workload>.trace.jsonl`.
//!
//! Every input derives from the seed; the program under test receives
//! only files, CLI flags and wire requests. Outputs are checked, and a
//! wrong output counts as a failed op. See `README.md` for the metric
//! definitions and which end-to-end metric each layer metric moves.

pub mod layers;
pub mod load;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod stream;
pub mod timed;
pub mod train;

use nm_obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A reported metric: name, unit, direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. The "op" is the
/// workload's unit of user-visible work: a training epoch, a wire
/// request, a stream round.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", Lower),
    def("op_p50_ms", "ms", Lower),
    def("op_tail_ms", "ms", Lower),
    def("work_per_s", "1/s", Higher),
];

/// Per-layer metrics, from the traced phase. Each is a layer's
/// throughput while busy (work per second of its own time) or a ratio,
/// so a layer a workload never runs reads 0 rather than a fake time.
pub const PER_LAYER: [MetricDef; 44] = [
    def("nm-models.forward_kex_per_s", "kex/s", Higher),
    def("nm-autograd.backward_kex_per_s", "kex/s", Higher),
    def("nm-optim.adam_mparam_per_s", "Mparam/s", Higher),
    def("nmcdr-core.encoder_per_s", "1/s", Higher),
    def("nmcdr-core.intra_matching_per_s", "1/s", Higher),
    def("nmcdr-core.inter_matching_per_s", "1/s", Higher),
    def("nmcdr-core.complementing_per_s", "1/s", Higher),
    def("nm-autograd.op.matmul_gflops", "GFLOP/s", Higher),
    def("nm-autograd.op.spmm_gflops", "GFLOP/s", Higher),
    def("nm-autograd.op.rowwise_dot_gflops", "GFLOP/s", Higher),
    def("nm-autograd.op.mul_gbps", "GB/s", Higher),
    def("nm-autograd.op.relu_gbps", "GB/s", Higher),
    def("nm-autograd.op.gather_rows_gbps", "GB/s", Higher),
    def("nm-autograd.op.add_gbps", "GB/s", Higher),
    def("nm-autograd.op.tanh_gbps", "GB/s", Higher),
    def("nm-tensor.alloc_mb_per_step", "MB", Lower),
    def("nm-tensor.matmul_gflops.220x16x16", "GFLOP/s", Higher),
    def("nm-tensor.matmul_gflops.863x16x16", "GFLOP/s", Higher),
    def("nm-tensor.matmul_gflops.512x16x1", "GFLOP/s", Higher),
    def("nm-tensor.matmul_tn_gflops.220x16x16", "GFLOP/s", Higher),
    def("nm-tensor.matmul_tn_gflops.863x16x16", "GFLOP/s", Higher),
    def("nm-tensor.matmul_tn_gflops.512x16x1", "GFLOP/s", Higher),
    def("nm-tensor.matmul_nt_gflops.220x16x16", "GFLOP/s", Higher),
    def("nm-tensor.matmul_nt_gflops.863x16x16", "GFLOP/s", Higher),
    def("nm-tensor.matmul_nt_gflops.512x16x1", "GFLOP/s", Higher),
    def("nm-eval.prepare_per_s", "1/s", Higher),
    def("nm-eval.score_kpairs_per_s", "kpair/s", Higher),
    def("nm-serve.parse_kreq_per_s", "kreq/s", Higher),
    def("nm-serve.cache_hit_kreq_per_s", "kreq/s", Higher),
    def("nm-serve.fanout_mitems_per_s", "Mitem/s", Higher),
    def("nm-serve.merge_mcand_per_s", "Mcand/s", Higher),
    def("nm-serve.serialize_kreq_per_s", "kreq/s", Higher),
    def("nm-serve.shard_score_mitems_per_s", "Mitem/s", Higher),
    def("nm-serve.reload_mb_per_s", "MB/s", Higher),
    def("nm-serve.cache_hit_pct", "%", Higher),
    def("nm-serve.coalesced_pct", "%", Higher),
    def("nm-serve.wire_queue_pct", "%", Lower),
    def("nm-stream.train_per_s", "1/s", Higher),
    def("nm-stream.eval_per_s", "1/s", Higher),
    def("nm-stream.publish_per_s", "1/s", Higher),
    def("nm-stream.commit_per_s", "1/s", Higher),
    def("nm-obs.trace_overhead_pct", "%", Lower),
    def("nm-obs.unattributed_pct", "%", Lower),
    // The benchmark's own reference work (`speed.rs`), uncontended.
    // Corrected times scale with it, so a build change that moves it
    // must show.
    def("nm-perf.reference_work_us", "us", Lower),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainNmcdr,
    ServeMixed,
    ServeWide,
    StreamOnline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainNmcdr,
        Workload::ServeMixed,
        Workload::ServeWide,
        Workload::StreamOnline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainNmcdr => "train-nmcdr",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeWide => "serve-wide",
            Workload::StreamOnline => "stream-online",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs the workload: the measured phase, then the traced phase
    /// when `cfg.traced`.
    pub fn run(self, cfg: &RunConfig) -> Result<Outcome, String> {
        match self {
            Workload::TrainNmcdr => train::run(cfg),
            Workload::ServeMixed => serve::run(serve::Mix::Mixed, cfg),
            Workload::ServeWide => serve::run(serve::Mix::Wide, cfg),
            Workload::StreamOnline => stream::run(cfg),
        }
    }
}

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Also run the traced phase and report per-layer metrics.
    pub traced: bool,
    /// Tiny inputs, about a second per workload (for tests).
    pub smoke: bool,
    /// Directory holding the `nmcdr` binary.
    pub bin_dir: PathBuf,
    /// Where traces and scratch files go (`<target>/nm-perf`).
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// The `nmcdr` binary the serve workloads spawn.
    pub fn nmcdr(&self) -> PathBuf {
        self.bin_dir
            .join(format!("nmcdr{}", std::env::consts::EXE_SUFFIX))
    }

    /// Whether a measured phase that started at `start_ns` runs another
    /// session: at least [`train::MIN_SESSIONS`], then until the time
    /// is spent and a `q` tail has its samples — on a contended machine
    /// that takes longer — but never past three times the budget.
    pub fn more_sessions(&self, start_ns: u64, sessions: usize, samples: usize, q: f64) -> bool {
        let elapsed = train::elapsed_s(start_ns);
        let short = !self.smoke && samples < stats::min_samples(q);
        sessions < train::MIN_SESSIONS
            || (elapsed < self.seconds || short) && elapsed < 3.0 * self.seconds
    }

    /// A fresh scratch directory for one workload run.
    pub fn scratch(&self, workload: &str) -> Result<PathBuf, String> {
        let dir = self
            .out_dir
            .join(format!("work-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Per-layer metric values by name; layers a workload does not run are
/// absent and report 0.
pub type Layers = BTreeMap<String, f64>;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed without being a failed op (conservation,
    /// trace validation, too few samples for a tail).
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: Layers,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Counts `n` attempted ops of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reports the run's uncontended reference-work time.
    pub fn reference_work(&mut self, speed: &speed::Speed) {
        self.layers.insert(
            "nm-perf.reference_work_us".into(),
            speed.uncontended_ns / 1e3,
        );
    }

    /// Reports `op_p50_ms` and `op_tail_ms` (the `q` quantile) of the op
    /// latencies. Too few samples beyond the tail is a problem, except
    /// in a smoke run, which is too short to have them.
    pub fn op_latency(&mut self, cfg: &RunConfig, samples_ms: &[f64], q: f64) {
        let sorted = stats::sorted(samples_ms);
        self.e2e
            .insert("op_p50_ms", stats::quantile(&sorted, 0.5).unwrap_or(0.0));
        self.e2e
            .insert("op_tail_ms", stats::quantile(&sorted, q).unwrap_or(0.0));
        if let (false, Err(e)) = (cfg.smoke, stats::gated_tail(samples_ms, q)) {
            self.problems.push(format!("op tail: {e}"));
        }
    }

    /// The reported metrics of one phase, in table order.
    pub fn metrics(&self, traced: bool) -> Vec<(MetricDef, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|d| (*d, self.layers.get(d.name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| (*d, self.e2e.get(d.name).copied().unwrap_or(0.0)))
                .collect()
        }
    }

    /// Metric names this run produced that no table defines: a bug in
    /// the benchmark, reported as a problem rather than dropped.
    pub fn undefined_metrics(&self) -> Vec<String> {
        let known = |n: &str| PER_LAYER.iter().any(|d| d.name == n);
        self.layers.keys().filter(|k| !known(k)).cloned().collect()
    }
}

/// Writes a traced phase's lines to `<out_dir>/<workload>.trace.jsonl`
/// and checks the file with the program's own `nmcdr obs validate` and
/// `nmcdr obs flame` (which also renders `<workload>.flame.svg`). A
/// failed check is a problem. Returns the parsed records.
pub fn finish_trace(
    cfg: &RunConfig,
    workload: &str,
    lines: &[String],
    out: &mut Outcome,
) -> Vec<nm_obs::TraceRecord> {
    let path = cfg.out_dir.join(format!("{workload}.trace.jsonl"));
    let svg = cfg.out_dir.join(format!("{workload}.flame.svg"));
    let mut text = lines.join("\n");
    text.push('\n');
    if let Err(e) = std::fs::write(&path, &text) {
        out.problems
            .push(format!("cannot write trace {}: {e}", path.display()));
    } else {
        let (trace, svg) = (path.to_string_lossy(), svg.to_string_lossy());
        let checks: [&[&str]; 2] = [
            &["obs", "validate", "--trace", &trace],
            &["obs", "flame", "--in", &trace, "--out", &svg],
        ];
        for args in checks {
            match std::process::Command::new(cfg.nmcdr()).args(args).output() {
                Ok(o) if o.status.success() => {}
                Ok(o) => out.problems.push(format!(
                    "nmcdr {} rejected {}: {}",
                    args[..2].join(" "),
                    path.display(),
                    String::from_utf8_lossy(&o.stderr).trim()
                )),
                Err(e) => out
                    .problems
                    .push(format!("cannot run {}: {e}", cfg.nmcdr().display())),
            }
        }
        out.note(format!("trace written to {}", path.display()));
    }
    nm_obs::parse_trace(&text).unwrap_or_else(|e| {
        out.problems.push(format!("trace does not parse: {e}"));
        Vec::new()
    })
}

/// `work / secs`, or 0 when no time was spent (the layer did not run).
pub fn rate(work: f64, secs: f64) -> f64 {
    if secs > 0.0 && work.is_finite() {
        work / secs
    } else {
        0.0
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Non-finite values are written as 0 so the line stays valid JSON.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::Str((*unit).into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for d in &all {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(d
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert_eq!(all.iter().filter(|o| o.name == d.name).count(), 1);
        }
        for &shape in &layers::PROBE_SHAPES {
            for kernel in ["matmul", "matmul_tn", "matmul_nt"] {
                let name = layers::probe_metric(kernel, shape);
                assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
            }
        }
    }

    /// The checked-in `BENCHMARK.json` lists exactly these workloads and
    /// metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("op_p50_ms".into(), 1.25, "ms")]);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(rate(1.0, 0.0), 0.0);
    }
}
