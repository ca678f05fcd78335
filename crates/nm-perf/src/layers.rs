//! Per-layer attribution of training work: the trainer's own spans and
//! profiler tables, the benchmark's [`Timed`](crate::timed::Timed)
//! marks, and kernel probes timed from outside.

use crate::timed::{totals, Hook, Mark};
use crate::{rate, Layers};
use nm_models::{BatchSource, CdrModel, OpAgg, SplitSource, TrainConfig};
use nm_obs::{clock, TraceRecord};
use nm_tensor::{Tensor, TensorRng};
use std::collections::BTreeMap;

/// Tape op kinds whose profiler time is reported as achieved GFLOP/s.
const COMPUTE_OPS: [&str; 3] = ["matmul", "spmm", "rowwise_dot"];
/// Tape op kinds reported as achieved GB/s of modeled traffic.
const MEMORY_OPS: [&str; 5] = ["mul", "relu", "gather_rows", "add", "tanh"];

/// The three most frequent `m x k x n` matmul shapes of one NMCDR step
/// at the EXPERIMENTS.md profile (batch 512, dim 16) on cloth-sport:
/// dim x dim projections of the domain-A (220) and domain-B (863) user
/// tables, and the prediction MLP's last layer over a batch. They
/// follow from the scale, not the seed; every traced run re-counts
/// them and notes the counted top three next to the probes.
pub const PROBE_SHAPES: [(usize, usize, usize); 3] = [(220, 16, 16), (863, 16, 16), (512, 16, 1)];

/// Sums of the spans a traced run recorded, by name.
fn span_totals(records: &[TraceRecord]) -> BTreeMap<&str, (u64, u64)> {
    let mut m: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in records {
        if let TraceRecord::Span { name, dur_us, .. } = r {
            let e = m.entry(name.as_str()).or_default();
            e.0 += 1;
            e.1 += dur_us;
        }
    }
    m
}

/// Step-time conservation over a traced run: for every step that has a
/// successor in the same epoch, forward (`perf.loss`) + backward
/// (`train.backward`) + Adam (`train.optimizer`) against the interval
/// from its `perf.loss` start to the next one. Returns `(parts, whole)`
/// in microseconds.
pub fn step_conservation(records: &[TraceRecord]) -> (u64, u64) {
    let spans = |want: &str| -> Vec<(u64, u64)> {
        records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span {
                    name,
                    start_us,
                    dur_us,
                    ..
                } if name == want => Some((*start_us, *dur_us)),
                _ => None,
            })
            .collect()
    };
    let epochs = spans("train.epoch");
    let mut losses = spans("perf.loss");
    losses.sort_unstable();
    let mut others = spans("train.backward");
    others.extend(spans("train.optimizer"));
    others.sort_unstable();
    let (mut parts, mut whole) = (0u64, 0u64);
    for (e_start, e_dur) in epochs {
        let steps: Vec<(u64, u64)> = losses
            .iter()
            .copied()
            .filter(|&(s, _)| s >= e_start && s <= e_start + e_dur)
            .collect();
        for w in steps.windows(2) {
            let (lo, hi) = (w[0].0, w[1].0);
            whole += hi - lo;
            parts += w[0].1;
            parts += others
                .iter()
                .filter(|&&(s, _)| s >= lo && s < hi)
                .map(|&(_, d)| d)
                .sum::<u64>();
        }
    }
    (parts, whole)
}

/// Fills the training chain's per-layer metrics from one traced run.
pub fn training(
    records: &[TraceRecord],
    marks: &[Mark],
    profile: &[(&'static str, OpAgg)],
    allocated_b: u64,
    param_count: usize,
    out: &mut Layers,
) {
    let spans = span_totals(records);
    let secs = |name: &str| spans.get(name).map_or(0.0, |&(_, us)| us as f64 / 1e6);
    let calls = |name: &str| spans.get(name).map_or(0, |&(n, _)| n) as f64;
    let (steps, loss_ns, examples) = totals(marks, Hook::Loss);
    let examples = examples as f64;
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    put(
        "nm-models.forward_kex_per_s",
        rate(examples / 1e3, loss_ns as f64 / 1e9),
    );
    put(
        "nm-autograd.backward_kex_per_s",
        rate(examples / 1e3, secs("train.backward")),
    );
    put(
        "nm-optim.adam_mparam_per_s",
        rate(
            steps as f64 * param_count as f64 / 1e6,
            secs("train.optimizer"),
        ),
    );
    for (metric, span) in [
        ("nmcdr-core.encoder_per_s", "stage.encoder"),
        ("nmcdr-core.intra_matching_per_s", "stage.intra_matching"),
        ("nmcdr-core.inter_matching_per_s", "stage.inter_matching"),
        ("nmcdr-core.complementing_per_s", "stage.complementing"),
    ] {
        put(metric, rate(calls(span), secs(span)));
    }
    for (kind, agg) in profile {
        let ns = (agg.fwd_ns + agg.bwd_ns) as f64;
        if COMPUTE_OPS.contains(kind) {
            let flops = (agg.fwd_flops + agg.bwd_flops) as f64;
            put(&format!("nm-autograd.op.{kind}_gflops"), rate(flops, ns));
        } else if MEMORY_OPS.contains(kind) {
            let bytes = (agg.fwd_bytes + agg.bwd_bytes) as f64;
            put(&format!("nm-autograd.op.{kind}_gbps"), rate(bytes, ns));
        }
    }
    put(
        "nm-tensor.alloc_mb_per_step",
        rate(allocated_b as f64 / 1e6, steps as f64),
    );
    let (prepares, prepare_ns, _) = totals(marks, Hook::PrepareEval);
    let (_, score_ns, pairs) = totals(marks, Hook::EvalScores);
    put(
        "nm-eval.prepare_per_s",
        rate(prepares as f64, prepare_ns as f64 / 1e9),
    );
    put(
        "nm-eval.score_kpairs_per_s",
        rate(pairs as f64 / 1e3, score_ns as f64 / 1e9),
    );
}

/// Matmul `m x k x n` shapes of one training step of `model` on its
/// epoch-0 batches, most frequent first (ties by shape).
pub fn matmul_shapes(
    model: &dyn CdrModel,
    tc: &TrainConfig,
) -> Vec<((usize, usize, usize), usize)> {
    let (ba, bb) = SplitSource.epoch_batches(model, tc, 0);
    let (Some(a), Some(b)) = (ba.first(), bb.first()) else {
        return Vec::new();
    };
    let mut tape = nm_autograd::Tape::new();
    let _ = model.loss(&mut tape, a, b, 0);
    let nodes = tape.export_trace();
    let mut counts: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    for node in nodes.iter().filter(|n| n.kind == "matmul") {
        if let [l, r] = node.parents[..] {
            let (m, k) = nodes[l].shape();
            *counts.entry((m, k, nodes[r].cols)).or_default() += 1;
        }
    }
    let mut v: Vec<_> = counts.into_iter().collect();
    v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    v
}

/// Achieved GFLOP/s of `Tensor::matmul`, `matmul_tn` (the weight
/// gradient `Aᵀ·G`) and `matmul_nt` (the input gradient `G·Bᵀ`) at each
/// probe shape, timed from outside the tape. Each figure is the median
/// of five batches of calls.
pub fn matmul_probes(budget_ms: f64, seed: u64, out: &mut Layers) {
    let mut rng = TensorRng::seed_from(seed);
    for &(m, k, n) in &PROBE_SHAPES {
        let a = Tensor::randn(m, k, 1.0, &mut rng);
        let b = Tensor::randn(k, n, 1.0, &mut rng);
        let g = Tensor::randn(m, n, 1.0, &mut rng);
        let flops = 2.0 * (m * k * n) as f64;
        let kernels: [(&str, &dyn Fn() -> Tensor); 3] = [
            ("matmul", &|| a.matmul(&b)),
            ("matmul_tn", &|| a.matmul_tn(&g)),
            ("matmul_nt", &|| g.matmul_nt(&b)),
        ];
        for (variant, kernel) in kernels {
            out.insert(
                probe_metric(variant, (m, k, n)),
                rate(flops, time_per_call(budget_ms, kernel)),
            );
        }
    }
}

/// The metric name of a kernel probe (`nm-tensor.<kernel>_gflops.<m>x<k>x<n>`).
pub fn probe_metric(kernel: &str, (m, k, n): (usize, usize, usize)) -> String {
    format!("nm-tensor.{kernel}_gflops.{m}x{k}x{n}")
}

/// Median per-call time (ns) over five batches sized to fill
/// `budget_ms` together.
fn time_per_call(budget_ms: f64, kernel: &dyn Fn() -> Tensor) -> f64 {
    let once = clock::now_ns();
    std::hint::black_box(kernel());
    let est = (clock::now_ns() - once).max(1) as f64;
    let reps = ((budget_ms * 1e6 / 5.0 / est) as usize).clamp(1, 1_000_000);
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = clock::now_ns();
            for _ in 0..reps {
                std::hint::black_box(kernel());
            }
            (clock::now_ns() - t) as f64 / reps as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}
