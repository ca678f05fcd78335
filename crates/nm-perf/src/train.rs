//! `train-nmcdr`: NMCDR training on cloth-sport at the EXPERIMENTS.md
//! profile (scale 0.008, dim 16, 64 neighbours, batch 512, lr 1e-2).
//!
//! The measured phase runs back-to-back sessions — data generation,
//! model build, 8 epochs, final evaluation — until the time budget is
//! spent. Every session uses the same seed, so every session must
//! reproduce the first one's loss bits. The traced phase runs one more
//! session with the tracer and the op profiler on.

use crate::stats::median;
use crate::timed::{ops, session_speed, speed_note, totals, Hook, Mark, Started, Timed};
use crate::{layers, Outcome, RunConfig};
use nm_bench::{nmcdr_config, ExpProfile};
use nm_data::Scenario;
use nm_models::{train_joint, TrainConfig, TrainStats};
use nm_nn::Module;
use nm_obs::{clock, trace, MemorySink};
use nmcdr_core::{Ablation, NmcdrModel};
use std::sync::Arc;

/// Epoch-time tail percentile: a 25 s run holds ~90 epochs, well over
/// the 40 that p75 needs.
const TAIL_Q: f64 = 0.75;
/// Sessions run even when the budget is spent sooner; `setup_s` is the
/// median over sessions.
pub const MIN_SESSIONS: usize = 3;

/// The run's training profile.
pub fn profile(cfg: &RunConfig) -> ExpProfile {
    let p = ExpProfile {
        seed: cfg.seed,
        epochs: 8,
        ..ExpProfile::default()
    };
    if cfg.smoke {
        ExpProfile {
            scale: 0.002,
            dim: 8,
            match_neighbors: 8,
            eval_negatives: 20,
            epochs: 2,
            batch_size: 128,
            ..p
        }
    } else {
        p
    }
}

/// Mean HR@10 (percent) a finished session must reach: 5 points above
/// what random ranking scores on 1 + `eval_negatives` candidates.
fn hr_floor(p: &ExpProfile) -> f64 {
    let random = (100.0 * 10.0 / (1 + p.eval_negatives) as f64).min(100.0);
    random + 5.0
}

/// The NMCDR model of `p` on freshly generated cloth-sport data.
pub fn build_model(p: &ExpProfile) -> NmcdrModel {
    let task = p.task(p.dataset(Scenario::ClothSport));
    NmcdrModel::new(task, nmcdr_config(p, Ablation::none()))
}

struct Session {
    /// When the session started, and the probe taken just before.
    start: Started,
    marks: Vec<Mark>,
    stats: TrainStats,
    param_count: usize,
}

/// One session: data, model, `train_joint`, with every epoch probed.
fn session(p: &ExpProfile, tc: &TrainConfig) -> Result<Session, String> {
    let start = Started::now();
    let mut model = Timed::new(build_model(p));
    let stats = train_joint(&mut model, tc).map_err(|e| format!("training NMCDR failed: {e}"))?;
    model.mark_end();
    Ok(Session {
        start,
        param_count: model.param_count(),
        marks: model.marks(),
        stats,
    })
}

/// Epoch durations (ms at reference speed) of a session.
fn epoch_ms(s: &Session) -> Vec<f64> {
    ops(&s.marks, true)
        .iter()
        .map(|op| op.ref_ns() / 1e6)
        .collect()
}

/// Counts the session's epochs and final evaluation as ops; an epoch
/// fails when its mean-loss bits differ from the reference session, the
/// evaluation when its HR@10 differs or falls below the floor.
fn check(s: &Session, reference: &TrainStats, floor: f64, label: &str, out: &mut Outcome) {
    let logs = &s.stats.logs;
    let mut bad = logs.len().abs_diff(reference.logs.len()) as u64;
    for (a, b) in logs.iter().zip(&reference.logs) {
        if a.mean_loss.to_bits() != b.mean_loss.to_bits() {
            bad += 1;
        }
    }
    let hr = (s.stats.final_a.hr + s.stats.final_b.hr) / 2.0;
    let same_eval = s.stats.final_a.hr.to_bits() == reference.final_a.hr.to_bits()
        && s.stats.final_b.hr.to_bits() == reference.final_b.hr.to_bits();
    let eval_bad = u64::from(!same_eval || hr < floor);
    if bad + eval_bad > 0 {
        out.note(format!(
            "{label}: {bad} epoch(s) differ from the reference session, HR@10 {hr:.2}% (floor {floor:.1}%)"
        ));
    }
    out.ops(
        logs.len().max(reference.logs.len()) as u64 + 1,
        bad + eval_bad,
    );
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let p = profile(cfg);
    let tc = p.train_config();
    let mut out = Outcome::default();
    let start = clock::now_ns();
    let mut sessions = Vec::new();
    let mut ops_done = 0;
    while cfg.more_sessions(start, sessions.len(), ops_done, TAIL_Q) {
        let s = session(&p, &tc)?;
        ops_done += ops(&s.marks, true).len();
        sessions.push(s);
    }
    let reference = &sessions[0].stats;
    let floor = hr_floor(&p);
    for (i, s) in sessions.iter().enumerate() {
        check(s, reference, floor, &format!("session {i}"), &mut out);
    }

    let speed = session_speed(sessions.iter().map(|s| (s.start, &s.marks[..])))?;
    let setups: Vec<f64> = sessions
        .iter()
        .filter_map(|s| s.start.setup_ns(&s.marks))
        .map(|ns| ns / 1e9)
        .collect();
    let epochs: Vec<f64> = sessions.iter().flat_map(epoch_ms).collect();
    let epoch_s: f64 = epochs.iter().sum::<f64>() / 1e3;
    let examples: u64 = sessions
        .iter()
        .map(|s| totals(&s.marks, Hook::Loss).2)
        .sum();
    let evals: Vec<f64> = sessions.iter().filter_map(final_eval_ms).collect();
    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.op_latency(cfg, &epochs, TAIL_Q);
    let p50 = out.e2e.get("op_p50_ms").copied().unwrap_or(0.0);
    out.e2e
        .insert("work_per_s", crate::rate(examples as f64, epoch_s));
    out.note(format!(
        "{} sessions, {} epochs (op = epoch, tail = p{:.0}), final eval p50 {:.1} ms, HR@10 {:.2}% / {:.2}%",
        sessions.len(),
        epochs.len(),
        TAIL_Q * 100.0,
        median(&evals).unwrap_or(0.0),
        reference.final_a.hr,
        reference.final_b.hr,
    ));

    out.note(speed_note(
        sessions.iter().map(|s| &s.marks[..]),
        true,
        &speed,
    ));
    out.reference_work(&speed);
    if cfg.traced {
        traced(cfg, &p, &tc, reference, p50, &mut out)?;
    }
    Ok(out)
}

/// Final evaluation of a session: its first `prepare_eval` after the
/// last epoch's steps to `train_joint`'s return.
fn final_eval_ms(s: &Session) -> Option<f64> {
    let last = ops(&s.marks, true).last().copied()?;
    let end = s.marks.iter().rev().find(|m| m.hook == Hook::End)?;
    Some(end.start_ns.saturating_sub(last.end_ns) as f64 / 1e6)
}

fn traced(
    cfg: &RunConfig,
    p: &ExpProfile,
    tc: &TrainConfig,
    reference: &TrainStats,
    measured_p50: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let shapes = layers::matmul_shapes(&build_model(p), tc);
    let tc = TrainConfig {
        profile: true,
        ..tc.clone()
    };
    let sink = Arc::new(MemorySink::new());
    let s = trace::scoped(sink.clone(), || session(p, &tc))?;
    check(&s, reference, hr_floor(p), "traced session", out);
    let records = crate::finish_trace(cfg, "train-nmcdr", &sink.lines(), out);
    let profile = s.stats.profile.as_deref().unwrap_or(&[]);
    let allocated = s.stats.alloc.map_or(0, |a| a.allocated_b);
    training_layers(&records, &s.marks, profile, allocated, s.param_count, out);
    probe_kernels(cfg, &shapes, out);
    let traced_p50 = median(&epoch_ms(&s)).unwrap_or(0.0);
    out.layers.insert(
        "nm-obs.trace_overhead_pct".into(),
        crate::rate(traced_p50 - measured_p50, measured_p50) * 100.0,
    );
    Ok(())
}

/// The training chain's per-layer metrics plus the step conservation
/// check (forward + backward + Adam against the step interval, 5 %).
pub(crate) fn training_layers(
    records: &[nm_obs::TraceRecord],
    marks: &[Mark],
    profile: &[(&'static str, nm_models::OpAgg)],
    allocated_b: u64,
    param_count: usize,
    out: &mut Outcome,
) {
    layers::training(
        records,
        marks,
        profile,
        allocated_b,
        param_count,
        &mut out.layers,
    );
    let (parts, whole) = layers::step_conservation(records);
    let gap = whole as f64 - parts as f64;
    out.layers.insert(
        "nm-obs.unattributed_pct".into(),
        crate::rate(gap, whole as f64) * 100.0,
    );
    out.note(format!(
        "steps: forward+backward+adam {parts} us of {whole} us step time"
    ));
    if whole == 0 || gap.abs() > 0.05 * whole as f64 {
        out.problems.push(format!(
            "step conservation: forward+backward+adam {parts} us vs step interval {whole} us (> 5 % apart)"
        ));
    }
}

/// Kernel probes at the fixed shapes, with the counted top three noted.
pub(crate) fn probe_kernels(
    cfg: &RunConfig,
    shapes: &[((usize, usize, usize), usize)],
    out: &mut Outcome,
) {
    let top: Vec<String> = shapes
        .iter()
        .take(3)
        .map(|((m, k, n), c)| format!("{m}x{k}x{n} ({c}x)"))
        .collect();
    out.note(format!(
        "most frequent matmul shapes per step: {}",
        top.join(", ")
    ));
    let budget_ms = if cfg.smoke { 2.0 } else { 60.0 };
    layers::matmul_probes(budget_ms, cfg.seed, &mut out.layers);
}

pub(crate) fn elapsed_s(start_ns: u64) -> f64 {
    clock::now_ns().saturating_sub(start_ns) as f64 / 1e9
}
