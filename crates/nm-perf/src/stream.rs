//! `stream-online`: `run_stream` on `Timed<NmcdrModel>`, cloth-sport at
//! the training profile, 3,072 events per round trained as one
//! micro-batch, a publish every 2 rounds, no shift.
//!
//! Like `train-nmcdr`, the measured phase runs same-seed sessions (here
//! 16 rounds each, in a fresh directory) until the budget is spent, and
//! every session must write the first one's `events.log` and
//! `decisions.log` byte for byte.

use crate::stats::median;
use crate::timed::{ops, round_parts, session_speed, speed_note, Mark, RoundParts, Started, Timed};
use crate::train::{build_model, probe_kernels, profile, training_layers};
use crate::{layers, rate, Outcome, RunConfig};
use nm_bench::ExpProfile;
use nm_models::TrainConfig;
use nm_nn::Module;
use nm_obs::{clock, trace, MemorySink};
use nm_stream::{run_stream, SourceConfig, StreamConfig, StreamReport};
use std::path::Path;
use std::sync::Arc;

/// Round-time tail percentile: a 25 s run holds well over the 100 rounds it
/// needs; a contended run measures a little longer to get them.
const TAIL_Q: f64 = 0.9;

struct Sizes {
    rounds: usize,
    events: usize,
}

fn sizes(cfg: &RunConfig) -> Sizes {
    if cfg.smoke {
        Sizes {
            rounds: 4,
            events: 512,
        }
    } else {
        Sizes {
            rounds: 16,
            events: 3072,
        }
    }
}

struct Session {
    /// When the session started, and the probe taken just before.
    start: Started,
    marks: Vec<Mark>,
    report: StreamReport,
    events_log: Vec<u8>,
    decisions_log: Vec<u8>,
    param_count: usize,
}

fn stream_config(dir: &Path, seed: u64, sz: &Sizes) -> StreamConfig {
    StreamConfig {
        rounds: sz.rounds,
        source: SourceConfig {
            seed,
            events_per_round: sz.events,
            ..SourceConfig::default()
        },
        ring_capacity: 4096.max(sz.events),
        microbatch_max: sz.events,
        publish_every: 2,
        engine: nm_serve::EngineConfig {
            n_workers: 2,
            ..Default::default()
        },
        ..StreamConfig::new(dir.to_path_buf())
    }
}

/// One session in `dir`: data, model, `run_stream`, every round probed.
fn session(p: &ExpProfile, tc: &TrainConfig, sz: &Sizes, dir: &Path) -> Result<Session, String> {
    let start = Started::now();
    let mut model = Timed::new(build_model(p));
    let report = run_stream(&mut model, tc, &stream_config(dir, p.seed, sz))
        .map_err(|e| format!("stream run failed: {e}"))?;
    model.mark_end();
    let marks = model.marks();
    let read =
        |name: &str| std::fs::read(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"));
    let s = Session {
        start,
        param_count: model.param_count(),
        events_log: read("events.log")?,
        decisions_log: read("decisions.log")?,
        marks,
        report,
    };
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(s)
}

/// Counts the session's rounds as ops; all of them fail when the logs
/// differ from the reference session's, the loop halted, or a parity
/// check is missing.
fn check(s: &Session, reference: &Session, label: &str, out: &mut Outcome) {
    let r = &s.report;
    let mut why = Vec::new();
    if s.events_log != reference.events_log {
        why.push("events.log differs");
    }
    if s.decisions_log != reference.decisions_log {
        why.push("decisions.log differs");
    }
    if r.halted {
        why.push("halted");
    }
    if r.parity_checks != r.publishes + 1 {
        why.push("parity checks != publishes + 1");
    }
    let rounds = r.rounds_trained as u64;
    if !why.is_empty() {
        out.note(format!("{label}: {}", why.join(", ")));
    }
    out.ops(rounds, if why.is_empty() { 0 } else { rounds });
}

/// Round durations (ms at reference speed) of a session.
fn round_ms(s: &Session) -> Vec<f64> {
    ops(&s.marks, false)
        .iter()
        .map(|op| op.ref_ns() / 1e6)
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let p = profile(cfg);
    let tc = p.train_config();
    let sz = sizes(cfg);
    let dir = cfg.scratch("stream-online")?;
    let result = measure(cfg, &p, &tc, &sz, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    cfg: &RunConfig,
    p: &ExpProfile,
    tc: &TrainConfig,
    sz: &Sizes,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = clock::now_ns();
    let mut sessions = Vec::new();
    let mut ops_done = 0;
    while cfg.more_sessions(start, sessions.len(), ops_done, TAIL_Q) {
        let sub = dir.join(format!("s{}", sessions.len()));
        let s = session(p, tc, sz, &sub)?;
        ops_done += ops(&s.marks, false).len();
        sessions.push(s);
    }
    let reference = &sessions[0];
    for (i, s) in sessions.iter().enumerate() {
        check(s, reference, &format!("session {i}"), &mut out);
    }

    let speed = session_speed(sessions.iter().map(|s| (s.start, &s.marks[..])))?;
    let setups: Vec<f64> = sessions
        .iter()
        .filter_map(|s| s.start.setup_ns(&s.marks))
        .map(|ns| ns / 1e9)
        .collect();
    let rounds: Vec<f64> = sessions.iter().flat_map(round_ms).collect();
    let events: usize = sessions.iter().map(|s| s.report.events_logged).sum();
    let loop_s: f64 = rounds.iter().sum::<f64>() / 1e3;
    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.op_latency(cfg, &rounds, TAIL_Q);
    let p50 = out.e2e.get("op_p50_ms").copied().unwrap_or(0.0);
    out.e2e.insert("work_per_s", rate(events as f64, loop_s));
    let r = &reference.report;
    out.note(format!(
        "{} sessions, {} rounds (op = round, tail = p{:.0}); per session {} publishes, {} rollbacks, final probe HR {:.2}%",
        sessions.len(),
        rounds.len(),
        TAIL_Q * 100.0,
        r.publishes,
        r.rollbacks,
        r.final_hr
    ));

    out.note(speed_note(
        sessions.iter().map(|s| &s.marks[..]),
        false,
        &speed,
    ));
    out.reference_work(&speed);
    if cfg.traced {
        let shapes = layers::matmul_shapes(&build_model(p), tc);
        let tc = TrainConfig {
            profile: true,
            ..tc.clone()
        };
        let sink = Arc::new(MemorySink::new());
        let s = trace::scoped(sink.clone(), || session(p, &tc, sz, &dir.join("traced")))?;
        check(&s, reference, "traced session", &mut out);
        let records = crate::finish_trace(cfg, "stream-online", &sink.lines(), &mut out);
        let profile = s.report.profile.as_deref().unwrap_or(&[]);
        let allocated = s.report.alloc.map_or(0, |a| a.allocated_b);
        training_layers(
            &records,
            &s.marks,
            profile,
            allocated,
            s.param_count,
            &mut out,
        );
        stream_layers(&s.marks, &mut out);
        probe_kernels(cfg, &shapes, &mut out);
        let traced_p50 = median(&round_ms(&s)).unwrap_or(0.0);
        out.layers.insert(
            "nm-obs.trace_overhead_pct".into(),
            rate(traced_p50 - p50, p50) * 100.0,
        );
    }
    Ok(out)
}

/// Round breakdown as per-part rates: rounds trained, evaluations,
/// exports and commits completed per second of their own time.
fn stream_layers(marks: &[Mark], out: &mut Outcome) {
    let rounds = ops(marks, false);
    let parts: Vec<RoundParts> = rounds.iter().map(|op| round_parts(marks, op)).collect();
    let sum = |f: fn(&RoundParts) -> u64| parts.iter().map(f).sum::<u64>();
    let (train, eval, publish) = (
        sum(|p| p.train_ns),
        sum(|p| p.eval_ns),
        sum(|p| p.publish_ns),
    );
    let (commit, total) = (sum(RoundParts::commit_ns), sum(|p| p.total_ns));
    let n = rounds.len() as f64;
    let s = |ns: u64| ns as f64 / 1e9;
    for (name, v) in [
        ("nm-stream.train_per_s", rate(n, s(train))),
        (
            "nm-stream.eval_per_s",
            rate(sum(|p| p.evals) as f64, s(eval)),
        ),
        (
            "nm-stream.publish_per_s",
            rate(sum(|p| p.exports) as f64, s(publish)),
        ),
        ("nm-stream.commit_per_s", rate(n, s(commit))),
    ] {
        out.layers.insert(name.into(), v);
    }
    let pct = |ns: u64| rate(ns as f64, total as f64) * 100.0;
    out.note(format!(
        "round time: train {:.1} %, eval {:.1} %, publish {:.1} %, commit (remainder) {:.1} %",
        pct(train),
        pct(eval),
        pct(publish),
        pct(commit)
    ));
}
