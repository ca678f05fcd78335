//! The serve-while-train loop driver.
//!
//! One loop iteration = one stream round: generate (or replay) the
//! round's events against the serving snapshot, fine-tune the model on
//! them through the delta-checkpoint path, then decide — publish the
//! candidate into the engine, hold, roll back to last-good, or halt.
//!
//! ## Durable artifacts (all under `StreamConfig::out_dir`)
//!
//! | file             | contents                                       |
//! |------------------|------------------------------------------------|
//! | `events.log`     | round-framed event stream (source of truth)    |
//! | `delta.nmck`     | trainer delta checkpoint (candidate lineage)   |
//! | `good.nmck`      | delta checkpoint promoted at the last publish  |
//! | `snap_init.nmss` | pre-stream serving snapshot                    |
//! | `snap_NNNNN.nmss`| snapshot published after round NNNNN           |
//! | `decisions.log`  | one line per iteration: verdict + action       |
//! | `state.txt`      | runner counters + drift-monitor state          |
//!
//! ## Crash recovery
//!
//! Each iteration commits in write-ahead order:
//!
//! 1. **train** — the delta checkpoint advances one round (atomic);
//! 2. **log the decision** — the full decision line (verdict, action,
//!    loss/HR bits) is appended to `decisions.log` *before* anything
//!    acts on it;
//! 3. **apply effects** — publish/rollback effects are idempotent and
//!    take their inputs from checkpoints, never from in-memory state
//!    (a publish re-restores the delta checkpoint, a rollback restores
//!    last-good), so re-applying after a kill is byte-identical;
//! 4. **commit** — `state.txt` (counters + monitor) is atomically
//!    replaced, which is the iteration's commit point.
//!
//! On start-up the runner compares `decisions.log` length, `state.txt`,
//! and the delta checkpoint's trained-epoch count: a logged-but-
//! uncommitted decision is re-applied (the monitor mutation is
//! replayed from the logged verdict), and a trained-but-undecided
//! round is decided from the checkpointed epoch log. Either way the
//! directory converges to the same bytes an uninterrupted run produces
//! (`tests/stream_loop.rs` kills at every boundary and proves it).

use crate::drift::Verdict;
use crate::ring::RingBuffer;
use crate::source::{generate_round, EventLog, SourceConfig};
use crate::state::{append_decision, load_decisions, RunnerState};
use crate::tuner::MicroBatchSource;
use crate::{DriftConfig, StreamError};
use nm_models::resume::{encode_state, restore_state};
use nm_models::{
    peek_state, train_joint_ft_with, CdrModel, FaultPlan, FtConfig, OpAgg, TrainConfig,
    TrainerState,
};
use nm_nn::checkpoint::atomic_write_bytes;
use nm_obs::{clock, trace};
use nm_optim::Adam;
use nm_serve::{Engine, EngineConfig, FrozenModel, Snapshot};
use std::path::{Path, PathBuf};

pub use crate::state::{Action, Decision};

/// Injected crash points for the lineage fault harness (each names the
/// round at which the "kill" fires). All leave the out-dir exactly as a
/// real `kill -9` in that window would.
#[derive(Debug, Clone, Default)]
pub struct StreamFaults {
    /// Die right after the round's events are appended to the log.
    pub kill_after_events: Option<usize>,
    /// Die after the round trained (delta checkpoint written) but
    /// before any decision is logged.
    pub kill_after_train: Option<usize>,
    /// Die after the decision is write-ahead logged but before any of
    /// its effects apply.
    pub kill_after_decision: Option<usize>,
    /// Die inside the publish step, before any effect.
    pub kill_before_publish: Option<usize>,
    /// Die after all publish effects (snapshot file, engine swap,
    /// last-good promotion) but before the state commit.
    pub kill_after_publish: Option<usize>,
    /// Tear the snapshot write: leave a truncated `.nmss` and die.
    pub torn_publish: Option<usize>,
    /// Tear the delta checkpoint write for this round (maps onto the
    /// trainer's own `torn_write_after_epoch` fault).
    pub torn_delta: Option<usize>,
}

/// Full configuration of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Directory for all durable artifacts.
    pub out_dir: PathBuf,
    /// Stream rounds to run (the trainer's `epochs` is pinned to this).
    pub rounds: usize,
    pub source: SourceConfig,
    /// Ring-buffer capacity (drop-oldest beyond this).
    pub ring_capacity: usize,
    /// Max events drained into one round's micro-batches.
    pub microbatch_max: usize,
    /// Publish cadence: export + hot-swap after every N-th round
    /// (unless cooling down or drifting).
    pub publish_every: usize,
    pub drift: DriftConfig,
    pub engine: EngineConfig,
    /// Users per domain probed against the engine each round (p99
    /// telemetry; advisory unless `drift.p99_limit_us` is set).
    pub probe_users: usize,
    pub probe_k: usize,
    pub faults: StreamFaults,
}

impl StreamConfig {
    pub fn new(out_dir: PathBuf) -> Self {
        Self {
            out_dir,
            rounds: 12,
            source: SourceConfig::default(),
            ring_capacity: 4096,
            microbatch_max: 256,
            publish_every: 2,
            drift: DriftConfig::default(),
            engine: EngineConfig::default(),
            probe_users: 8,
            probe_k: 10,
            faults: StreamFaults::default(),
        }
    }
}

/// Outcome summary of a completed (or halted) streaming run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Full decision history, one entry per loop iteration.
    pub decisions: Vec<Decision>,
    pub publishes: u64,
    /// Successful engine hot-swaps (== publishes; the swap is part of
    /// the publish step).
    pub swaps: u64,
    pub rollbacks: u64,
    pub halted: bool,
    /// Rounds the delta checkpoint has fully trained.
    pub rounds_trained: usize,
    /// Events across all complete rounds in the log.
    pub events_logged: usize,
    /// Ring lifetime counters `(pushed, dropped, drained)`.
    pub ring_counters: (u64, u64, u64),
    /// Probe HR at the last decision (0.0 if none).
    pub final_hr: f64,
    /// Bit-for-bit snapshot parity assertions that passed (init, every
    /// publish, every rollback).
    pub parity_checks: u64,
    /// Per-op-kind profiler aggregates summed over every round *this
    /// process* trained (rolled-back rounds count each time they run —
    /// deterministic under a fixed seed). `Some` only when the supplied
    /// `TrainConfig` had `profile` set (`stream --profile-out`).
    pub profile: Option<Vec<(&'static str, OpAgg)>>,
    /// Tensor-allocation traffic summed the same way: cumulative
    /// allocated/freed bytes, and the max of the per-round live-byte
    /// high-water marks.
    pub alloc: Option<nm_tensor::alloc::AllocStats>,
}

struct Paths {
    out_dir: PathBuf,
    events: PathBuf,
    delta: PathBuf,
    good: PathBuf,
    decisions: PathBuf,
    state: PathBuf,
}

impl Paths {
    fn new(dir: &Path) -> Self {
        Self {
            out_dir: dir.to_path_buf(),
            events: dir.join("events.log"),
            delta: dir.join("delta.nmck"),
            good: dir.join("good.nmck"),
            decisions: dir.join("decisions.log"),
            state: dir.join("state.txt"),
        }
    }

    fn snapshot(&self, serving: Option<u32>) -> PathBuf {
        match serving {
            None => self.out_dir.join("snap_init.nmss"),
            Some(r) => self.out_dir.join(format!("snap_{r:05}.nmss")),
        }
    }
}

/// p99 of latency samples (µs); 0 when empty.
fn p99(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = (samples.len() * 99).div_ceil(100).max(1) - 1;
    samples[idx]
}

/// Probes the live engine with a fixed query set and returns serve p99
/// (µs). Wall-clock: traced, never written to `decisions.log`.
fn probe_engine(engine: &Engine, cfg: &StreamConfig) -> u64 {
    let snap = engine.snapshot();
    let mut lat = Vec::with_capacity(cfg.probe_users * 2);
    for domain in 0..2 {
        let n = cfg.probe_users.min(snap.n_users(domain));
        for u in 0..n {
            let sw = clock::Stopwatch::start();
            let _ = engine.topk_traced(domain, u as u32, cfg.probe_k);
            lat.push(sw.elapsed_us());
        }
    }
    let p = p99(lat);
    trace::event("stream.probe", |e| {
        e.u("p99_us", p);
    });
    p
}

/// Extracts `(mean_loss, probe_hr)` of the round from the trainer's
/// last epoch log.
fn round_metrics(logs: &[nm_models::EpochLog], round: usize) -> Result<(f32, f64), StreamError> {
    let last = logs
        .last()
        .ok_or_else(|| StreamError::Corrupt("trainer state has no epoch logs".into()))?;
    if last.epoch != round {
        return Err(StreamError::Corrupt(format!(
            "delta checkpoint's last epoch {} != expected round {round}",
            last.epoch
        )));
    }
    let (ea, eb) = last.eval.as_ref().ok_or_else(|| {
        StreamError::Corrupt("round epoch log carries no eval (eval_every must be 1)".into())
    })?;
    Ok((last.mean_loss, (ea.hr + eb.hr) / 2.0))
}

/// Everything an iteration needs besides the model.
struct Loop<'a> {
    cfg: &'a StreamConfig,
    paths: Paths,
    tc: TrainConfig,
    engine: Engine,
    rs: RunnerState,
    decisions: Vec<Decision>,
    opt: Adam,
    parity_checks: u64,
}

/// Runs the online loop to completion (or halt) and reports.
///
/// `train_cfg` supplies the optimizer/eval knobs; `epochs`,
/// `eval_every`, and `early_stop_patience` are overridden internally
/// (one stream round = one trainer epoch; every round needs an eval;
/// early stopping is the drift monitor's job here). Calling this on an
/// out-dir where a previous run was killed resumes it; calling it on a
/// completed out-dir verifies state and returns the final report.
pub fn run_stream<M: CdrModel + FrozenModel>(
    model: &mut M,
    train_cfg: &TrainConfig,
    cfg: &StreamConfig,
) -> Result<StreamReport, StreamError> {
    if cfg.rounds == 0 {
        return Err(StreamError::Config("rounds must be > 0".into()));
    }
    if cfg.publish_every == 0 {
        return Err(StreamError::Config("publish_every must be > 0".into()));
    }
    if cfg.microbatch_max == 0 {
        return Err(StreamError::Config("microbatch_max must be > 0".into()));
    }
    std::fs::create_dir_all(&cfg.out_dir)?;
    let paths = Paths::new(&cfg.out_dir);

    // One stream round = one trainer epoch against the same delta
    // checkpoint. These three fields are part of the checkpoint's
    // config fingerprint, so they must be identical on every call.
    let mut tc = train_cfg.clone();
    tc.epochs = cfg.rounds;
    tc.eval_every = 1;
    tc.early_stop_patience = 0;

    let mut parity_checks = 0u64;
    let opt = Adam::new(tc.lr);

    // ---- fresh start: publish the pre-stream snapshot + fresh delta ----
    if RunnerState::load(&paths.state)?.is_none() {
        let snap = model.export_frozen();
        let init_path = paths.snapshot(None);
        snap.save_to_file(&init_path)?;
        let loaded = Snapshot::load_from_file(&init_path)?;
        if loaded != snap {
            return Err(StreamError::ParityMismatch(
                "initial snapshot file differs from in-memory export".into(),
            ));
        }
        parity_checks += 1;
        let st = TrainerState::fresh(&tc);
        let bytes = encode_state(model, &opt, &st, &tc)?;
        atomic_write_bytes(&paths.delta, &bytes)?;
        atomic_write_bytes(&paths.good, &bytes)?;
        RunnerState::default().save(&paths.state)?;
        trace::event("stream.publish", |e| {
            e.s("snapshot", "init").b("initial", true);
        });
    }

    let rs = RunnerState::load(&paths.state)?
        .ok_or_else(|| StreamError::Corrupt("state.txt vanished after init".into()))?;

    // ---- serving engine: always from the last published snapshot ----
    let serving_path = paths.snapshot(rs.serving);
    let serving = Snapshot::load_from_file(&serving_path).map_err(|e| {
        StreamError::Corrupt(format!(
            "serving snapshot {} unreadable: {e}",
            serving_path.display()
        ))
    })?;
    // The engine's telemetry additionally watches the stream loop: the
    // per-round tick below records stream.* counters into the same
    // flight recorder, and the rollback-rate SLO burns on them.
    let mut engine_cfg = cfg.engine.clone();
    engine_cfg
        .telemetry
        .slos
        .extend(nm_obs::SloSpec::stream_defaults());
    let engine = Engine::new(serving, engine_cfg)?;

    let mut log = EventLog::load(&paths.events)?;
    let decisions = load_decisions(&paths.decisions)?;

    let mut lp = Loop {
        cfg,
        paths,
        tc,
        engine,
        rs,
        decisions,
        opt,
        parity_checks,
    };

    // ---- crash recovery ----
    // (a) A decision line beyond the committed iteration count is a
    // write-ahead entry whose effects may be half-applied: replay the
    // monitor mutation from the logged verdict and re-apply.
    match (lp.decisions.len() as u64).checked_sub(lp.rs.iter) {
        Some(0) => {}
        Some(1) => {
            let d = lp.decisions[lp.rs.iter as usize];
            if d.iter != lp.rs.iter || d.round != lp.rs.trained_after {
                return Err(StreamError::Corrupt(format!(
                    "WAL decision (iter {} round {}) does not match state (iter {} round {})",
                    d.iter, d.round, lp.rs.iter, lp.rs.trained_after
                )));
            }
            lp.rs
                .monitor
                .replay(&cfg.drift, d.verdict, f64::from(d.mean_loss));
            commit_iteration(model, &mut lp, d)?;
        }
        _ => {
            return Err(StreamError::Corrupt(format!(
                "decisions.log has {} lines but state.txt committed {} iterations",
                lp.decisions.len(),
                lp.rs.iter
            )));
        }
    }
    lp.decisions.truncate(lp.rs.iter as usize);

    // (b) A delta checkpoint one round ahead of the committed state is
    // a trained-but-undecided round: decide it now, from the
    // checkpointed epoch log (same inputs, same monitor state, same
    // verdict as the uninterrupted run).
    let delta_bytes = std::fs::read(&lp.paths.delta).map_err(|e| {
        StreamError::Corrupt(format!(
            "delta checkpoint {} unreadable: {e}",
            lp.paths.delta.display()
        ))
    })?;
    let peeked = peek_state(&delta_bytes, &lp.tc, model.name())?;
    if peeked.epoch_next == lp.rs.trained_after + 1 {
        let r = lp.rs.trained_after;
        let (mean_loss, hr) = round_metrics(&peeked.logs, r)?;
        decide_iteration(model, &mut lp, r, mean_loss, hr)?;
    } else if peeked.epoch_next != lp.rs.trained_after {
        return Err(StreamError::Corrupt(format!(
            "delta checkpoint trained through {} but state.txt says {} — lineage broken",
            peeked.epoch_next, lp.rs.trained_after
        )));
    }

    let mut ring = RingBuffer::rebuild(
        &log,
        lp.rs.trained_after,
        cfg.microbatch_max,
        cfg.ring_capacity,
    );

    // Per-round profiler drains accumulate here when the caller's
    // TrainConfig has `profile` set; the trainer resets its table and
    // the alloc counters on every call, so each round contributes its
    // own delta.
    let mut prof_acc: std::collections::BTreeMap<&'static str, OpAgg> =
        std::collections::BTreeMap::new();
    let mut alloc_acc: Option<nm_tensor::alloc::AllocStats> = None;

    // ---- main loop ----
    while lp.rs.trained_after < cfg.rounds && !lp.rs.halted {
        let r = lp.rs.trained_after;

        // (1) the round's events: generate once against the serving
        // snapshot, replay from the log ever after (also post-rollback).
        if log.rounds() == r {
            let events = generate_round(&cfg.source, &lp.engine.snapshot(), r);
            log.append_round(events)?;
            if cfg.faults.kill_after_events == Some(r) {
                return Err(StreamError::Injected {
                    what: "kill after events",
                    round: r,
                });
            }
        } else if log.rounds() < r {
            return Err(StreamError::Corrupt(format!(
                "event log has {} rounds but round {r} is due",
                log.rounds()
            )));
        }

        // (2) delta fine-tune exactly one round against the shared
        // checkpoint (resume → train → checkpoint at the boundary).
        let ft = FtConfig {
            checkpoint: Some(lp.paths.delta.clone()),
            checkpoint_every: 1,
            resume: true,
            max_epochs_per_call: 1,
            faults: FaultPlan {
                torn_write_after_epoch: cfg.faults.torn_delta.filter(|&t| t == r),
                ..FaultPlan::default()
            },
            ..FtConfig::default()
        };
        let stats = {
            let mut source = MicroBatchSource::new(&log, &mut ring, cfg.microbatch_max);
            train_joint_ft_with(model, &lp.tc, &ft, &mut source)?
        };
        if cfg.faults.kill_after_train == Some(r) {
            return Err(StreamError::Injected {
                what: "kill after train",
                round: r,
            });
        }
        if let Some(part) = &stats.profile {
            for (kind, agg) in part {
                prof_acc.entry(kind).or_default().merge(agg);
            }
        }
        if let Some(a) = stats.alloc {
            let acc = alloc_acc.get_or_insert(nm_tensor::alloc::AllocStats {
                allocated_b: 0,
                freed_b: 0,
                live_b: 0,
                peak_b: 0,
            });
            acc.allocated_b += a.allocated_b;
            acc.freed_b += a.freed_b;
            acc.live_b = a.live_b;
            acc.peak_b = acc.peak_b.max(a.peak_b);
        }
        let (mean_loss, hr) = round_metrics(&stats.logs, r)?;
        let (pushed, dropped, drained) = ring.counters();
        trace::event("stream.round", |e| {
            e.u("round", r as u64)
                .u("events", log.round(r).len() as u64)
                .u("ring_pushed", pushed)
                .u("ring_dropped", dropped)
                .u("ring_drained", drained)
                .f("mean_loss", f64::from(mean_loss))
                .f("hr", hr);
        });

        // (3) decide, WAL, apply, commit.
        let action = decide_iteration(model, &mut lp, r, mean_loss, hr)?;
        if action == Action::Rollback {
            ring = RingBuffer::rebuild(
                &log,
                lp.rs.trained_after,
                cfg.microbatch_max,
                cfg.ring_capacity,
            );
        }
    }

    let final_hr = lp.decisions.last().map_or(0.0, |d| d.hr);
    Ok(StreamReport {
        publishes: lp.rs.publishes,
        swaps: lp.rs.swaps,
        rollbacks: lp.rs.rollbacks,
        halted: lp.rs.halted,
        rounds_trained: lp.rs.trained_after,
        events_logged: log.total_events(),
        ring_counters: ring.counters(),
        final_hr,
        parity_checks: lp.parity_checks,
        profile: lp.tc.profile.then(|| prof_acc.into_iter().collect()),
        alloc: alloc_acc,
        decisions: lp.decisions,
    })
}

/// Observes the round's metrics, picks an action, write-ahead logs the
/// decision, applies it, and commits. Returns the action taken.
fn decide_iteration<M: CdrModel + FrozenModel>(
    model: &mut M,
    lp: &mut Loop<'_>,
    r: usize,
    mean_loss: f32,
    hr: f64,
) -> Result<Action, StreamError> {
    // Serve latency is probed every round for telemetry; it only feeds
    // the verdict when the latency detector is explicitly on (which
    // sacrifices cross-run decision reproducibility — see DriftConfig).
    let p99_us = probe_engine(&lp.engine, lp.cfg);
    let p99_opt = (lp.cfg.drift.p99_limit_us > 0).then_some(p99_us);
    let verdict = lp
        .rs
        .monitor
        .observe(&lp.cfg.drift, f64::from(mean_loss), hr, p99_opt);

    let on_cadence = (r + 1).is_multiple_of(lp.cfg.publish_every);
    let action = match verdict {
        Verdict::Drift if lp.rs.rollbacks < lp.cfg.drift.max_rollbacks as u64 => Action::Rollback,
        Verdict::Drift => Action::Halt,
        Verdict::Healthy | Verdict::Warmup if on_cadence => Action::Publish,
        _ => Action::Hold,
    };
    trace::event("stream.decision", |e| {
        e.u("round", r as u64)
            .s("verdict", verdict.as_str())
            .s("action", action.as_str())
            .f("mean_loss", f64::from(mean_loss))
            .f("hr", hr);
    });

    let d = Decision {
        iter: lp.rs.iter,
        round: r,
        verdict,
        action,
        mean_loss,
        hr,
    };
    // Write-ahead: the decision is durable before any effect, so a
    // crash mid-effects can replay it (effects are idempotent).
    append_decision(&lp.paths.decisions, lp.rs.iter, d)?;
    if lp.cfg.faults.kill_after_decision == Some(r) {
        return Err(StreamError::Injected {
            what: "kill after decision",
            round: r,
        });
    }
    commit_iteration(model, lp, d)?;
    Ok(action)
}

/// Applies a (write-ahead logged) decision's effects and commits the
/// iteration. Idempotent: effects read checkpoints, never in-memory
/// training state, so replaying after a kill converges to the same
/// bytes.
fn commit_iteration<M: CdrModel + FrozenModel>(
    model: &mut M,
    lp: &mut Loop<'_>,
    d: Decision,
) -> Result<(), StreamError> {
    let r = d.round;
    let mut trained_next = r + 1;
    match d.action {
        Action::Hold => {}
        Action::Publish => {
            if lp.cfg.faults.kill_before_publish == Some(r) {
                return Err(StreamError::Injected {
                    what: "kill before publish",
                    round: r,
                });
            }
            // Export from the delta checkpoint, not the live model —
            // identical bytes (resume is bit-exact), and it makes a
            // crash-replayed publish indistinguishable from the
            // original.
            let delta = std::fs::read(&lp.paths.delta)?;
            let restored = restore_state(model, &mut lp.opt, &lp.tc, &delta)?;
            if restored.epoch_next != r + 1 {
                return Err(StreamError::Corrupt(format!(
                    "publish of round {r} but delta checkpoint trained through {}",
                    restored.epoch_next
                )));
            }
            if let Some(last) = restored.logs.last() {
                model.begin_epoch(last.epoch);
            }
            let snap = model.export_frozen();
            let path = lp.paths.snapshot(Some(r as u32));
            if lp.cfg.faults.torn_publish == Some(r) {
                // Simulate dying midway through the snapshot write: a
                // truncated file at the final path, nothing else done.
                snap.save_to_file(&path)?;
                let bytes = std::fs::read(&path)?;
                std::fs::write(&path, &bytes[..bytes.len() / 2])?;
                return Err(StreamError::Injected {
                    what: "torn publish",
                    round: r,
                });
            }
            snap.save_to_file(&path)?;
            // Bit-for-bit parity: what the engine will serve is exactly
            // what the trainer holds.
            let loaded = Snapshot::load_from_file(&path)?;
            if loaded != snap {
                return Err(StreamError::ParityMismatch(format!(
                    "published snapshot {} differs from trainer export",
                    path.display()
                )));
            }
            lp.parity_checks += 1;
            lp.engine.reload(loaded)?;
            // Promote the delta lineage: this checkpoint is last-good.
            atomic_write_bytes(&lp.paths.good, &delta)?;
            lp.rs.serving = Some(r as u32);
            lp.rs.monitor.on_publish(d.hr);
            lp.rs.publishes += 1;
            lp.rs.swaps += 1;
            let reg = lp.engine.stats().registry();
            reg.counter("stream.publishes").inc();
            reg.counter("stream.swaps").inc();
            trace::event("stream.publish", |e| {
                e.u("round", r as u64).f("hr", d.hr);
            });
            trace::event("stream.swap", |e| {
                e.u("round", r as u64).u("engine_epoch", lp.engine.epoch());
            });
            if lp.cfg.faults.kill_after_publish == Some(r) {
                return Err(StreamError::Injected {
                    what: "kill after publish",
                    round: r,
                });
            }
        }
        Action::Rollback => {
            // Last-good checkpoint becomes the delta again…
            let good = std::fs::read(&lp.paths.good)?;
            atomic_write_bytes(&lp.paths.delta, &good)?;
            let restored = restore_state(model, &mut lp.opt, &lp.tc, &good)?;
            if let Some(last) = restored.logs.last() {
                model.begin_epoch(last.epoch);
            }
            // …and the serving snapshot is re-asserted into the engine.
            let sp = lp.paths.snapshot(lp.rs.serving);
            let serving = Snapshot::load_from_file(&sp)?;
            lp.engine.reload(serving.clone())?;
            // Acceptance invariant: the restored trainer and the
            // serving snapshot are the same model, bit for bit.
            let exported = model.export_frozen();
            if exported != serving {
                return Err(StreamError::ParityMismatch(format!(
                    "rolled-back model differs from serving snapshot {}",
                    sp.display()
                )));
            }
            lp.parity_checks += 1;
            trained_next = restored.epoch_next;
            lp.rs.monitor.on_rollback(&lp.cfg.drift);
            lp.rs.rollbacks += 1;
            lp.engine
                .stats()
                .registry()
                .counter("stream.rollbacks")
                .inc();
            trace::event("stream.rollback", |e| {
                e.u("round", r as u64).u("to_round", trained_next as u64).s(
                    "serving",
                    &lp.rs.serving.map_or("init".to_string(), |x| x.to_string()),
                );
            });
        }
        Action::Halt => {
            lp.rs.halted = true;
            trace::event("stream.halt", |e| {
                e.u("round", r as u64).u("rollbacks", lp.rs.rollbacks);
            });
        }
    }

    lp.decisions.truncate(lp.rs.iter as usize);
    lp.decisions.push(d);
    lp.rs.iter += 1;
    lp.rs.trained_after = trained_next;
    lp.rs.save(&lp.paths.state)?;
    // One telemetry tick per committed iteration: the logical round
    // ordinal is the tick source, so same-seed runs record the same
    // series. The series lives only in memory — never in out_dir,
    // whose bytes must converge across kill/resume runs.
    lp.engine.stats().registry().counter("stream.rounds").inc();
    lp.engine.tick_telemetry();
    Ok(())
}
