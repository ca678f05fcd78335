//! The shared joint training loop (paper §III-A-4: Adam, fixed LR,
//! 1 training negative per positive, batch training on both domains
//! simultaneously).
//!
//! The loop is **crash-safe**: [`train_joint_ft`] checkpoints the full
//! trainer state (params, Adam moments, counters, early-stopping best)
//! atomically at every epoch boundary and can resume from a kill at any
//! point such that the final parameters, logs, and ranking metrics are
//! bit-identical to an uninterrupted run (wall-clock `secs_per_step` is
//! the one field that necessarily differs). Non-finite loss no longer
//! panics: the divergence guard rolls back to the last good state,
//! halves the learning rate, and retries before surfacing a structured
//! [`TrainError`].

use crate::resume::{self, FtConfig, TrainError, TrainerState};
use crate::{CdrModel, Domain};
use nm_data::batch::{batches, epoch_seed, Batch};
use nm_data::negative::train_examples;
use nm_eval::{evaluate_ranking, RankingSummary};
use nm_nn::checkpoint;
use nm_obs::trace;
use nm_optim::{clip_global_norm, Adam, Optimizer};
use std::path::Path;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Training negatives per positive (paper: 1).
    pub neg_per_pos: usize,
    /// Global-norm gradient clip; 0 disables.
    pub grad_clip: f32,
    pub seed: u64,
    /// Evaluate on the held-out sets every `eval_every` epochs
    /// (0 = only at the end).
    pub eval_every: usize,
    /// Top-K for HR/NDCG (paper: 10).
    pub top_k: usize,
    /// Early stopping: stop after this many epochs without validation
    /// improvement and restore the best weights (0 = off; requires the
    /// task to be built with `TaskConfig { validation: true, .. }`).
    pub early_stop_patience: usize,
    /// Kernel-level profiling: per-op self-time, modeled FLOPs/bytes,
    /// and allocation traffic attribution (`train --profile-out`).
    /// Observation only — the loss stream and final parameters stay
    /// bit-identical to an unprofiled run.
    pub profile: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 6,
            batch_size: 512,
            lr: 3e-3,
            neg_per_pos: 1,
            grad_clip: 5.0,
            seed: 17,
            eval_every: 0,
            top_k: 10,
            early_stop_patience: 0,
            profile: false,
        }
    }
}

/// One epoch's record.
#[derive(Debug, Clone)]
pub struct EpochLog {
    pub epoch: usize,
    pub mean_loss: f32,
    pub eval: Option<(RankingSummary, RankingSummary)>,
    /// Per-stage wall time / loss breakdown, captured only while
    /// tracing is enabled (`None` otherwise). Never part of the resume
    /// replay contract: a traced and an untraced run stay bit-identical
    /// in every other field.
    pub telemetry: Option<EpochTelemetry>,
}

/// Per-epoch training telemetry: where the epoch's wall time went and
/// what each loss component did. Captured from the tracing layer's
/// per-thread aggregates after each epoch when tracing is enabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochTelemetry {
    /// Wall time of the epoch's optimization loop (µs).
    pub wall_us: u64,
    /// Total time under `train.forward` spans (model loss graphs).
    pub forward_us: u64,
    /// Total time under `train.backward` spans (tape backward + grad
    /// absorption).
    pub backward_us: u64,
    /// Total time under `train.optimizer` spans (clip + Adam step).
    pub optimizer_us: u64,
    /// `(span name, total µs)` for model pipeline stage spans
    /// (`stage.*`, e.g. NMCDR's encoder/intra/inter/complementing —
    /// PAPER.md Eq. 2–19), sorted by name.
    pub stage_us: Vec<(String, u64)>,
    /// `(value name, per-epoch mean)` for recorded loss components
    /// (`loss.*`, e.g. NMCDR's companion objectives Eq. 21–24), sorted
    /// by name.
    pub loss_terms: Vec<(String, f32)>,
    /// Global gradient L2 norm at the last step (pre-clip).
    pub grad_norm: f32,
    /// Parameter L2 norm at the last step (pre-update).
    pub param_norm: f32,
    /// Optimization steps executed this epoch.
    pub steps: u64,
    /// Training examples consumed this epoch (both domains).
    pub examples: u64,
}

impl EpochTelemetry {
    /// Builds the record from drained per-thread trace aggregates.
    fn from_thread_stats(
        stats: trace::ThreadStats,
        wall_us: u64,
        steps: u64,
        examples: u64,
    ) -> Self {
        let span_total = |name: &str| stats.spans.get(name).map_or(0, |a| a.total_us);
        let value_mean = |name: &str| stats.values.get(name).map_or(0.0, |v| v.mean()) as f32;
        Self {
            wall_us,
            forward_us: span_total("train.forward"),
            backward_us: span_total("train.backward"),
            optimizer_us: span_total("train.optimizer"),
            stage_us: stats
                .spans
                .iter()
                .filter(|(k, _)| k.starts_with("stage."))
                .map(|(k, a)| (k.clone(), a.total_us))
                .collect(),
            loss_terms: stats
                .values
                .iter()
                .filter(|(k, _)| k.starts_with("loss."))
                .map(|(k, v)| (k.clone(), v.mean() as f32))
                .collect(),
            grad_norm: value_mean("train.grad_norm"),
            param_norm: value_mean("train.param_norm"),
            steps,
            examples,
        }
    }

    /// Steps per second over the epoch's optimization loop.
    pub fn steps_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.steps as f64 / (self.wall_us as f64 / 1e6)
        }
    }

    /// Training-example throughput over the epoch's optimization loop.
    pub fn examples_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.examples as f64 / (self.wall_us as f64 / 1e6)
        }
    }
}

/// Result of a full training run.
#[derive(Debug, Clone)]
pub struct TrainStats {
    pub logs: Vec<EpochLog>,
    /// Final ranking metrics on domains (A, B).
    pub final_a: RankingSummary,
    pub final_b: RankingSummary,
    /// Mean wall-clock per optimization step, seconds (steps executed
    /// in *this* process — the only field that differs between an
    /// uninterrupted run and a kill-and-resume one).
    pub secs_per_step: f64,
    /// Trainable parameter count.
    pub param_count: usize,
    /// Divergence rollbacks the guard performed (0 on a healthy run).
    pub rollbacks: usize,
    /// Epoch this run resumed from, if it restored a checkpoint.
    pub resumed_from: Option<usize>,
    /// Run-level per-op-kind profiler aggregates, sorted by kind —
    /// `Some` only when `cfg.profile` was set. Counter fields are
    /// deterministic; the `*_ns` fields are measured wall time.
    pub profile: Option<Vec<(&'static str, nm_autograd::OpAgg)>>,
    /// Tensor-allocation accounting over the profiled window, frozen
    /// at the end of the run — `Some` only when `cfg.profile` was set.
    pub alloc: Option<nm_tensor::alloc::AllocStats>,
}

/// Evaluates `model` on both domains' held-out candidates.
pub fn evaluate_model(model: &mut dyn CdrModel, top_k: usize) -> (RankingSummary, RankingSummary) {
    model.prepare_eval();
    let task = model.task().clone();
    let score_a =
        |users: &[u32], items: &[u32]| -> Vec<f32> { model.eval_scores(Domain::A, users, items) };
    let a = evaluate_ranking(&score_a, task.eval(Domain::A), top_k);
    let score_b =
        |users: &[u32], items: &[u32]| -> Vec<f32> { model.eval_scores(Domain::B, users, items) };
    let b = evaluate_ranking(&score_b, task.eval(Domain::B), top_k);
    (a, b)
}

/// Evaluates `model` on the *validation* candidates (both domains).
pub fn evaluate_model_valid(
    model: &mut dyn CdrModel,
    top_k: usize,
) -> (RankingSummary, RankingSummary) {
    model.prepare_eval();
    let task = model.task().clone();
    let score_a =
        |users: &[u32], items: &[u32]| -> Vec<f32> { model.eval_scores(Domain::A, users, items) };
    let a = evaluate_ranking(&score_a, &task.valid_eval_a, top_k);
    let score_b =
        |users: &[u32], items: &[u32]| -> Vec<f32> { model.eval_scores(Domain::B, users, items) };
    let b = evaluate_ranking(&score_b, &task.valid_eval_b, top_k);
    (a, b)
}

/// Trains `model` jointly on both domains and evaluates leave-one-out
/// ranking. Negatives are resampled every epoch; the shorter domain's
/// batch list cycles so both domains contribute to every step.
///
/// Equivalent to [`train_joint_ft`] with no checkpointing and the
/// default divergence-rollback policy.
pub fn train_joint(model: &mut dyn CdrModel, cfg: &TrainConfig) -> Result<TrainStats, TrainError> {
    train_joint_ft(model, cfg, &FtConfig::default())
}

/// Supplies each epoch's per-domain batch lists for
/// [`train_joint_ft_with`].
///
/// Implementations **must be deterministic in `epoch`**: divergence
/// rollback and crash resume replay an epoch by calling this again with
/// the same `epoch`, and the replay contract requires the exact same
/// batches back. The default [`SplitSource`] derives everything from
/// `(cfg.seed, epoch)`; the streaming source replays its event log.
pub trait BatchSource {
    /// Batch lists for `epoch`, domains (A, B). An empty list on either
    /// side makes the epoch a zero-step no-op.
    fn epoch_batches(
        &mut self,
        model: &dyn CdrModel,
        cfg: &TrainConfig,
        epoch: usize,
    ) -> (Vec<Batch>, Vec<Batch>);
}

/// The offline default: resamples `neg_per_pos` negatives per split
/// positive and shuffles into `batch_size` batches, all seeded by
/// `(seed, epoch)` — exactly the sampling [`train_joint`] has always
/// used.
pub struct SplitSource;

impl BatchSource for SplitSource {
    fn epoch_batches(
        &mut self,
        model: &dyn CdrModel,
        cfg: &TrainConfig,
        epoch: usize,
    ) -> (Vec<Batch>, Vec<Batch>) {
        let task = model.task().clone();
        let seed = epoch_seed(cfg.seed, epoch);
        let ex_a = train_examples(&task.split_a, cfg.neg_per_pos, seed);
        let ex_b = train_examples(&task.split_b, cfg.neg_per_pos, seed ^ 0xB);
        (
            batches(&ex_a, cfg.batch_size, seed ^ 0xAA),
            batches(&ex_b, cfg.batch_size, seed ^ 0xBB),
        )
    }
}

/// Outcome of one attempted epoch: completed, or diverged mid-epoch.
enum EpochRun {
    Done {
        loss_sum: f64,
        steps: u64,
        examples: u64,
    },
    Diverged {
        step: usize,
        loss: f32,
    },
}

/// Fault-tolerant joint training: [`train_joint`] plus crash-safe
/// checkpointing, exact resume, and divergence rollback (see `ft`).
///
/// **Resume invariant:** a run killed at any point and resumed from its
/// checkpoint produces bit-identical final parameters, `logs`, and
/// ranking metrics to an uninterrupted run, because (a) every RNG
/// stream is derived from `(seed, epoch)` / the global step counter,
/// (b) the checkpoint carries the optimizer moments and early-stopping
/// state, and (c) checkpoints are only written at epoch boundaries, so
/// a replayed epoch re-executes the exact same step sequence.
pub fn train_joint_ft(
    model: &mut dyn CdrModel,
    cfg: &TrainConfig,
    ft: &FtConfig,
) -> Result<TrainStats, TrainError> {
    train_joint_ft_with(model, cfg, ft, &mut SplitSource)
}

/// [`train_joint_ft`] with a pluggable [`BatchSource`]. The offline
/// trainers pass [`SplitSource`]; the `nm-stream` delta fine-tuner
/// passes a source that drains its micro-batch ring. With
/// `ft.max_epochs_per_call > 0` the call completes at most that many
/// epochs, checkpoints at the stopping boundary, and returns — calling
/// again with `ft.resume = true` continues the same schedule
/// bit-identically.
pub fn train_joint_ft_with(
    model: &mut dyn CdrModel,
    cfg: &TrainConfig,
    ft: &FtConfig,
    source: &mut dyn BatchSource,
) -> Result<TrainStats, TrainError> {
    let task = model.task().clone();
    let mut opt = Adam::new(cfg.lr);
    let mut st = TrainerState::fresh(cfg);
    let mut resumed_from = None;

    if ft.resume {
        if let Some(path) = &ft.checkpoint {
            if path.exists() {
                let bytes = std::fs::read(path)?;
                st = resume::restore_state(model, &mut opt, cfg, &bytes)?;
                resumed_from = Some(st.epoch_next);
                trace::event("resume", |e| {
                    e.u("epoch", st.epoch_next as u64).u("steps", st.steps);
                });
            }
        }
    }

    // Last epoch-boundary state, for divergence rollback. Encoded up
    // front so even an epoch-0 divergence has somewhere to roll back to.
    let mut last_good = resume::encode_state(model, &opt, &st, cfg)?;

    if cfg.profile {
        nm_autograd::profile::reset();
        nm_autograd::profile::set_enabled(true);
        nm_tensor::alloc::reset();
        nm_tensor::alloc::set_enabled(true);
        if trace::enabled() {
            // The roofline ceilings are machine facts, so they go into
            // the (machine-dependent) trace, never the profile dump.
            // Probed once per process: the streaming loop calls the
            // trainer once per round and must not re-probe every time.
            nm_obs::profile::emit_peaks_event(nm_obs::profile::cached_peaks());
        }
    }
    let mut prof_table: std::collections::BTreeMap<&'static str, nm_autograd::OpAgg> =
        std::collections::BTreeMap::new();

    let t_start = nm_obs::clock::Stopwatch::start();
    let steps_before = st.steps;
    let early_stopping = cfg.early_stop_patience > 0 && !task.valid_eval_a.is_empty();
    let every = ft.checkpoint_every.max(1);
    let mut stopped_early = false;
    // Mutable copy so one-shot injections (NaN) can disarm after
    // firing — a rollback retry replays the same global step.
    let mut faults = ft.faults.clone();
    let cap = ft.max_epochs_per_call;
    let mut done_this_call = 0usize;

    while st.epoch_next < cfg.epochs && !stopped_early && (cap == 0 || done_this_call < cap) {
        let epoch = st.epoch_next;
        if trace::enabled() {
            // Discard aggregates left over from eval or a previous
            // model so this epoch's telemetry only sees its own loop.
            drop(trace::drain_thread_stats());
        }
        if cfg.profile {
            // Same discipline for the op profiler: drop ops recorded by
            // eval tapes or a rolled-back epoch attempt so the drain
            // after this epoch attributes only its own loop.
            drop(nm_autograd::profile::take());
        }
        model.begin_epoch(epoch);
        opt.set_lr(st.lr);
        let epoch_wall = nm_obs::clock::Stopwatch::start();
        let run = {
            let _sp = trace::span("train.epoch");
            let (ba, bb) = source.epoch_batches(model, cfg, epoch);
            run_epoch(model, &mut opt, cfg, &mut faults, epoch, st.steps, &ba, &bb)?
        };
        match run {
            EpochRun::Diverged { step, loss } => {
                let total_rollbacks = st.rollbacks + 1;
                if st.rollbacks >= ft.max_rollbacks {
                    return Err(TrainError::Diverged {
                        model: model.name(),
                        epoch,
                        step,
                        loss,
                        rollbacks: st.rollbacks,
                    });
                }
                // Roll back to the last good boundary, halve the LR,
                // and retry the epoch.
                st = resume::restore_state(model, &mut opt, cfg, &last_good)?;
                st.rollbacks = total_rollbacks;
                st.lr *= ft.rollback_lr_factor;
                trace::event("rollback", |e| {
                    e.u("epoch", epoch as u64)
                        .u("step", step as u64)
                        .f("loss", loss as f64)
                        .f("lr", st.lr as f64)
                        .u("rollbacks", st.rollbacks as u64);
                });
                continue;
            }
            EpochRun::Done {
                loss_sum,
                steps,
                examples,
            } => {
                let n_steps = steps - st.steps;
                st.steps = steps;
                let mean_loss = (loss_sum / (n_steps.max(1) as f64)) as f32;
                if cfg.profile {
                    // Drain this epoch's per-op aggregates: emit the
                    // measured self-times into the trace (one shared
                    // emission-ordinal tick per epoch batch, kinds in
                    // sorted order) and fold the deterministic
                    // counters into the run-level table. The tick is
                    // an ordinal, not the epoch: the streaming loop's
                    // drift rollback re-trains earlier epochs, and the
                    // strict parser rejects a regressing tick.
                    let part = nm_autograd::profile::take();
                    if trace::enabled() {
                        let tick = nm_obs::profile::next_time_tick();
                        for (kind, agg) in &part {
                            let t = nm_obs::profile::OpTiming {
                                fwd_calls: agg.fwd_calls,
                                bwd_calls: agg.bwd_calls,
                                fwd_ns: agg.fwd_ns,
                                bwd_ns: agg.bwd_ns,
                            };
                            trace::event("obs.profile.time", |e| {
                                nm_obs::profile::time_event_fields(e, tick, kind, &t);
                            });
                        }
                    }
                    nm_autograd::profile::merge_into(&mut prof_table, &part);
                }
                let telemetry = if trace::enabled() {
                    let wall_us = epoch_wall.elapsed_us();
                    trace::drain_thread_stats()
                        .map(|ts| EpochTelemetry::from_thread_stats(ts, wall_us, n_steps, examples))
                } else {
                    None
                };
                if let Some(t) = &telemetry {
                    trace::event("epoch", |e| {
                        e.u("epoch", epoch as u64)
                            .f("mean_loss", mean_loss as f64)
                            .u("wall_us", t.wall_us)
                            .u("forward_us", t.forward_us)
                            .u("backward_us", t.backward_us)
                            .u("optimizer_us", t.optimizer_us)
                            .u("steps", t.steps)
                            .u("examples", t.examples)
                            .f("grad_norm", t.grad_norm as f64)
                            .f("param_norm", t.param_norm as f64);
                        for (name, us) in &t.stage_us {
                            e.u(&format!("{name}_us"), *us);
                        }
                        for (name, v) in &t.loss_terms {
                            e.f(name, *v as f64);
                        }
                    });
                }
                let eval = if cfg.eval_every > 0 && (epoch + 1).is_multiple_of(cfg.eval_every) {
                    let _sp = trace::span("train.eval");
                    Some(evaluate_model(model, cfg.top_k))
                } else {
                    None
                };
                st.logs.push(EpochLog {
                    epoch,
                    mean_loss,
                    eval,
                    telemetry,
                });
                done_this_call += 1;
            }
        }
        if early_stopping {
            let (va, vb) = {
                let _sp = trace::span("train.eval");
                evaluate_model_valid(model, cfg.top_k)
            };
            let score = (va.hr + vb.hr) / 2.0;
            if score > st.best_valid {
                st.best_valid = score;
                st.epochs_since_best = 0;
                let mut buf = Vec::new();
                checkpoint::save_params(&model.params(), &mut buf)?;
                st.best_snapshot = Some(buf);
            } else {
                st.epochs_since_best += 1;
                if st.epochs_since_best >= cfg.early_stop_patience {
                    stopped_early = true;
                    trace::event("early_stop", |e| {
                        e.u("epoch", epoch as u64).f("best_valid", st.best_valid);
                    });
                }
            }
        }
        st.epoch_next = epoch + 1;
        last_good = resume::encode_state(model, &opt, &st, cfg)?;
        // A per-call cap stopping this call is a boundary too: the next
        // call resumes from here, so the state must reach disk.
        let boundary =
            epoch + 1 == cfg.epochs || stopped_early || (cap != 0 && done_this_call >= cap);
        let due = epoch % every == every - 1 || boundary;
        if let (Some(path), true) = (&ft.checkpoint, due) {
            persist_checkpoint(ft, path, &last_good, epoch)?;
            trace::event("checkpoint", |e| {
                e.u("epoch", epoch as u64)
                    .u("bytes", last_good.len() as u64);
            });
        }
    }

    // The last epoch's evaluation already scored the final parameters
    // when it ran in this call, after the last completed epoch, and no
    // best snapshot is restored over them: report it. The model's
    // epoch state then still belongs to that epoch too.
    let reused = st
        .logs
        .last()
        .and_then(|l| l.eval)
        .filter(|_| done_this_call > 0 && st.best_snapshot.is_none());
    if reused.is_none() {
        // Models may carry epoch-dependent internal state (e.g. NMCDR
        // resamples its matching bridges per epoch). A resume that lands
        // at or past the final boundary skips the epoch loop, so realign
        // that state with the last epoch the original run actually
        // executed — otherwise evaluation would see construction-time
        // state.
        if let Some(last) = st.logs.last() {
            model.begin_epoch(last.epoch);
        }
        if let Some(buf) = st.best_snapshot.take() {
            checkpoint::load_params(&model.params(), &mut buf.as_slice())?;
        }
    }
    let train_secs = t_start.elapsed_secs();
    let (final_a, final_b) = reused.unwrap_or_else(|| {
        let _sp = trace::span("train.eval");
        evaluate_model(model, cfg.top_k)
    });
    let (profile, alloc) = if cfg.profile {
        // Final-eval tapes recorded ops after the last epoch drain;
        // drop them so the table covers exactly the training epochs.
        drop(nm_autograd::profile::take());
        nm_autograd::profile::set_enabled(false);
        // Freeze and capture the alloc counters (run-level traffic,
        // evals included — all of it deterministic); the caller turns
        // this into the dump's `obs.alloc.summary` record.
        let alloc = nm_tensor::alloc::stats();
        nm_tensor::alloc::set_enabled(false);
        (Some(prof_table.into_iter().collect()), Some(alloc))
    } else {
        (None, None)
    };
    Ok(TrainStats {
        logs: st.logs,
        final_a,
        final_b,
        secs_per_step: train_secs / ((st.steps - steps_before).max(1) as f64),
        param_count: model.param_count(),
        rollbacks: st.rollbacks,
        resumed_from,
        profile,
        alloc,
    })
}

/// Executes one epoch of optimization steps over the supplied batch
/// lists (the shorter domain cycles). Returns the loss sum and the
/// advanced global step counter, or the divergence point if the loss
/// went non-finite (the model/optimizer are then mid-epoch dirty and
/// the caller must roll back).
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    model: &mut dyn CdrModel,
    opt: &mut Adam,
    cfg: &TrainConfig,
    faults: &mut crate::resume::FaultPlan,
    epoch: usize,
    mut steps: u64,
    ba: &[Batch],
    bb: &[Batch],
) -> Result<EpochRun, TrainError> {
    // An empty side cannot cycle: a source with no work for this epoch
    // yields a zero-step epoch instead of a modulo-by-zero panic.
    if ba.is_empty() || bb.is_empty() {
        return Ok(EpochRun::Done {
            loss_sum: 0.0,
            steps,
            examples: 0,
        });
    }
    let n_steps = ba.len().max(bb.len());
    let mut loss_sum = 0.0f64;
    let mut examples = 0u64;
    for s in 0..n_steps {
        if faults.kill_at_step == Some(steps) {
            return Err(TrainError::Injected {
                what: "kill at step",
                epoch,
            });
        }
        let batch_a: &Batch = &ba[s % ba.len()];
        let batch_b: &Batch = &bb[s % bb.len()];
        examples += (batch_a.len() + batch_b.len()) as u64;
        let mut tape = nm_autograd::Tape::new();
        let (loss, mut lv) = {
            let _sp = trace::span("train.forward");
            let loss = model.loss(&mut tape, batch_a, batch_b, steps);
            let lv = tape.value(loss).item();
            (loss, lv)
        };
        if faults.nan_at_step == Some(steps) {
            faults.nan_at_step = None; // one-shot: the retry must pass
            lv = f32::NAN;
        }
        if !lv.is_finite() {
            return Ok(EpochRun::Diverged { step: s, loss: lv });
        }
        loss_sum += lv as f64;
        {
            let _sp = trace::span("train.backward");
            tape.backward(loss);
            nm_nn::absorb_all(&*model, &tape);
        }
        let params = model.params();
        if trace::enabled() && s + 1 == n_steps {
            // Norms at the last step of the epoch: raw (pre-clip)
            // gradient and pre-update parameters. Observation only —
            // no RNG stream or parameter is touched.
            let g = params.iter().map(|p| p.grad_norm_sq()).sum::<f32>().sqrt();
            let w = params.iter().map(|p| p.value_norm_sq()).sum::<f32>().sqrt();
            trace::value("train.grad_norm", g as f64);
            trace::value("train.param_norm", w as f64);
        }
        {
            let _sp = trace::span("train.optimizer");
            if cfg.grad_clip > 0.0 {
                clip_global_norm(&params, cfg.grad_clip);
            }
            opt.step(&params);
        }
        steps += 1;
    }
    Ok(EpochRun::Done {
        loss_sum,
        steps,
        examples,
    })
}

/// Writes the checkpoint for `epoch` to `path`, applying any injected
/// write faults (torn write, bitflip, kill-after-write).
fn persist_checkpoint(
    ft: &FtConfig,
    path: &Path,
    bytes: &[u8],
    epoch: usize,
) -> Result<(), TrainError> {
    if ft.faults.torn_write_after_epoch == Some(epoch) {
        // Simulate dying midway through the tmp-file write: a partial
        // temp file appears, the real checkpoint is never replaced.
        let tmp = path.with_extension("nmck.tmp.torn");
        std::fs::write(tmp, &bytes[..bytes.len() / 2])?;
        return Err(TrainError::Injected {
            what: "torn checkpoint write",
            epoch,
        });
    }
    checkpoint::atomic_write_bytes(path, bytes)?;
    if ft.faults.bitflip_after_epoch == Some(epoch) {
        let mut on_disk = std::fs::read(path)?;
        let mid = on_disk.len() / 2;
        on_disk[mid] ^= 0x10;
        std::fs::write(path, on_disk)?;
        return Err(TrainError::Injected {
            what: "checkpoint bitflip",
            epoch,
        });
    }
    if ft.faults.kill_after_checkpoint == Some(epoch) {
        return Err(TrainError::Injected {
            what: "kill after checkpoint",
            epoch,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{CdrTask, TaskConfig};
    use crate::CdrModel;
    use nm_autograd::{Tape, Var};
    use nm_data::{generate::generate, Scenario};
    use nm_nn::{Embedding, Module, Param};
    use nm_tensor::TensorRng;
    use std::rc::Rc;

    /// Minimal matrix-factorization model to exercise the trainer. It
    /// counts its `prepare_eval` calls: one per evaluation.
    struct TinyMf {
        task: Rc<CdrTask>,
        user_a: Embedding,
        item_a: Embedding,
        user_b: Embedding,
        item_b: Embedding,
        prepares: usize,
    }

    impl TinyMf {
        fn new(task: Rc<CdrTask>, seed: u64) -> Self {
            let mut rng = TensorRng::seed_from(seed);
            Self {
                user_a: Embedding::new("ua", task.split_a.n_users, 8, 0.1, &mut rng),
                item_a: Embedding::new("ia", task.split_a.n_items, 8, 0.1, &mut rng),
                user_b: Embedding::new("ub", task.split_b.n_users, 8, 0.1, &mut rng),
                item_b: Embedding::new("ib", task.split_b.n_items, 8, 0.1, &mut rng),
                task,
                prepares: 0,
            }
        }
    }

    impl Module for TinyMf {
        fn params(&self) -> Vec<&Param> {
            [&self.user_a, &self.item_a, &self.user_b, &self.item_b]
                .iter()
                .flat_map(|e| e.params())
                .collect()
        }
    }

    impl CdrModel for TinyMf {
        fn name(&self) -> &'static str {
            "TinyMF"
        }

        fn task(&self) -> &Rc<CdrTask> {
            &self.task
        }

        fn forward_logits(
            &self,
            tape: &mut Tape,
            domain: crate::Domain,
            users: &[u32],
            items: &[u32],
        ) -> Var {
            let (ue, ie) = match domain {
                crate::Domain::A => (&self.user_a, &self.item_a),
                crate::Domain::B => (&self.user_b, &self.item_b),
            };
            let u = ue.lookup(tape, Rc::new(users.to_vec()));
            let v = ie.lookup(tape, Rc::new(items.to_vec()));
            tape.rowwise_dot(u, v)
        }

        fn prepare_eval(&mut self) {
            self.prepares += 1;
        }

        fn eval_scores(&self, domain: crate::Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
            let (ue, ie) = match domain {
                crate::Domain::A => (&self.user_a, &self.item_a),
                crate::Domain::B => (&self.user_b, &self.item_b),
            };
            nm_serve::HeadKind::Dot.score_pairs(&ue.table_value(), &ie.table_value(), users, items)
        }
    }

    fn tiny_task() -> Rc<CdrTask> {
        let mut cfg = Scenario::MusicMovie.config(0.002);
        cfg.n_users_a = 120;
        cfg.n_users_b = 130;
        cfg.n_items_a = 60;
        cfg.n_items_b = 60;
        cfg.n_overlap = 40;
        let t = TaskConfig {
            eval_negatives: 50,
            ..Default::default()
        };
        CdrTask::build(generate(&cfg), t)
    }

    #[test]
    fn trainer_reduces_loss_and_beats_random_ranking() {
        let task = tiny_task();
        let mut model = TinyMf::new(task, 3);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 256,
            lr: 5e-2,
            ..Default::default()
        };
        let stats = train_joint(&mut model, &cfg).expect("training");
        let first = stats.logs.first().unwrap().mean_loss;
        let last = stats.logs.last().unwrap().mean_loss;
        assert!(last < first, "loss did not fall: {first} -> {last}");
        // random ranking on 51 candidates gives HR@10 ~ 19.6%
        assert!(
            stats.final_a.hr > 25.0,
            "HR@10 {} no better than random",
            stats.final_a.hr
        );
        assert!(stats.final_a.auc > 0.55);
        assert!(stats.param_count > 0);
        assert!(stats.secs_per_step > 0.0);
    }

    #[test]
    fn trainer_is_deterministic() {
        let task = tiny_task();
        let cfg = TrainConfig {
            epochs: 2,
            lr: 1e-2,
            ..Default::default()
        };
        let mut m1 = TinyMf::new(task.clone(), 5);
        let s1 = train_joint(&mut m1, &cfg).expect("training");
        let mut m2 = TinyMf::new(task, 5);
        let s2 = train_joint(&mut m2, &cfg).expect("training");
        assert_eq!(s1.final_a.hr, s2.final_a.hr);
        assert_eq!(s1.logs[1].mean_loss, s2.logs[1].mean_loss);
    }

    fn valid_task() -> Rc<CdrTask> {
        let mut cfg = Scenario::MusicMovie.config(0.002);
        cfg.n_users_a = 120;
        cfg.n_users_b = 130;
        cfg.n_items_a = 60;
        cfg.n_items_b = 60;
        cfg.n_overlap = 40;
        let tc = TaskConfig {
            eval_negatives: 50,
            validation: true,
            ..Default::default()
        };
        CdrTask::build(generate(&cfg), tc)
    }

    #[test]
    fn early_stopping_restores_best_and_truncates() {
        let task = valid_task();
        assert!(!task.valid_eval_a.is_empty());
        let mut model = TinyMf::new(task, 11);
        let stats = train_joint(
            &mut model,
            &TrainConfig {
                epochs: 30,
                lr: 5e-2,
                batch_size: 256,
                early_stop_patience: 2,
                ..Default::default()
            },
        )
        .expect("training");
        // with patience 2 over 30 epochs on a tiny set, overfitting kicks
        // in and the loop stops early
        assert!(stats.logs.len() < 30, "ran all {} epochs", stats.logs.len());
        assert!(stats.final_a.n_users > 0);
    }

    #[test]
    fn traced_run_captures_telemetry_and_matches_untraced_bits() {
        let task = tiny_task();
        let cfg = TrainConfig {
            epochs: 2,
            lr: 1e-2,
            ..Default::default()
        };
        let mut plain = TinyMf::new(task.clone(), 9);
        let s_plain = train_joint(&mut plain, &cfg).expect("untraced training");
        assert!(s_plain.logs.iter().all(|l| l.telemetry.is_none()));

        let sink = std::sync::Arc::new(trace::MemorySink::new());
        let (s_traced, lines) = trace::scoped(sink.clone(), || {
            let mut traced = TinyMf::new(task, 9);
            let s = train_joint(&mut traced, &cfg).expect("traced training");
            (s, sink.lines())
        });

        // tracing observes, never mutates: bit-identical loss stream
        for (a, b) in s_plain.logs.iter().zip(&s_traced.logs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        }
        assert_eq!(s_plain.final_a.hr.to_bits(), s_traced.final_a.hr.to_bits());

        // every epoch carries a telemetry record with real timings
        for log in &s_traced.logs {
            let t = log.telemetry.as_ref().expect("traced epoch telemetry");
            assert!(t.steps > 0);
            assert!(t.examples > 0);
            assert!(t.forward_us > 0, "forward time not captured");
            assert!(t.backward_us > 0);
            assert!(t.wall_us >= t.forward_us + t.backward_us + t.optimizer_us);
            assert!(t.param_norm > 0.0);
            assert!(t.steps_per_sec() > 0.0);
        }
        // The trace has per-epoch events and per-step spans. The sink is
        // process-wide, so tests training on other threads meanwhile
        // write into it too: count only this thread's records.
        let tid = format!("\"tid\":{},", trace::tid());
        let own = |name: &str| {
            lines
                .iter()
                .filter(|l| l.contains(&tid) && l.contains(&format!("\"name\":\"{name}\"")))
                .count()
        };
        assert_eq!(own("epoch"), 2);
        assert!(own("train.forward") > 0);
    }

    #[test]
    fn profiled_run_attributes_ops_and_matches_unprofiled_bits() {
        let task = tiny_task();
        let cfg = TrainConfig {
            epochs: 2,
            lr: 1e-2,
            ..Default::default()
        };
        let mut plain = TinyMf::new(task.clone(), 9);
        let s_plain = train_joint(&mut plain, &cfg).expect("unprofiled training");
        assert!(s_plain.profile.is_none());

        // Profiling is process-global and the aggregate table is
        // thread-local: run the profiled leg on its own thread, like
        // the nm-autograd unit tests.
        let prof_cfg = TrainConfig {
            profile: true,
            ..cfg.clone()
        };
        let s_prof = std::thread::scope(|s| {
            s.spawn(|| {
                // task data is regenerated in-thread (Rc is not Send);
                // generation is seeded, so the data is identical.
                let mut profiled = TinyMf::new(tiny_task(), 9);
                train_joint(&mut profiled, &prof_cfg).expect("profiled training")
            })
            .join()
            .expect("profiled thread")
        });

        // profiling observes, never mutates: bit-identical loss stream
        for (a, b) in s_plain.logs.iter().zip(&s_prof.logs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        }
        assert_eq!(s_plain.final_a.hr.to_bits(), s_prof.final_a.hr.to_bits());

        let table = s_prof.profile.expect("profiled run returns a table");
        let get = |k: &str| {
            table
                .iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, a)| *a)
                .unwrap_or_else(|| panic!("no aggregate for {k}"))
        };
        // TinyMF's loss graph: embedding gathers, a row-wise dot, the
        // fused BCE loss — all attributed, both passes.
        let gather = get("gather_rows");
        assert!(gather.fwd_calls > 0);
        assert!(gather.bwd_calls > 0);
        let dot = get("rowwise_dot");
        assert!(dot.fwd_flops > 0, "cost model attributed no flops");
        assert!(get("bce_with_logits").fwd_calls > 0);
        // table is sorted by kind
        assert!(table.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn eval_every_produces_interim_evals() {
        let task = tiny_task();
        let mut model = TinyMf::new(task, 7);
        let cfg = TrainConfig {
            epochs: 2,
            eval_every: 1,
            ..Default::default()
        };
        let stats = train_joint(&mut model, &cfg).expect("training");
        assert!(stats.logs.iter().all(|l| l.eval.is_some()));
    }

    fn summary_bits(s: &RankingSummary) -> [u64; 5] {
        [
            s.hr.to_bits(),
            s.ndcg.to_bits(),
            s.mrr.to_bits(),
            s.auc.to_bits(),
            s.n_users as u64,
        ]
    }

    /// Asserts that `stats` reports what evaluating the trained `model`
    /// afresh gives, as the final evaluation always did, bit for bit.
    fn assert_final_is_a_fresh_eval(model: &mut TinyMf, stats: &TrainStats, what: &str) {
        let (a, b) = evaluate_model(model, 10);
        assert_eq!(summary_bits(&stats.final_a), summary_bits(&a), "{what}: A");
        assert_eq!(summary_bits(&stats.final_b), summary_bits(&b), "{what}: B");
    }

    #[test]
    fn final_eval_reuses_the_last_epoch_eval() {
        let cfg = TrainConfig {
            epochs: 3,
            lr: 1e-2,
            eval_every: 1,
            ..Default::default()
        };
        let mut model = TinyMf::new(tiny_task(), 7);
        let stats = train_joint(&mut model, &cfg).expect("training");
        assert_eq!(model.prepares, 3, "one evaluation per epoch, none after");
        let (a, b) = stats.logs.last().and_then(|l| l.eval).expect("last eval");
        assert_eq!(summary_bits(&stats.final_a), summary_bits(&a));
        assert_eq!(summary_bits(&stats.final_b), summary_bits(&b));
        assert_final_is_a_fresh_eval(&mut model, &stats, "eval_every 1");
    }

    #[test]
    fn final_eval_runs_when_no_epoch_eval_scored_the_final_parameters() {
        // eval_every 2 over 3 epochs: the last epoch has no evaluation
        let cfg = TrainConfig {
            epochs: 3,
            lr: 1e-2,
            eval_every: 2,
            ..Default::default()
        };
        let mut model = TinyMf::new(tiny_task(), 7);
        let stats = train_joint(&mut model, &cfg).expect("training");
        assert_eq!(model.prepares, 2, "epoch 1's evaluation and the final one");
        assert!(stats.logs[2].eval.is_none());
        assert_final_is_a_fresh_eval(&mut model, &stats, "eval_every 2, 3 epochs");

        // early stopping restores its best snapshot over the last epoch's
        let cfg = TrainConfig {
            epochs: 30,
            lr: 5e-2,
            batch_size: 256,
            eval_every: 1,
            early_stop_patience: 2,
            ..Default::default()
        };
        let mut model = TinyMf::new(valid_task(), 11);
        let stats = train_joint(&mut model, &cfg).expect("training");
        let epochs = stats.logs.len();
        assert!(epochs < 30, "early stopping never fired");
        assert_eq!(
            model.prepares,
            2 * epochs + 1,
            "test + validation per epoch, then final"
        );
        assert_final_is_a_fresh_eval(&mut model, &stats, "early stopping");

        // a resume that lands at the final boundary trains no epoch
        let dir = std::env::temp_dir().join(format!("nm_train_final_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let ft = FtConfig {
            checkpoint: Some(dir.join("t.nmck")),
            resume: true,
            ..FtConfig::default()
        };
        let cfg = TrainConfig {
            epochs: 2,
            lr: 1e-2,
            eval_every: 1,
            ..Default::default()
        };
        let mut first = TinyMf::new(tiny_task(), 5);
        let done = train_joint_ft(&mut first, &cfg, &ft).expect("training");
        let mut resumed = TinyMf::new(tiny_task(), 5);
        let stats = train_joint_ft(&mut resumed, &cfg, &ft).expect("resume");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.resumed_from, Some(2));
        assert_eq!(resumed.prepares, 1, "only the final evaluation");
        assert_eq!(summary_bits(&stats.final_a), summary_bits(&done.final_a));
        assert_eq!(summary_bits(&stats.final_b), summary_bits(&done.final_b));
        assert_final_is_a_fresh_eval(&mut resumed, &stats, "resume at the end");
    }

    #[test]
    fn divergence_rollback_on_the_last_epoch_reports_the_retried_epoch() {
        for eval_every in [1, 0] {
            let cfg = TrainConfig {
                epochs: 3,
                lr: 1e-2,
                eval_every,
                ..Default::default()
            };
            let mut model = TinyMf::new(tiny_task(), 9);
            let first_step_of_last_epoch: u64 = (0..cfg.epochs - 1)
                .map(|e| {
                    let (a, b) = SplitSource.epoch_batches(&model, &cfg, e);
                    a.len().max(b.len()) as u64
                })
                .sum();
            let ft = FtConfig {
                faults: crate::resume::FaultPlan {
                    nan_at_step: Some(first_step_of_last_epoch),
                    ..Default::default()
                },
                ..FtConfig::default()
            };
            let stats = train_joint_ft(&mut model, &cfg, &ft).expect("training");
            assert_eq!(stats.rollbacks, 1);
            // the retried epoch's own evaluation scored the final
            // parameters; without one the final evaluation runs
            let want = if eval_every == 1 { cfg.epochs } else { 1 };
            assert_eq!(model.prepares, want, "eval_every {eval_every}");
            assert_final_is_a_fresh_eval(&mut model, &stats, "rollback on the last epoch");
        }
    }
}
