//! [`Timed`]: a transparent model wrapper that timestamps the hooks the
//! trainer and the streaming loop call, so epoch, step, eval, round and
//! publish times are observed from outside `train_joint_ft_with` and
//! `run_stream` without changing either. The wrapper also times the
//! reference work ([`crate::speed`]) at every op boundary.

use crate::speed::{self, Speed};
use nm_autograd::{Tape, Var};
use nm_data::batch::Batch;
use nm_models::{CdrModel, CdrTask, Domain};
use nm_nn::{Module, Param};
use nm_obs::{clock, trace};
use nm_serve::{FrozenModel, Snapshot};
use std::cell::RefCell;
use std::rc::Rc;

/// Which model hook a [`Mark`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    BeginEpoch,
    Loss,
    PrepareEval,
    EvalScores,
    Export,
    /// The driving call (`train_joint`, `run_stream`) returned.
    End,
    /// The reference work ran; `arg` is its duration.
    Probe,
}

/// One timed hook call on the process clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    pub hook: Hook,
    /// The epoch for `BeginEpoch`, training examples for `Loss`, scored
    /// pairs for `EvalScores`; 0 otherwise.
    pub arg: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Mark {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Delegates every [`Module`], [`CdrModel`] and [`FrozenModel`] method
/// to `inner`, recording a [`Mark`] around `begin_epoch`, `loss`,
/// `prepare_eval`, `eval_scores` and `export_frozen`. While a tracer is
/// installed it also opens a `perf.*` span around each of them except
/// the per-user `eval_scores` calls.
///
/// Whenever `begin_epoch` starts a new epoch, and at
/// [`Timed::mark_end`], the wrapper also times the reference work, so
/// each op can be scaled to reference speed. Probe time is never part of
/// an op.
pub struct Timed<M> {
    inner: M,
    marks: RefCell<Vec<Mark>>,
    probed_epoch: Option<usize>,
}

impl<M> Timed<M> {
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            marks: RefCell::new(Vec::new()),
            probed_epoch: None,
        }
    }

    /// Records that the call driving the model has returned.
    pub fn mark_end(&self) {
        self.push(Hook::End, 0, clock::now_ns());
        self.probe();
    }

    fn probe(&self) {
        let start = clock::now_ns();
        let ns = crate::speed::probe();
        self.push(Hook::Probe, ns, start);
    }

    /// The marks recorded so far, in call order.
    pub fn marks(&self) -> Vec<Mark> {
        self.marks.borrow().clone()
    }

    fn push(&self, hook: Hook, arg: u64, start_ns: u64) {
        self.marks.borrow_mut().push(Mark {
            hook,
            arg,
            start_ns,
            end_ns: clock::now_ns(),
        });
    }
}

impl<M: Module> Module for Timed<M> {
    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

impl<M: CdrModel> CdrModel for Timed<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn task(&self) -> &Rc<CdrTask> {
        self.inner.task()
    }

    fn loss(&self, tape: &mut Tape, batch_a: &Batch, batch_b: &Batch, step: u64) -> Var {
        let _span = trace::span("perf.loss");
        let start = clock::now_ns();
        let loss = self.inner.loss(tape, batch_a, batch_b, step);
        self.push(Hook::Loss, (batch_a.len() + batch_b.len()) as u64, start);
        loss
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        self.inner.forward_logits(tape, domain, users, items)
    }

    fn bce_for(&self, tape: &mut Tape, domain: Domain, batch: &Batch) -> Var {
        self.inner.bce_for(tape, domain, batch)
    }

    fn begin_epoch(&mut self, epoch: usize) {
        if self.probed_epoch != Some(epoch) {
            self.probed_epoch = Some(epoch);
            self.probe();
        }
        let _span = trace::span("perf.begin_epoch");
        let start = clock::now_ns();
        self.inner.begin_epoch(epoch);
        self.push(Hook::BeginEpoch, epoch as u64, start);
    }

    fn prepare_eval(&mut self) {
        let _span = trace::span("perf.prepare_eval");
        let start = clock::now_ns();
        self.inner.prepare_eval();
        self.push(Hook::PrepareEval, 0, start);
    }

    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        let start = clock::now_ns();
        let scores = self.inner.eval_scores(domain, users, items);
        self.push(Hook::EvalScores, users.len() as u64, start);
        scores
    }
}

impl<M: FrozenModel> FrozenModel for Timed<M> {
    fn export_frozen(&mut self) -> Snapshot {
        let _span = trace::span("perf.export_frozen");
        let start = clock::now_ns();
        let snap = self.inner.export_frozen();
        self.push(Hook::Export, 0, start);
        snap
    }
}

/// One measured op — a training epoch or a stream round — as a mark
/// index range `first..last` and its wall-clock bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    pub first: usize,
    pub last: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Probe time inside the op, excluded from its duration.
    pub probe_ns: u64,
    /// Probe timings just before and just after the op.
    pub probes: [u64; 2],
}

impl OpSpan {
    /// Wall time of the op, probes excluded.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns
            .saturating_sub(self.start_ns)
            .saturating_sub(self.probe_ns)
    }

    /// [`OpSpan::dur_ns`] at reference speed.
    pub fn ref_ns(&self) -> f64 {
        speed::at_reference(self.dur_ns(), self.probes)
    }
}

/// Splits a mark log into ops. An op starts at a `BeginEpoch` that is
/// followed by training steps before the next `BeginEpoch` — the
/// trainer's end-of-run realignment and the streaming loop's publish
/// and rollback calls are not — and ends where the next op starts (or
/// its leading probe does), at the `End` mark, or, with `end_at_eval`,
/// at the first `PrepareEval` after its steps. An op with no end, or
/// without a probe on either side, is dropped.
pub fn ops(marks: &[Mark], end_at_eval: bool) -> Vec<OpSpan> {
    let starts: Vec<usize> = (0..marks.len())
        .filter(|&i| marks[i].hook == Hook::BeginEpoch && trains_before_next_epoch(&marks[i + 1..]))
        .collect();
    let is_probe = |i: usize| marks[i].hook == Hook::Probe;
    let mut out = Vec::with_capacity(starts.len());
    for (n, &first) in starts.iter().enumerate() {
        let next = starts.get(n + 1).copied().unwrap_or(marks.len());
        let stop = (first + 1..next).find(|&j| {
            marks[j].hook == Hook::End || (end_at_eval && marks[j].hook == Hook::PrepareEval)
        });
        let last = match stop {
            Some(j) => j,
            None if next < marks.len() && is_probe(next - 1) => next - 1,
            None if next < marks.len() => next,
            None => continue,
        };
        let probe_ns = (first..last)
            .filter(|&i| is_probe(i))
            .map(|i| marks[i].dur_ns())
            .sum();
        let before = first.checked_sub(1).filter(|&i| is_probe(i));
        let after = (last..marks.len()).find(|&i| is_probe(i));
        let (Some(before), Some(after)) = (before, after) else {
            continue;
        };
        out.push(OpSpan {
            first,
            last,
            start_ns: marks[first].start_ns,
            end_ns: marks[last].start_ns,
            probe_ns,
            probes: [marks[before].arg, marks[after].arg],
        });
    }
    out
}

fn trains_before_next_epoch(rest: &[Mark]) -> bool {
    rest.iter()
        .take_while(|m| m.hook != Hook::BeginEpoch && m.hook != Hook::End)
        .any(|m| m.hook == Hook::Loss)
}

/// Where one stream round's wall time went. `commit` is the explicit
/// remainder: event generation, logs, fsyncs, the engine swap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundParts {
    pub total_ns: u64,
    /// Round start to its first evaluation.
    pub train_ns: u64,
    /// Each evaluation from `prepare_eval` to its last `eval_scores`.
    pub eval_ns: u64,
    pub publish_ns: u64,
    pub evals: u64,
    pub exports: u64,
}

impl RoundParts {
    pub fn commit_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.train_ns + self.eval_ns + self.publish_ns)
    }
}

/// Where the first op's leading probe begins, and that probe's timing:
/// the end of set-up.
pub fn setup_end(marks: &[Mark]) -> Option<(u64, u64)> {
    let first = ops(marks, false).first()?.first;
    let probe = marks[first - 1];
    Some((probe.start_ns, probe.arg))
}

/// Every probe timing in a mark log.
pub fn probes(marks: &[Mark]) -> impl Iterator<Item = u64> + '_ {
    marks
        .iter()
        .filter(|m| m.hook == Hook::Probe)
        .map(|m| m.arg)
}

/// A session's start time and the probe timing just before.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Started {
    pub ns: u64,
    pub probe: u64,
}

impl Started {
    pub fn now() -> Self {
        let probe = speed::probe();
        Self {
            ns: clock::now_ns(),
            probe,
        }
    }

    /// Set-up time at reference speed: from the start to the first op
    /// of `marks`.
    pub fn setup_ns(&self, marks: &[Mark]) -> Option<f64> {
        let (end, probe) = setup_end(marks)?;
        Some(speed::at_reference(
            end.saturating_sub(self.ns),
            [self.probe, probe],
        ))
    }
}

/// The machine speed over sessions, from every probe they took.
pub(crate) fn session_speed<'a>(
    sessions: impl Iterator<Item = (Started, &'a [Mark])>,
) -> Result<Speed, String> {
    let all: Vec<u64> = sessions
        .flat_map(|(start, marks)| std::iter::once(start.probe).chain(probes(marks)))
        .collect();
    Speed::of(&all).ok_or_else(|| "no probes were taken".into())
}

/// Attributes one op's wall time to training, evaluation and publishing.
pub fn round_parts(marks: &[Mark], op: &OpSpan) -> RoundParts {
    let body = &marks[op.first..op.last];
    let train_end = body
        .iter()
        .find(|m| m.hook == Hook::PrepareEval)
        .map_or(op.end_ns, |m| m.start_ns);
    let mut parts = RoundParts {
        total_ns: op.dur_ns(),
        train_ns: train_end.saturating_sub(op.start_ns),
        ..RoundParts::default()
    };
    let mut i = 0;
    while i < body.len() {
        match body[i].hook {
            Hook::PrepareEval => {
                let start = body[i].start_ns;
                let mut end = body[i].end_ns;
                while i + 1 < body.len() && body[i + 1].hook == Hook::EvalScores {
                    i += 1;
                    end = body[i].end_ns;
                }
                parts.eval_ns += end.saturating_sub(start);
                parts.evals += 1;
            }
            Hook::Export => {
                parts.publish_ns += body[i].dur_ns();
                parts.exports += 1;
            }
            _ => {}
        }
        i += 1;
    }
    parts
}

/// A note putting the uncorrected op p50 of the given mark logs next to
/// the machine's speed.
pub fn speed_note<'a>(
    logs: impl Iterator<Item = &'a [Mark]>,
    end_at_eval: bool,
    speed: &Speed,
) -> String {
    let raw: Vec<f64> = logs
        .flat_map(|marks| ops(marks, end_at_eval))
        .map(|op| op.dur_ns() as f64 / 1e6)
        .collect();
    format!(
        "uncorrected op p50 {:.1} ms; {}",
        crate::stats::median(&raw).unwrap_or(0.0),
        speed.note()
    )
}

/// Calls, total duration and summed `arg` of every mark of `hook`.
pub fn totals(marks: &[Mark], hook: Hook) -> (u64, u64, u64) {
    marks
        .iter()
        .filter(|m| m.hook == hook)
        .fold((0, 0, 0), |(n, ns, arg), m| {
            (n + 1, ns + m.dur_ns(), arg + m.arg)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_models::{train_joint, TaskConfig, TrainConfig};

    fn mark(hook: Hook, arg: u64, start_ns: u64, end_ns: u64) -> Mark {
        Mark {
            hook,
            arg,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn ops_skip_realignment_and_stop_at_eval_or_end() {
        use Hook::*;
        let marks = vec![
            mark(Probe, 1_000_000, 0, 0),
            mark(BeginEpoch, 0, 0, 1),
            mark(Loss, 8, 1, 5),
            mark(Loss, 8, 5, 9),
            mark(Probe, 1_000_000, 10, 10),
            mark(BeginEpoch, 1, 10, 11),
            mark(Loss, 8, 11, 15),
            // end-of-run realignment: no steps follow it
            mark(BeginEpoch, 1, 20, 21),
            mark(PrepareEval, 0, 22, 30),
            mark(EvalScores, 3, 30, 33),
            mark(EvalScores, 3, 33, 36),
            mark(End, 0, 40, 40),
            mark(Probe, 1_000_000, 40, 40),
        ];
        let train = ops(&marks, true);
        assert_eq!(train.len(), 2);
        assert_eq!((train[0].start_ns, train[0].end_ns), (0, 10));
        assert_eq!((train[1].start_ns, train[1].end_ns), (10, 22));
        let rounds = ops(&marks, false);
        assert_eq!((rounds[1].start_ns, rounds[1].end_ns), (10, 40));
        let parts = round_parts(&marks, &rounds[1]);
        assert_eq!(parts.total_ns, 30);
        assert_eq!(parts.train_ns, 12);
        assert_eq!(parts.eval_ns, 36 - 22);
        assert_eq!((parts.evals, parts.exports), (1, 0));
        assert_eq!(parts.commit_ns(), 30 - 12 - 14);
        assert_eq!(totals(&marks, Loss), (3, 12, 24));
        assert_eq!(totals(&marks, EvalScores), (2, 6, 6));
    }

    #[test]
    fn probes_bound_ops_and_never_count_as_op_time() {
        use Hook::*;
        let marks = vec![
            mark(Probe, 2_000_000, 0, 2),
            mark(BeginEpoch, 0, 2, 3),
            mark(Loss, 8, 3, 10),
            // a probe inside the op (a rollback to an earlier epoch)
            mark(Probe, 2_000_000, 10, 14),
            mark(Loss, 8, 14, 20),
            mark(Probe, 1_000_000, 20, 22),
            mark(BeginEpoch, 1, 22, 23),
            mark(Loss, 8, 23, 30),
            mark(End, 0, 30, 30),
            mark(Probe, 1_000_000, 30, 31),
        ];
        let v = ops(&marks, false);
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].start_ns, v[0].end_ns, v[0].dur_ns()), (2, 20, 14));
        assert_eq!(v[0].probes, [2_000_000, 1_000_000]);
        assert_eq!(v[0].ref_ns(), 14.0 * speed::REFERENCE_NS / 1.5e6);
        assert_eq!((v[1].start_ns, v[1].end_ns, v[1].dur_ns()), (22, 30, 8));
        assert_eq!(v[1].probes, [1_000_000, 1_000_000]);
        assert_eq!(v[1].ref_ns(), 8.0 * speed::REFERENCE_NS / 1e6);
        assert_eq!(setup_end(&marks), Some((0, 2_000_000)));
    }

    #[test]
    fn an_op_without_an_end_or_probes_is_dropped() {
        use Hook::*;
        let open = vec![
            mark(Probe, 1, 0, 0),
            mark(BeginEpoch, 0, 0, 1),
            mark(Loss, 8, 1, 5),
        ];
        assert!(ops(&open, false).is_empty());
        let unprobed = vec![
            mark(BeginEpoch, 0, 0, 1),
            mark(Loss, 8, 1, 5),
            mark(End, 0, 5, 5),
        ];
        assert!(ops(&unprobed, false).is_empty());
        assert_eq!(setup_end(&unprobed), None);
    }

    fn tiny_task() -> Rc<CdrTask> {
        let mut cfg = nm_data::Scenario::ClothSport.config(0.002);
        cfg.n_users_a = 90;
        cfg.n_users_b = 110;
        cfg.n_items_a = 50;
        cfg.n_items_b = 60;
        cfg.n_overlap = 30;
        let tc = TaskConfig {
            eval_negatives: 20,
            ..TaskConfig::default()
        };
        CdrTask::build(nm_data::generate::generate(&cfg), tc)
    }

    #[test]
    fn timed_training_is_bit_identical_to_the_bare_model() {
        let model_cfg = nmcdr_core::NmcdrConfig {
            dim: 8,
            match_neighbors: 8,
            ..Default::default()
        };
        let tc = TrainConfig {
            epochs: 3,
            batch_size: 128,
            lr: 1e-2,
            ..Default::default()
        };
        let mut bare = nmcdr_core::NmcdrModel::new(tiny_task(), model_cfg.clone());
        let plain = train_joint(&mut bare, &tc).expect("bare training");
        let mut timed = Timed::new(nmcdr_core::NmcdrModel::new(tiny_task(), model_cfg));
        let wrapped = train_joint(&mut timed, &tc).expect("timed training");
        timed.mark_end();

        assert_eq!(plain.logs.len(), wrapped.logs.len());
        for (a, b) in plain.logs.iter().zip(&wrapped.logs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        }
        assert_eq!(plain.final_a.hr.to_bits(), wrapped.final_a.hr.to_bits());
        assert_eq!(plain.final_b.auc.to_bits(), wrapped.final_b.auc.to_bits());
        assert_eq!(plain.param_count, wrapped.param_count);
        assert_eq!(bare.export_frozen(), timed.export_frozen());

        let marks = timed.marks();
        let epochs = ops(&marks, true);
        assert_eq!(epochs.len(), 3, "one probed op per epoch");
        // one probe per epoch and one after the run
        assert_eq!(totals(&marks, Hook::Probe).0, 4);
        let (steps, _, examples) = totals(&marks, Hook::Loss);
        assert!(steps >= 3 && examples > 0);
        assert!(totals(&marks, Hook::EvalScores).0 > 0);
    }
}
