//! The model abstraction every recommender in the workspace implements.

use crate::task::CdrTask;
use nm_autograd::{Tape, Var};
use nm_data::batch::Batch;
use nm_nn::Module;
use std::rc::Rc;

/// Which of the two domains a batch/evaluation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    A,
    B,
}

impl Domain {
    pub const BOTH: [Domain; 2] = [Domain::A, Domain::B];

    /// The other domain (`Z̄` for `Z`).
    pub fn other(self) -> Domain {
        match self {
            Domain::A => Domain::B,
            Domain::B => Domain::A,
        }
    }

    pub fn index(self) -> usize {
        match self {
            Domain::A => 0,
            Domain::B => 1,
        }
    }
}

/// A trainable multi-target CDR recommender.
///
/// The shared trainer ([`crate::train::train_joint`]) drives models
/// exclusively through this trait:
///
/// 1. per step, [`CdrModel::loss`] builds the joint training loss for
///    one batch per domain on a fresh tape;
/// 2. before each evaluation, [`CdrModel::prepare_eval`] lets the model
///    cache expensive state (graph-propagated embeddings);
/// 3. [`CdrModel::eval_scores`] ranks candidates from that cache.
pub trait CdrModel: Module {
    /// Display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// The task this model was built against.
    fn task(&self) -> &Rc<CdrTask>;

    /// Joint training loss for one batch from each domain. The default
    /// is the sum of per-domain mean BCE on the model's logits — what
    /// most baselines use; models with extra objectives (BPR, DML,
    /// PTUPCDR, NMCDR's companions) override this.
    fn loss(&self, tape: &mut Tape, batch_a: &Batch, batch_b: &Batch, step: u64) -> Var {
        let _ = step;
        let la = self.bce_for(tape, Domain::A, batch_a);
        let lb = self.bce_for(tape, Domain::B, batch_b);
        tape.add(la, lb)
    }

    /// Logits for `(user, item)` pairs of `domain` on the tape.
    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var;

    /// Mean BCE of this model's logits on a batch (helper for `loss`
    /// implementations).
    fn bce_for(&self, tape: &mut Tape, domain: Domain, batch: &Batch) -> Var {
        let logits = self.forward_logits(tape, domain, &batch.users, &batch.items);
        tape.bce_with_logits_mean(logits, crate::common::label_tensor(&batch.labels))
    }

    /// Hook called once per epoch before batching (graph resampling,
    /// schedule updates). Default: nothing.
    fn begin_epoch(&mut self, epoch: usize) {
        let _ = epoch;
    }

    /// Hook called before a round of evaluation; cache whatever
    /// `eval_scores` needs. Default: nothing.
    fn prepare_eval(&mut self) {}

    /// Scores `(user, item)` pairs for ranking evaluation. Called after
    /// [`CdrModel::prepare_eval`]; must not mutate training state. The
    /// default runs [`CdrModel::forward_logits`] on a throwaway tape;
    /// models that freeze a snapshot override it.
    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        let mut tape = Tape::new();
        let l = self.forward_logits(&mut tape, domain, users, items);
        tape.value(l).data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_other_flips() {
        assert_eq!(Domain::A.other(), Domain::B);
        assert_eq!(Domain::B.other(), Domain::A);
        assert_eq!(Domain::A.index(), 0);
        assert_eq!(Domain::B.index(), 1);
    }
}
