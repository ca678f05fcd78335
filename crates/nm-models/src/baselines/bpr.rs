//! BPR (Rendle et al., 2012) — per-domain matrix factorization trained
//! with the Bayesian personalized ranking pairwise loss
//! `-ln σ(score(u, i⁺) - score(u, i⁻))`, here written as
//! `softplus(s⁻ - s⁺)`.

use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_data::batch::Batch;
use nm_nn::{Embedding, Module, Param};
use nm_serve::{DomainSnapshot, FrozenModel, HeadKind, Snapshot};
use nm_tensor::rng::{Rng, SeedableRng, StdRng};
use nm_tensor::TensorRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-domain MF + BPR pairwise loss.
pub struct BprModel {
    task: Rc<CdrTask>,
    user_a: Embedding,
    item_a: Embedding,
    user_b: Embedding,
    item_b: Embedding,
    /// The embedding tables `eval_scores` scores through, which is
    /// also the snapshot `export_frozen` publishes.
    frozen: RefCell<Option<Snapshot>>,
}

impl BprModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        Self {
            user_a: Embedding::new("bpr.ua", task.split_a.n_users, dim, 0.1, &mut rng),
            item_a: Embedding::new("bpr.ia", task.split_a.n_items, dim, 0.1, &mut rng),
            user_b: Embedding::new("bpr.ub", task.split_b.n_users, dim, 0.1, &mut rng),
            item_b: Embedding::new("bpr.ib", task.split_b.n_items, dim, 0.1, &mut rng),
            frozen: RefCell::new(None),
            task,
        }
    }

    fn tables(&self, domain: Domain) -> (&Embedding, &Embedding) {
        match domain {
            Domain::A => (&self.user_a, &self.item_a),
            Domain::B => (&self.user_b, &self.item_b),
        }
    }

    /// Dot-head snapshot over the raw embedding tables.
    fn freeze(&self) -> Snapshot {
        let mk = |d: Domain| {
            let (ue, ie) = self.tables(d);
            DomainSnapshot {
                users: ue.table_value(),
                items: ie.table_value(),
                head: HeadKind::Dot,
            }
        };
        Snapshot {
            model: "BPR".into(),
            domains: [mk(Domain::A), mk(Domain::B)],
        }
    }

    /// BPR loss over a batch: positives in the batch are paired with a
    /// fresh uniformly-sampled negative item each.
    fn bpr_loss(&self, tape: &mut Tape, domain: Domain, batch: &Batch, step: u64) -> Var {
        let n_items = self.task.n_items(domain);
        let mut rng = StdRng::seed_from_u64(step ^ (domain.index() as u64) << 60);
        // keep only the positive pairs of the batch
        let mut users = Vec::new();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for ((&u, &i), &l) in batch.users.iter().zip(&batch.items).zip(&batch.labels) {
            if l > 0.5 {
                users.push(u);
                pos.push(i);
                neg.push(rng.gen_range(0..n_items) as u32);
            }
        }
        if users.is_empty() {
            // degenerate batch of only negatives — contribute nothing
            return tape.constant(nm_tensor::Tensor::scalar(0.0));
        }
        let (ue, ie) = self.tables(domain);
        let u = ue.lookup(tape, Rc::new(users));
        let ip = ie.lookup(tape, Rc::new(pos));
        let ineg = ie.lookup(tape, Rc::new(neg));
        let sp = tape.rowwise_dot(u, ip);
        let sn = tape.rowwise_dot(u, ineg);
        let diff = tape.sub(sn, sp);
        let sp_loss = tape.softplus(diff);
        tape.mean_all(sp_loss)
    }
}

impl Module for BprModel {
    fn params(&self) -> Vec<&Param> {
        [&self.user_a, &self.item_a, &self.user_b, &self.item_b]
            .iter()
            .flat_map(|e| e.params())
            .collect()
    }
}

impl CdrModel for BprModel {
    fn name(&self) -> &'static str {
        "BPR"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn loss(&self, tape: &mut Tape, batch_a: &Batch, batch_b: &Batch, step: u64) -> Var {
        let la = self.bpr_loss(tape, Domain::A, batch_a, step.wrapping_mul(2));
        let lb = self.bpr_loss(tape, Domain::B, batch_b, step.wrapping_mul(2) + 1);
        tape.add(la, lb)
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let (ue, ie) = self.tables(domain);
        let u = ue.lookup(tape, Rc::new(users.to_vec()));
        let v = ie.lookup(tape, Rc::new(items.to_vec()));
        tape.rowwise_dot(u, v)
    }

    fn prepare_eval(&mut self) {
        *self.frozen.get_mut() = Some(self.freeze());
    }

    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        let mut frozen = self.frozen.borrow_mut();
        let snap = frozen.get_or_insert_with(|| self.freeze());
        snap.score_pairs(domain.index(), users, items)
    }
}

impl FrozenModel for BprModel {
    /// Freezes afresh and publishes the snapshot `eval_scores` then
    /// scores through, so serving is bit-for-bit identical.
    fn export_frozen(&mut self) -> Snapshot {
        let snap = self.freeze();
        *self.frozen.get_mut() = Some(snap.clone());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use crate::train::{train_joint, TrainConfig};
    use nm_data::{generate::generate, Scenario};

    fn task() -> Rc<CdrTask> {
        let mut cfg = Scenario::ClothSport.config(0.002);
        cfg.n_users_a = 110;
        cfg.n_users_b = 100;
        cfg.n_items_a = 60;
        cfg.n_items_b = 50;
        cfg.n_overlap = 30;
        let t = TaskConfig {
            eval_negatives: 50,
            ..Default::default()
        };
        CdrTask::build(generate(&cfg), t)
    }

    #[test]
    fn bpr_loss_is_positive_scalar() {
        let m = BprModel::new(task(), 8, 1);
        let batch = Batch {
            users: vec![0, 1, 2, 3],
            items: vec![0, 1, 2, 3],
            labels: vec![1.0, 0.0, 1.0, 1.0],
        };
        let mut tape = Tape::new();
        let l = m.loss(&mut tape, &batch, &batch, 0);
        let v = tape.value(l).item();
        assert!(v > 0.0 && v.is_finite());
    }

    #[test]
    fn all_negative_batch_contributes_zero() {
        let m = BprModel::new(task(), 8, 2);
        let batch = Batch {
            users: vec![0, 1],
            items: vec![0, 1],
            labels: vec![0.0, 0.0],
        };
        let mut tape = Tape::new();
        let l = m.bpr_loss(&mut tape, Domain::A, &batch, 0);
        assert_eq!(tape.value(l).item(), 0.0);
    }

    #[test]
    fn training_improves_pairwise_ranking() {
        let mut m = BprModel::new(task(), 8, 3);
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 10,
                lr: 3e-2,
                batch_size: 256,
                ..Default::default()
            },
        )
        .expect("training");
        // BPR is the weakest baseline in the paper too; above-chance is
        // the meaningful bar at this scale.
        assert!(stats.final_a.auc > 0.52, "AUC {}", stats.final_a.auc);
    }

    #[test]
    fn eval_matches_training_forward_after_training() {
        let mut m = BprModel::new(task(), 8, 4);
        let users = [0u32, 5, 9];
        let items = [1u32, 2, 3];
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let forward = |m: &BprModel| {
            let mut tape = Tape::new();
            let l = m.forward_logits(&mut tape, Domain::B, &users, &items);
            bits(tape.value(l).data())
        };
        assert_eq!(forward(&m), bits(&m.eval_scores(Domain::B, &users, &items)));
        // training moves the tables; its evaluations refreeze them
        let cfg = TrainConfig {
            epochs: 1,
            ..Default::default()
        };
        train_joint(&mut m, &cfg).expect("training");
        assert_eq!(forward(&m), bits(&m.eval_scores(Domain::B, &users, &items)));
    }
}
