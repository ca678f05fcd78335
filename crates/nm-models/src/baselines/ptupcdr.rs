//! PTUPCDR (Zhu et al., 2022) — personalized transfer of user
//! preferences. A meta network consumes a user's *source-domain
//! characteristic* (here: the Laplacian-normalized mean of their
//! interacted item embeddings) and emits a **personalized bridge** that
//! maps the source user embedding into the target space.
//!
//! Simplification (DESIGN.md): the original's bridge is a full `d x d`
//! matrix generated per user; ours is a per-user *diagonal* bridge
//! (`d`-vector, applied elementwise) plus a bias — the personalization
//! mechanism is preserved (every user gets their own transfer function,
//! trained with a task-oriented objective on target-domain labels)
//! while the generated-parameter count stays linear.

use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_data::batch::Batch;
use nm_nn::{Activation, Embedding, Mlp, Module, Param};
use nm_serve::HeadKind;
use nm_tensor::{Tensor, TensorRng};
use std::cell::RefCell;
use std::rc::Rc;

/// PTUPCDR with diagonal personalized bridges.
pub struct PtupcdrModel {
    task: Rc<CdrTask>,
    user_a: Embedding,
    item_a: Embedding,
    user_b: Embedding,
    item_b: Embedding,
    /// Meta network: characteristic (d) -> bridge diag + bias (2d).
    meta_ab: Mlp,
    meta_ba: Mlp,
    /// Weight of the transfer objective.
    transfer_weight: f32,
    /// Overlapped pairs.
    ov_a: Rc<Vec<u32>>,
    ov_b: Rc<Vec<u32>>,
    cache: RefCell<Option<(Tensor, Tensor)>>,
}

impl PtupcdrModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let ov_a: Vec<u32> = task.dataset.overlap.iter().map(|&(a, _)| a).collect();
        let ov_b: Vec<u32> = task.dataset.overlap.iter().map(|&(_, b)| b).collect();
        Self {
            user_a: Embedding::new("ptup.ua", task.split_a.n_users, dim, 0.1, &mut rng),
            item_a: Embedding::new("ptup.ia", task.split_a.n_items, dim, 0.1, &mut rng),
            user_b: Embedding::new("ptup.ub", task.split_b.n_users, dim, 0.1, &mut rng),
            item_b: Embedding::new("ptup.ib", task.split_b.n_items, dim, 0.1, &mut rng),
            meta_ab: Mlp::new(
                "ptup.meta_ab",
                &[dim, dim, 2 * dim],
                Activation::Relu,
                &mut rng,
            ),
            meta_ba: Mlp::new(
                "ptup.meta_ba",
                &[dim, dim, 2 * dim],
                Activation::Relu,
                &mut rng,
            ),
            transfer_weight: 1.0,
            ov_a: Rc::new(ov_a),
            ov_b: Rc::new(ov_b),
            cache: RefCell::new(None),
            task,
        }
    }

    /// Transferred user embeddings `source -> target` for the overlapped
    /// users, in overlap order: `u_src ⊙ diag + bias` with
    /// `(diag, bias) = meta(characteristic(u_src))`.
    fn transferred(&self, tape: &mut Tape, to: Domain) -> Var {
        let dim = self.user_a.dim();
        let (src_users, src_items, src_adj, src_adj_t, meta, ov_src) = match to {
            Domain::B => (
                &self.user_a,
                &self.item_a,
                &self.task.ui_norm_a,
                &self.task.ui_norm_a_t,
                &self.meta_ab,
                &self.ov_a,
            ),
            Domain::A => (
                &self.user_b,
                &self.item_b,
                &self.task.ui_norm_b,
                &self.task.ui_norm_b_t,
                &self.meta_ba,
                &self.ov_b,
            ),
        };
        let item_table = src_items.full(tape);
        let char_full = tape.spmm(Rc::clone(src_adj), Rc::clone(src_adj_t), item_table);
        let chars = tape.gather_rows(char_full, Rc::clone(ov_src));
        let bridge = meta.forward(tape, chars); // k x 2d
        let diag = tape.slice_cols(bridge, 0, dim);
        let bias = tape.slice_cols(bridge, dim, 2 * dim);
        let u_src_full = src_users.full(tape);
        let u_src = tape.gather_rows(u_src_full, Rc::clone(ov_src));
        let scaled = tape.mul(u_src, diag);
        tape.add(scaled, bias)
    }

    fn tables(&self, domain: Domain) -> (&Embedding, &Embedding) {
        match domain {
            Domain::A => (&self.user_a, &self.item_a),
            Domain::B => (&self.user_b, &self.item_b),
        }
    }

    /// Transfer loss: transferred embeddings should score the target
    /// domain's observed interactions of the overlapped users (the
    /// task-oriented objective of the original, replacing its
    /// mapping-oriented ancestors). Uses each overlapped user's training
    /// positives paired with a shifted-negative trick: positives come
    /// from the split; the BCE target mixes them with label smoothing 0.
    fn transfer_loss(&self, tape: &mut Tape, to: Domain, batch: &Batch) -> Option<Var> {
        let ov_target: &Rc<Vec<u32>> = match to {
            Domain::A => &self.ov_a,
            Domain::B => &self.ov_b,
        };
        if ov_target.is_empty() {
            return None;
        }
        // position of each overlapped target user in overlap order
        let mut pos_of = std::collections::HashMap::new();
        for (k, &u) in ov_target.iter().enumerate() {
            pos_of.insert(u, k as u32);
        }
        // restrict batch rows to overlapped target users
        let mut rows = Vec::new();
        let mut items = Vec::new();
        let mut labels = Vec::new();
        for ((&u, &i), &l) in batch.users.iter().zip(&batch.items).zip(&batch.labels) {
            if let Some(&k) = pos_of.get(&u) {
                rows.push(k);
                items.push(i);
                labels.push(l);
            }
        }
        if rows.is_empty() {
            return None;
        }
        let trans = self.transferred(tape, to);
        let u = tape.gather_rows(trans, Rc::new(rows));
        let (_, ie) = self.tables(to);
        let v = ie.lookup(tape, Rc::new(items));
        let logits = tape.rowwise_dot(u, v);
        let targets = Rc::new(Tensor::new(labels.len(), 1, labels));
        let l = tape.bce_with_logits_mean(logits, targets);
        Some(tape.scale(l, self.transfer_weight))
    }

    /// Evaluation user table for a domain: own embeddings, with
    /// overlapped users averaged with their transferred counterpart.
    fn eval_table(&self, tape: &mut Tape, domain: Domain) -> Var {
        let (ue, _) = self.tables(domain);
        let own = ue.full(tape);
        let ov: &Rc<Vec<u32>> = match domain {
            Domain::A => &self.ov_a,
            Domain::B => &self.ov_b,
        };
        if ov.is_empty() {
            return own;
        }
        let trans = self.transferred(tape, domain);
        let own_ov = tape.gather_rows(own, Rc::clone(ov));
        let avg = tape.add(own_ov, trans);
        let avg = tape.scale(avg, 0.5);
        // replace overlapped rows via mask + one-hot scatter
        let n = tape.value(own).rows();
        let mut mask = Tensor::zeros(n, 1);
        for &r in ov.iter() {
            mask.set(r as usize, 0, 1.0);
        }
        let keep = tape.constant(mask.map(|x| 1.0 - x));
        let kept = tape.mul(own, keep);
        let edges: Vec<(u32, u32, f32)> = ov
            .iter()
            .enumerate()
            .map(|(j, &r)| (r, j as u32, 1.0))
            .collect();
        let scat = Rc::new(nm_graph::Csr::from_edges(n, ov.len(), &edges));
        let scat_t = Rc::new(scat.transpose());
        let placed = tape.spmm(scat, scat_t, avg);
        tape.add(kept, placed)
    }
}

impl Module for PtupcdrModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for m in [
            self.user_a.params(),
            self.item_a.params(),
            self.user_b.params(),
            self.item_b.params(),
            self.meta_ab.params(),
            self.meta_ba.params(),
        ] {
            p.extend(m);
        }
        p
    }
}

impl CdrModel for PtupcdrModel {
    fn name(&self) -> &'static str {
        "PTUPCDR"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn loss(&self, tape: &mut Tape, batch_a: &Batch, batch_b: &Batch, _step: u64) -> Var {
        let la = self.bce_for(tape, Domain::A, batch_a);
        let lb = self.bce_for(tape, Domain::B, batch_b);
        let mut total = tape.add(la, lb);
        if let Some(t) = self.transfer_loss(tape, Domain::A, batch_a) {
            total = tape.add(total, t);
        }
        if let Some(t) = self.transfer_loss(tape, Domain::B, batch_b) {
            total = tape.add(total, t);
        }
        total
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let (ue, ie) = self.tables(domain);
        let u = ue.lookup(tape, Rc::new(users.to_vec()));
        let v = ie.lookup(tape, Rc::new(items.to_vec()));
        tape.rowwise_dot(u, v)
    }

    fn prepare_eval(&mut self) {
        let mut tape = Tape::new();
        let ta = self.eval_table(&mut tape, Domain::A);
        let tb = self.eval_table(&mut tape, Domain::B);
        *self.cache.borrow_mut() = Some((tape.value(ta).clone(), tape.value(tb).clone()));
    }

    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        let cache = self.cache.borrow();
        let (ta, tb) = cache.as_ref().expect("prepare_eval not called");
        let (ue, ie) = match domain {
            Domain::A => (ta, &self.item_a),
            Domain::B => (tb, &self.item_b),
        };
        HeadKind::Dot.score_pairs(ue, &ie.table_value(), users, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use crate::train::{train_joint, TrainConfig};
    use nm_data::{generate::generate, Scenario};

    fn task(ratio: f64) -> Rc<CdrTask> {
        let mut cfg = Scenario::MusicMovie.config(0.002);
        cfg.n_users_a = 90;
        cfg.n_users_b = 85;
        cfg.n_items_a = 45;
        cfg.n_items_b = 45;
        cfg.n_overlap = 40;
        let data = generate(&cfg).with_overlap_ratio(ratio, 3);
        let t = TaskConfig {
            eval_negatives: 40,
            ..Default::default()
        };
        CdrTask::build(data, t)
    }

    #[test]
    fn transferred_shape_matches_overlap_count() {
        let t = task(0.5);
        let m = PtupcdrModel::new(t.clone(), 8, 1);
        let mut tape = Tape::new();
        let tr = m.transferred(&mut tape, Domain::B);
        assert_eq!(tape.value(tr).shape(), (t.dataset.overlap.len(), 8));
    }

    #[test]
    fn meta_network_receives_gradient() {
        let m = PtupcdrModel::new(task(1.0), 8, 2);
        let batch = Batch {
            users: m.ov_b.iter().take(4).copied().collect(),
            items: vec![0, 1, 2, 3],
            labels: vec![1.0, 0.0, 1.0, 0.0],
        };
        let mut tape = Tape::new();
        let l = m.loss(&mut tape, &batch, &batch, 0);
        tape.backward(l);
        nm_nn::absorb_all(&m, &tape);
        let meta_grad: f32 = m.meta_ba.params().iter().map(|p| p.grad_norm_sq()).sum();
        assert!(meta_grad > 0.0, "meta net got no gradient");
    }

    #[test]
    fn zero_overlap_degrades_gracefully() {
        let mut m = PtupcdrModel::new(task(0.0), 8, 3);
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 2,
                lr: 1e-2,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.logs.iter().all(|l| l.mean_loss.is_finite()));
    }

    #[test]
    fn trains_above_chance() {
        let mut m = PtupcdrModel::new(task(0.9), 8, 4);
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 6,
                lr: 2e-2,
                batch_size: 256,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.final_a.auc > 0.52, "AUC {}", stats.final_a.auc);
    }
}
