//! GA-DTCDR (Zhu et al., 2020) — graphical & attentional dual-target
//! CDR: a per-domain GNN encoder over the user–item graph plus an
//! element-wise attention that fuses the two domain embeddings of each
//! *overlapped* user; non-overlapped users keep their single-domain
//! embedding. Prediction via a per-domain MLP on `[u ‖ v]`.
//!
//! Simplification: the original builds its graphs from rating values
//! and reviews; ours are the interaction graphs (the only signal in the
//! substrate). The fusion is the original's element-wise attention
//! (a learned per-dimension gate over the two domain views).

use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_nn::{Activation, Embedding, Linear, Mlp, Module, Param};
use nm_serve::{HeadKind, MlpHead};
use nm_tensor::{Tensor, TensorRng};
use std::cell::RefCell;
use std::rc::Rc;

struct EvalCache {
    user_a: Tensor,
    user_b: Tensor,
    item_a: Tensor,
    item_b: Tensor,
}

/// GA-DTCDR with GNN encoders + element-wise attention fusion.
pub struct GaDtcdrModel {
    task: Rc<CdrTask>,
    user_a: Embedding,
    item_a: Embedding,
    user_b: Embedding,
    item_b: Embedding,
    enc_a: Linear,
    enc_b: Linear,
    /// Per-dimension attention logits for overlapped-user fusion.
    att_a: Param,
    att_b: Param,
    head_a: Mlp,
    head_b: Mlp,
    /// Alignment gather maps + masks (sentinel row 0, masked out).
    map_a: Rc<Vec<u32>>,
    map_b: Rc<Vec<u32>>,
    mask_a: Tensor,
    mask_b: Tensor,
    cache: RefCell<Option<EvalCache>>,
}

impl GaDtcdrModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let build_map = |n: usize, overlap: &[Option<u32>]| {
            let mut map = Vec::with_capacity(n);
            let mut mask = Tensor::zeros(n, 1);
            for (u, o) in overlap.iter().enumerate().take(n) {
                match *o {
                    Some(x) => {
                        map.push(x);
                        mask.set(u, 0, 1.0);
                    }
                    None => map.push(0),
                }
            }
            (Rc::new(map), mask)
        };
        let (map_a, mask_a) = build_map(task.split_a.n_users, &task.overlap_a_to_b);
        let (map_b, mask_b) = build_map(task.split_b.n_users, &task.overlap_b_to_a);
        Self {
            user_a: Embedding::new("gad.ua", task.split_a.n_users, dim, 0.1, &mut rng),
            item_a: Embedding::new("gad.ia", task.split_a.n_items, dim, 0.1, &mut rng),
            user_b: Embedding::new("gad.ub", task.split_b.n_users, dim, 0.1, &mut rng),
            item_b: Embedding::new("gad.ib", task.split_b.n_items, dim, 0.1, &mut rng),
            enc_a: Linear::new("gad.enc_a", dim, dim, &mut rng),
            enc_b: Linear::new("gad.enc_b", dim, dim, &mut rng),
            att_a: Param::new("gad.att_a", Tensor::zeros(1, dim)),
            att_b: Param::new("gad.att_b", Tensor::zeros(1, dim)),
            head_a: Mlp::new("gad.head_a", &[2 * dim, dim, 1], Activation::Relu, &mut rng),
            head_b: Mlp::new("gad.head_b", &[2 * dim, dim, 1], Activation::Relu, &mut rng),
            map_a,
            map_b,
            mask_a,
            mask_b,
            cache: RefCell::new(None),
            task,
        }
    }

    /// One GNN layer per domain: `ReLU((U + Â V) W)`; item side
    /// symmetric. Returns `(user_table, item_table)`.
    fn encode(&self, tape: &mut Tape, domain: Domain) -> (Var, Var) {
        let (ue, ie, enc, ui, ui_t, iu, iu_t) = match domain {
            Domain::A => (
                &self.user_a,
                &self.item_a,
                &self.enc_a,
                &self.task.ui_norm_a,
                &self.task.ui_norm_a_t,
                &self.task.iu_norm_a,
                &self.task.iu_norm_a_t,
            ),
            Domain::B => (
                &self.user_b,
                &self.item_b,
                &self.enc_b,
                &self.task.ui_norm_b,
                &self.task.ui_norm_b_t,
                &self.task.iu_norm_b,
                &self.task.iu_norm_b_t,
            ),
        };
        let u0 = ue.full(tape);
        let v0 = ie.full(tape);
        let u_agg = tape.spmm(Rc::clone(ui), Rc::clone(ui_t), v0);
        let u_sum = tape.add(u0, u_agg);
        let u1 = enc.forward(tape, u_sum);
        let u1 = tape.relu(u1);
        let v_agg = tape.spmm(Rc::clone(iu), Rc::clone(iu_t), u0);
        let v_sum = tape.add(v0, v_agg);
        let v1 = enc.forward(tape, v_sum);
        let v1 = tape.relu(v1);
        (u1, v1)
    }

    /// Full fused user tables for both domains plus item tables.
    fn propagate(&self, tape: &mut Tape) -> (Var, Var, Var, Var) {
        let (ua, va) = self.encode(tape, Domain::A);
        let (ub, vb) = self.encode(tape, Domain::B);
        let fuse = |tape: &mut Tape,
                    own: Var,
                    other: Var,
                    att: &Param,
                    map: &Rc<Vec<u32>>,
                    mask: &Tensor| {
            let other_aligned = tape.gather_rows(other, Rc::clone(map));
            let a_logit = att.bind(tape);
            let a = tape.sigmoid(a_logit); // 1 x dim, broadcast
            let am = tape.one_minus(a);
            let own_part = tape.mul(own, a);
            let oth_part = tape.mul(other_aligned, am);
            let combined = tape.add(own_part, oth_part);
            // masked mix: overlapped rows take combined, others keep own
            let m = tape.constant(mask.clone());
            let mm = tape.one_minus(m);
            let keep = tape.mul(own, mm);
            let m2 = tape.constant(mask.clone());
            let take = tape.mul(combined, m2);
            tape.add(keep, take)
        };
        let fa = fuse(tape, ua, ub, &self.att_a, &self.map_a, &self.mask_a);
        let fb = fuse(tape, ub, ua, &self.att_b, &self.map_b, &self.mask_b);
        (fa, fb, va, vb)
    }

    fn forward(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let (fa, fb, va, vb) = self.propagate(tape);
        let (uf, vf, head) = match domain {
            Domain::A => (fa, va, &self.head_a),
            Domain::B => (fb, vb, &self.head_b),
        };
        let u = tape.gather_rows(uf, Rc::new(users.to_vec()));
        let v = tape.gather_rows(vf, Rc::new(items.to_vec()));
        let x = tape.concat_cols(u, v);
        head.forward(tape, x)
    }
}

impl Module for GaDtcdrModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for m in [
            self.user_a.params(),
            self.item_a.params(),
            self.user_b.params(),
            self.item_b.params(),
            self.enc_a.params(),
            self.enc_b.params(),
            vec![&self.att_a, &self.att_b],
            self.head_a.params(),
            self.head_b.params(),
        ] {
            p.extend(m);
        }
        p
    }
}

impl CdrModel for GaDtcdrModel {
    fn name(&self) -> &'static str {
        "GA-DTCDR"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        self.forward(tape, domain, users, items)
    }

    fn prepare_eval(&mut self) {
        let mut tape = Tape::new();
        let (fa, fb, va, vb) = self.propagate(&mut tape);
        *self.cache.borrow_mut() = Some(EvalCache {
            user_a: tape.value(fa).clone(),
            user_b: tape.value(fb).clone(),
            item_a: tape.value(va).clone(),
            item_b: tape.value(vb).clone(),
        });
    }

    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        let cache = self.cache.borrow();
        let c = cache.as_ref().expect("prepare_eval not called");
        let (ue, ve, head) = match domain {
            Domain::A => (&c.user_a, &c.item_a, &self.head_a),
            Domain::B => (&c.user_b, &c.item_b, &self.head_b),
        };
        HeadKind::Mlp(MlpHead::from_mlp(head)).score_pairs(ue, ve, users, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use crate::train::{evaluate_model, train_joint, TrainConfig};
    use nm_data::{generate::generate, Scenario};

    fn task(ratio: f64) -> Rc<CdrTask> {
        let mut cfg = Scenario::ClothSport.config(0.002);
        cfg.n_users_a = 90;
        cfg.n_users_b = 90;
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
    fn forward_shape() {
        let m = GaDtcdrModel::new(task(0.5), 8, 1);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &[0, 1], &[0, 1]);
        assert_eq!(tape.value(l).shape(), (2, 1));
    }

    #[test]
    fn eval_matches_training_forward() {
        let mut m = GaDtcdrModel::new(task(0.5), 8, 2);
        let users = [0u32, 5];
        let items = [1u32, 3];
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::B, &users, &items);
        let train_scores = tape.value(l).data().to_vec();
        m.prepare_eval();
        let ev = m.eval_scores(Domain::B, &users, &items);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&train_scores), bits(&ev));
    }

    #[test]
    fn zero_overlap_fusion_keeps_own_embeddings_differentiable() {
        // With no overlap, fused tables equal own encodings; training
        // still works (the mask path must not NaN).
        let mut m = GaDtcdrModel::new(task(0.0), 8, 3);
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 2,
                lr: 1e-2,
                batch_size: 256,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.logs.iter().all(|l| l.mean_loss.is_finite()));
        let (a, _b) = evaluate_model(&mut m, 10);
        assert!(a.n_users > 0);
    }

    #[test]
    fn trains_above_chance() {
        let mut m = GaDtcdrModel::new(task(0.9), 8, 4);
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 5,
                lr: 1e-2,
                batch_size: 512,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.final_a.auc > 0.52, "AUC {}", stats.final_a.auc);
    }
}
