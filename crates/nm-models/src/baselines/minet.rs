//! MiNet (Ouyang et al., 2020) — mixed interest network. Three user
//! interest signals are fused by learned interest-level attention:
//!
//! 1. **long-term** — the user's shared-space embedding;
//! 2. **intra-domain** — the mean of the user's interacted item
//!    embeddings in the target domain (train graph, `1/|N_u|` weights);
//! 3. **cross-domain** — the same mean from the *other* domain for
//!    known-overlapped users (zero vector otherwise).
//!
//! Simplification: the original's item-level attention over individual
//! behaviour sequences is collapsed to the Laplacian-normalized mean
//! (our substrate has no sequence dimension); interest-level attention
//! is kept as per-interest learned gates.

use crate::common::SharedUserIndex;
use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_graph::Csr;
use nm_nn::{Activation, Embedding, Linear, Mlp, Module, Param};
use nm_tensor::{Tensor, TensorRng};
use std::rc::Rc;

/// MiNet with mean-pooled behaviour interests.
pub struct MiNetModel {
    task: Rc<CdrTask>,
    index: SharedUserIndex,
    users: Embedding,
    item_a: Embedding,
    item_b: Embedding,
    /// Interest-level attention gates (one scalar logit per interest).
    att: Linear,
    head_a: Mlp,
    head_b: Mlp,
    /// Cross-domain history rows for users of A (rows of B's item means)
    /// and vice versa, as gather maps: `cross_a[u]` = aligned B user id
    /// or sentinel.
    cross_a: Rc<Vec<u32>>,
    cross_b: Rc<Vec<u32>>,
    /// Mask 1.0 when the user has a cross-domain history.
    mask_a: Tensor,
    mask_b: Tensor,
}

const NO_ALIGN: u32 = 0;

impl MiNetModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let index = SharedUserIndex::build(&task);
        let users = Embedding::new("minet.users", index.n_global, dim, 0.1, &mut rng);
        let item_a = Embedding::new("minet.ia", task.split_a.n_items, dim, 0.1, &mut rng);
        let item_b = Embedding::new("minet.ib", task.split_b.n_items, dim, 0.1, &mut rng);
        let att = Linear::new("minet.att", 3 * dim, 3, &mut rng);
        let head_a = Mlp::new(
            "minet.head_a",
            &[4 * dim, dim, 1],
            Activation::Relu,
            &mut rng,
        );
        let head_b = Mlp::new(
            "minet.head_b",
            &[4 * dim, dim, 1],
            Activation::Relu,
            &mut rng,
        );
        // Precompute alignment gather maps + masks. Unaligned users
        // gather row NO_ALIGN and are masked to zero.
        let mut cross_a = Vec::with_capacity(task.split_a.n_users);
        let mut mask_a = Tensor::zeros(task.split_a.n_users, 1);
        for u in 0..task.split_a.n_users {
            match task.overlap_a_to_b[u] {
                Some(b) => {
                    cross_a.push(b);
                    mask_a.set(u, 0, 1.0);
                }
                None => cross_a.push(NO_ALIGN),
            }
        }
        let mut cross_b = Vec::with_capacity(task.split_b.n_users);
        let mut mask_b = Tensor::zeros(task.split_b.n_users, 1);
        for u in 0..task.split_b.n_users {
            match task.overlap_b_to_a[u] {
                Some(a) => {
                    cross_b.push(a);
                    mask_b.set(u, 0, 1.0);
                }
                None => cross_b.push(NO_ALIGN),
            }
        }
        Self {
            task,
            index,
            users,
            item_a,
            item_b,
            att,
            head_a,
            head_b,
            cross_a: Rc::new(cross_a),
            cross_b: Rc::new(cross_b),
            mask_a,
            mask_b,
        }
    }

    /// Full-table history means (`n_users x dim`) for a domain.
    fn history_means(&self, tape: &mut Tape, domain: Domain) -> Var {
        let (adj, adj_t, items): (&Rc<Csr>, &Rc<Csr>, &Embedding) = match domain {
            Domain::A => (&self.task.ui_norm_a, &self.task.ui_norm_a_t, &self.item_a),
            Domain::B => (&self.task.ui_norm_b, &self.task.ui_norm_b_t, &self.item_b),
        };
        let table = items.full(tape);
        tape.spmm(Rc::clone(adj), Rc::clone(adj_t), table)
    }

    fn forward(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let batch_users = Rc::new(users.to_vec());
        let g = self.index.map(domain, users);
        let long_term = self.users.lookup(tape, Rc::new(g));

        // intra-domain interest: gather this domain's history means
        let intra_full = self.history_means(tape, domain);
        let intra = tape.gather_rows(intra_full, Rc::clone(&batch_users));

        // cross-domain interest: other domain's history means for the
        // aligned user, masked to zero when unaligned
        let cross_full = self.history_means(tape, domain.other());
        let (map, mask) = match domain {
            Domain::A => (&self.cross_a, &self.mask_a),
            Domain::B => (&self.cross_b, &self.mask_b),
        };
        let aligned: Vec<u32> = users.iter().map(|&u| map[u as usize]).collect();
        let cross = tape.gather_rows(cross_full, Rc::new(aligned));
        let batch_mask: Vec<f32> = users.iter().map(|&u| mask.get(u as usize, 0)).collect();
        let mvar = tape.constant(Tensor::new(users.len(), 1, batch_mask));
        let cross = tape.mul(cross, mvar);

        // interest-level attention
        let all = tape.concat_cols(long_term, intra);
        let all = tape.concat_cols(all, cross);
        let logits = self.att.forward(tape, all);
        let w = tape.softmax_rows(logits); // N x 3
        let w0 = tape.slice_cols(w, 0, 1);
        let w1 = tape.slice_cols(w, 1, 2);
        let w2 = tape.slice_cols(w, 2, 3);
        let lt = tape.mul(long_term, w0);
        let ii = tape.mul(intra, w1);
        let ci = tape.mul(cross, w2);
        let fused0 = tape.add(lt, ii);
        let fused = tape.add(fused0, ci);

        let (ie, head) = match domain {
            Domain::A => (&self.item_a, &self.head_a),
            Domain::B => (&self.item_b, &self.head_b),
        };
        let v = ie.lookup(tape, Rc::new(items.to_vec()));
        let x0 = tape.concat_cols(fused, long_term);
        let x1 = tape.concat_cols(x0, intra);
        let x = tape.concat_cols(x1, v);
        head.forward(tape, x)
    }
}

impl Module for MiNetModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.users.params();
        p.extend(self.item_a.params());
        p.extend(self.item_b.params());
        p.extend(self.att.params());
        p.extend(self.head_a.params());
        p.extend(self.head_b.params());
        p
    }
}

impl CdrModel for MiNetModel {
    fn name(&self) -> &'static str {
        "MiNet"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        self.forward(tape, domain, users, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use crate::train::{train_joint, TrainConfig};
    use nm_data::{generate::generate, Scenario};

    fn task(ratio: f64) -> Rc<CdrTask> {
        let mut cfg = Scenario::PhoneElec.config(0.002);
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
        let m = MiNetModel::new(task(0.5), 8, 1);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &[0, 1, 2], &[0, 1, 2]);
        assert_eq!(tape.value(l).shape(), (3, 1));
    }

    #[test]
    fn unaligned_users_have_zero_cross_interest_mask() {
        let t = task(0.5);
        let m = MiNetModel::new(t.clone(), 8, 2);
        for &u in t.non_overlap_a.iter().take(5) {
            assert_eq!(m.mask_a.get(u as usize, 0), 0.0);
        }
        for &(a, _) in t.dataset.overlap.iter().take(5) {
            assert_eq!(m.mask_a.get(a as usize, 0), 1.0);
        }
    }

    #[test]
    fn trains_above_chance() {
        let mut m = MiNetModel::new(task(0.9), 8, 3);
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 5,
                lr: 1e-2,
                batch_size: 256,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.final_a.auc > 0.52, "AUC {}", stats.final_a.auc);
    }
}
