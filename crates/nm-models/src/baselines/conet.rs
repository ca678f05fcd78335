//! CoNet (Hu et al., 2018) — collaborative cross networks: per-domain
//! MLP towers with cross-connection units that inject the other tower's
//! hidden units layer by layer.
//!
//! Simplification (documented in DESIGN.md): the original trains on
//! paired samples of fully-overlapped users. Here both towers run on the
//! same `(shared-user, item)` input — tower Z uses its own item
//! embedding, tower Z̄'s hidden state is computed from the same user
//! with a domain-projected item view — and the cross unit adds
//! `H · h_other` into each hidden layer. This keeps CoNet's mechanism
//! (dual towers + shared cross-transfer matrices riding on user
//! overlap) while remaining well-defined for non-overlapped users.

use crate::common::SharedUserIndex;
use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_nn::{Embedding, Linear, Module, Param};
use nm_tensor::TensorRng;
use std::rc::Rc;

/// CoNet with two hidden layers and one cross unit per layer.
pub struct CoNetModel {
    task: Rc<CdrTask>,
    index: SharedUserIndex,
    users: Embedding,
    item_a: Embedding,
    item_b: Embedding,
    // tower layers: [in -> h1, h1 -> h2], per domain
    l1_a: Linear,
    l2_a: Linear,
    l1_b: Linear,
    l2_b: Linear,
    // shared cross matrices (one per hidden layer)
    cross1: Linear,
    cross2: Linear,
    out_a: Linear,
    out_b: Linear,
}

impl CoNetModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let index = SharedUserIndex::build(&task);
        let h1 = dim;
        let h2 = dim / 2;
        Self {
            users: Embedding::new("conet.users", index.n_global, dim, 0.1, &mut rng),
            item_a: Embedding::new("conet.ia", task.split_a.n_items, dim, 0.1, &mut rng),
            item_b: Embedding::new("conet.ib", task.split_b.n_items, dim, 0.1, &mut rng),
            l1_a: Linear::new("conet.l1_a", 2 * dim, h1, &mut rng),
            l2_a: Linear::new("conet.l2_a", h1, h2, &mut rng),
            l1_b: Linear::new("conet.l1_b", 2 * dim, h1, &mut rng),
            l2_b: Linear::new("conet.l2_b", h1, h2, &mut rng),
            cross1: Linear::new_no_bias("conet.cross1", h1, h1, &mut rng),
            cross2: Linear::new_no_bias("conet.cross2", h2, h2, &mut rng),
            out_a: Linear::new("conet.out_a", h2, 1, &mut rng),
            out_b: Linear::new("conet.out_b", h2, 1, &mut rng),
            index,
            task,
        }
    }

    fn forward(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let g = self.index.map(domain, users);
        let u = self.users.lookup(tape, Rc::new(g));
        let (ie, l1, l2, l1o, l2o, out) = match domain {
            Domain::A => (
                &self.item_a,
                &self.l1_a,
                &self.l2_a,
                &self.l1_b,
                &self.l2_b,
                &self.out_a,
            ),
            Domain::B => (
                &self.item_b,
                &self.l1_b,
                &self.l2_b,
                &self.l1_a,
                &self.l2_a,
                &self.out_b,
            ),
        };
        let v = ie.lookup(tape, Rc::new(items.to_vec()));
        let x = tape.concat_cols(u, v);
        // own tower layer 1 + cross from other tower's layer 1 on x
        let h1_own = l1.forward(tape, x);
        let h1_other = l1o.forward(tape, x);
        let c1 = self.cross1.forward(tape, h1_other);
        let h1 = tape.add(h1_own, c1);
        let h1 = tape.relu(h1);
        // layer 2 with cross
        let h2_own = l2.forward(tape, h1);
        let h2_other = l2o.forward(tape, h1);
        let c2 = self.cross2.forward(tape, h2_other);
        let h2 = tape.add(h2_own, c2);
        let h2 = tape.relu(h2);
        out.forward(tape, h2)
    }
}

impl Module for CoNetModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.users.params();
        for m in [
            self.item_a.params(),
            self.item_b.params(),
            self.l1_a.params(),
            self.l2_a.params(),
            self.l1_b.params(),
            self.l2_b.params(),
            self.cross1.params(),
            self.cross2.params(),
            self.out_a.params(),
            self.out_b.params(),
        ] {
            p.extend(m);
        }
        p
    }
}

impl CdrModel for CoNetModel {
    fn name(&self) -> &'static str {
        "CoNet"
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

    fn task() -> Rc<CdrTask> {
        let mut cfg = Scenario::MusicMovie.config(0.002);
        cfg.n_users_a = 100;
        cfg.n_users_b = 100;
        cfg.n_items_a = 50;
        cfg.n_items_b = 50;
        cfg.n_overlap = 50;
        let t = TaskConfig {
            eval_negatives: 40,
            ..Default::default()
        };
        CdrTask::build(generate(&cfg), t)
    }

    #[test]
    fn forward_shape() {
        let m = CoNetModel::new(task(), 8, 1);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &[0, 1], &[0, 1]);
        assert_eq!(tape.value(l).shape(), (2, 1));
    }

    #[test]
    fn cross_matrices_are_shared_between_directions() {
        let m = CoNetModel::new(task(), 8, 2);
        // gradient through domain A loss must touch cross1 (shared)
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &[0], &[0]);
        let s = tape.sum_all(l);
        tape.backward(s);
        nm_nn::absorb_all(&m, &tape);
        let cross_grad = m
            .params()
            .into_iter()
            .find(|p| p.name() == "conet.cross1.w")
            .unwrap()
            .grad_norm_sq();
        assert!(cross_grad > 0.0);
    }

    #[test]
    fn trains_above_chance() {
        let mut m = CoNetModel::new(task(), 8, 3);
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 6,
                lr: 1e-2,
                batch_size: 256,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.final_a.auc > 0.52, "AUC {}", stats.final_a.auc);
    }
}
