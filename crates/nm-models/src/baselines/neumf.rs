//! NeuMF (He et al., 2017) — neural collaborative filtering: a GMF
//! branch (elementwise product of user/item embeddings) and an MLP
//! branch over the concatenation, fused by a final linear layer.
//! Separate embedding tables per branch, per domain, exactly as in the
//! original.

use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_nn::{Activation, Embedding, Linear, Mlp, Module, Param};
use nm_tensor::TensorRng;
use std::rc::Rc;

struct DomainNeuMf {
    gmf_user: Embedding,
    gmf_item: Embedding,
    mlp_user: Embedding,
    mlp_item: Embedding,
    mlp: Mlp,
    fuse: Linear,
}

impl DomainNeuMf {
    fn forward(&self, tape: &mut Tape, users: Rc<Vec<u32>>, items: Rc<Vec<u32>>) -> Var {
        let gu = self.gmf_user.lookup(tape, Rc::clone(&users));
        let gi = self.gmf_item.lookup(tape, Rc::clone(&items));
        let gmf = tape.mul(gu, gi);
        let mu = self.mlp_user.lookup(tape, users);
        let mi = self.mlp_item.lookup(tape, items);
        let cat = tape.concat_cols(mu, mi);
        let deep = self.mlp.forward(tape, cat);
        let deep = tape.relu(deep);
        let both = tape.concat_cols(gmf, deep);
        self.fuse.forward(tape, both)
    }
}

/// Per-domain NeuMF.
pub struct NeuMfModel {
    task: Rc<CdrTask>,
    a: DomainNeuMf,
    b: DomainNeuMf,
}

impl NeuMfModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let build = |name: &str, nu: usize, ni: usize, rng: &mut TensorRng| DomainNeuMf {
            gmf_user: Embedding::new(&format!("neumf.{name}.gu"), nu, dim, 0.1, rng),
            gmf_item: Embedding::new(&format!("neumf.{name}.gi"), ni, dim, 0.1, rng),
            mlp_user: Embedding::new(&format!("neumf.{name}.mu"), nu, dim, 0.1, rng),
            mlp_item: Embedding::new(&format!("neumf.{name}.mi"), ni, dim, 0.1, rng),
            mlp: Mlp::new(
                &format!("neumf.{name}.mlp"),
                &[2 * dim, dim, dim / 2],
                Activation::Relu,
                rng,
            ),
            fuse: Linear::new(&format!("neumf.{name}.fuse"), dim + dim / 2, 1, rng),
        };
        let a = build("a", task.split_a.n_users, task.split_a.n_items, &mut rng);
        let b = build("b", task.split_b.n_users, task.split_b.n_items, &mut rng);
        Self { task, a, b }
    }

    fn tower(&self, domain: Domain) -> &DomainNeuMf {
        match domain {
            Domain::A => &self.a,
            Domain::B => &self.b,
        }
    }
}

impl Module for NeuMfModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for t in [&self.a, &self.b] {
            p.extend(t.gmf_user.params());
            p.extend(t.gmf_item.params());
            p.extend(t.mlp_user.params());
            p.extend(t.mlp_item.params());
            p.extend(t.mlp.params());
            p.extend(t.fuse.params());
        }
        p
    }
}

impl CdrModel for NeuMfModel {
    fn name(&self) -> &'static str {
        "NeuMF"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        self.tower(domain)
            .forward(tape, Rc::new(users.to_vec()), Rc::new(items.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use crate::train::{train_joint, TrainConfig};
    use nm_data::{generate::generate, Scenario};

    fn task() -> Rc<CdrTask> {
        let mut cfg = Scenario::PhoneElec.config(0.002);
        cfg.n_users_a = 100;
        cfg.n_users_b = 100;
        cfg.n_items_a = 50;
        cfg.n_items_b = 50;
        cfg.n_overlap = 25;
        let t = TaskConfig {
            eval_negatives: 50,
            ..Default::default()
        };
        CdrTask::build(generate(&cfg), t)
    }

    #[test]
    fn forward_shape_and_eval_consistency() {
        let m = NeuMfModel::new(task(), 8, 1);
        let users = [0u32, 3, 7, 9];
        let items = [1u32, 4, 2, 0];
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &users, &items);
        assert_eq!(tape.value(l).shape(), (4, 1));
        let ev = m.eval_scores(Domain::A, &users, &items);
        for (a, b) in tape.value(l).data().iter().zip(&ev) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn eval_matches_training_forward() {
        let m = NeuMfModel::new(task(), 8, 4);
        let users = [0u32, 5, 9];
        let items = [1u32, 2, 3];
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::B, &users, &items);
        let train_scores = tape.value(l).data().to_vec();
        let eval = m.eval_scores(Domain::B, &users, &items);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&train_scores), bits(&eval));
    }

    #[test]
    fn gmf_and_mlp_tables_are_distinct_params() {
        let m = NeuMfModel::new(task(), 8, 2);
        // 6 modules per tower x 2 towers, counted by Params:
        // 4 embeddings + mlp(2 layers => 4) + fuse(2) per tower = 10
        assert_eq!(m.params().len(), 20);
    }

    #[test]
    fn trains_above_chance() {
        let mut m = NeuMfModel::new(task(), 8, 3);
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
        assert!(stats.final_b.auc > 0.52, "AUC {}", stats.final_b.auc);
    }
}
