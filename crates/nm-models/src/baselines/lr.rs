//! LR (Richardson et al., 2007) — the paper's generalized-linear
//! single-domain baseline: stacked MLPs over the concatenated user/item
//! embeddings, trained per domain with no cross-domain sharing.

use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_nn::{Activation, Embedding, Mlp, Module, Param};
use nm_serve::{HeadKind, MlpHead};
use nm_tensor::TensorRng;
use std::rc::Rc;

struct DomainTower {
    users: Embedding,
    items: Embedding,
    head: Mlp,
}

/// Single-domain wide/MLP click predictor.
pub struct LrModel {
    task: Rc<CdrTask>,
    a: DomainTower,
    b: DomainTower,
}

impl LrModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let tower = |name: &str, nu: usize, ni: usize, rng: &mut TensorRng| DomainTower {
            users: Embedding::new(&format!("lr.{name}.u"), nu, dim, 0.1, rng),
            items: Embedding::new(&format!("lr.{name}.i"), ni, dim, 0.1, rng),
            head: Mlp::new(
                &format!("lr.{name}.head"),
                &[2 * dim, dim, 1],
                Activation::Relu,
                rng,
            ),
        };
        let a = tower("a", task.split_a.n_users, task.split_a.n_items, &mut rng);
        let b = tower("b", task.split_b.n_users, task.split_b.n_items, &mut rng);
        Self { task, a, b }
    }

    fn tower(&self, domain: Domain) -> &DomainTower {
        match domain {
            Domain::A => &self.a,
            Domain::B => &self.b,
        }
    }
}

impl Module for LrModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for t in [&self.a, &self.b] {
            p.extend(t.users.params());
            p.extend(t.items.params());
            p.extend(t.head.params());
        }
        p
    }
}

impl CdrModel for LrModel {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let t = self.tower(domain);
        let u = t.users.lookup(tape, Rc::new(users.to_vec()));
        let v = t.items.lookup(tape, Rc::new(items.to_vec()));
        let x = tape.concat_cols(u, v);
        t.head.forward(tape, x)
    }

    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        let t = self.tower(domain);
        HeadKind::Mlp(MlpHead::from_mlp(&t.head)).score_pairs(
            &t.users.table_value(),
            &t.items.table_value(),
            users,
            items,
        )
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
        cfg.n_users_b = 110;
        cfg.n_items_a = 50;
        cfg.n_items_b = 55;
        cfg.n_overlap = 30;
        let t = TaskConfig {
            eval_negatives: 50,
            ..Default::default()
        };
        CdrTask::build(generate(&cfg), t)
    }

    #[test]
    fn logits_shape() {
        let m = LrModel::new(task(), 8, 1);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &[0, 1, 2], &[3, 4, 5]);
        assert_eq!(tape.value(l).shape(), (3, 1));
    }

    #[test]
    fn eval_matches_training_forward() {
        let m = LrModel::new(task(), 8, 2);
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
    fn trains_above_random() {
        let mut m = LrModel::new(task(), 8, 3);
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
        // 51 candidates, random HR@10 ≈ 19.6%
        assert!(stats.final_a.auc > 0.52, "AUC {}", stats.final_a.auc);
    }
}
