//! PLE (Tang et al., 2020) — progressive layered extraction. Like MMoE
//! but with explicitly separated expert groups: a *shared* bank plus a
//! *task-specific* bank per domain; each task's gate mixes its own
//! experts with the shared ones, which avoids harmful parameter
//! interference (the effect the paper's §III-B-2 discusses). One
//! extraction layer (the paper's CGC core) — sufficient at this scale.

use crate::baselines::mmoe::{mix_experts, ExpertBank};
use crate::common::SharedUserIndex;
use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_nn::{Activation, Embedding, Linear, Mlp, Module, Param};
use nm_tensor::TensorRng;
use std::rc::Rc;

/// PLE (CGC) with shared user space.
pub struct PleModel {
    task: Rc<CdrTask>,
    index: SharedUserIndex,
    users: Embedding,
    item_a: Embedding,
    item_b: Embedding,
    shared: ExpertBank,
    spec_a: ExpertBank,
    spec_b: ExpertBank,
    gate_a: Linear,
    gate_b: Linear,
    tower_a: Mlp,
    tower_b: Mlp,
}

impl PleModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, experts_per_group: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let index = SharedUserIndex::build(&task);
        let users = Embedding::new("ple.users", index.n_global, dim, 0.1, &mut rng);
        let item_a = Embedding::new("ple.ia", task.split_a.n_items, dim, 0.1, &mut rng);
        let item_b = Embedding::new("ple.ib", task.split_b.n_items, dim, 0.1, &mut rng);
        let shared = ExpertBank::new("ple.shared", experts_per_group, 2 * dim, dim, &mut rng);
        let spec_a = ExpertBank::new("ple.spec_a", experts_per_group, 2 * dim, dim, &mut rng);
        let spec_b = ExpertBank::new("ple.spec_b", experts_per_group, 2 * dim, dim, &mut rng);
        // Each task gate sees shared + its own experts.
        let n_mix = 2 * experts_per_group;
        let gate_a = Linear::new("ple.gate_a", 2 * dim, n_mix, &mut rng);
        let gate_b = Linear::new("ple.gate_b", 2 * dim, n_mix, &mut rng);
        let tower_a = Mlp::new(
            "ple.tower_a",
            &[dim, dim / 2, 1],
            Activation::Relu,
            &mut rng,
        );
        let tower_b = Mlp::new(
            "ple.tower_b",
            &[dim, dim / 2, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            task,
            index,
            users,
            item_a,
            item_b,
            shared,
            spec_a,
            spec_b,
            gate_a,
            gate_b,
            tower_a,
            tower_b,
        }
    }

    fn forward(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let g = self.index.map(domain, users);
        let u = self.users.lookup(tape, Rc::new(g));
        let (ie, spec, gate, tower) = match domain {
            Domain::A => (&self.item_a, &self.spec_a, &self.gate_a, &self.tower_a),
            Domain::B => (&self.item_b, &self.spec_b, &self.gate_b, &self.tower_b),
        };
        let v = ie.lookup(tape, Rc::new(items.to_vec()));
        let x = tape.concat_cols(u, v);
        let mut outs = self.shared.forward(tape, x);
        outs.extend(spec.forward(tape, x));
        let gl = gate.forward(tape, x);
        let mixed = mix_experts(tape, gl, &outs);
        tower.forward(tape, mixed)
    }
}

impl Module for PleModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.users.params();
        p.extend(self.item_a.params());
        p.extend(self.item_b.params());
        p.extend(self.shared.params());
        p.extend(self.spec_a.params());
        p.extend(self.spec_b.params());
        p.extend(self.gate_a.params());
        p.extend(self.gate_b.params());
        p.extend(self.tower_a.params());
        p.extend(self.tower_b.params());
        p
    }
}

impl CdrModel for PleModel {
    fn name(&self) -> &'static str {
        "PLE"
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
        let mut cfg = Scenario::LoanFund.config(0.001);
        cfg.n_users_a = 130;
        cfg.n_users_b = 100;
        cfg.n_items_a = 45;
        cfg.n_items_b = 40;
        cfg.n_overlap = 40;
        let t = TaskConfig {
            eval_negatives: 40,
            ..Default::default()
        };
        CdrTask::build(generate(&cfg), t)
    }

    #[test]
    fn forward_shape() {
        let m = PleModel::new(task(), 8, 2, 1);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::B, &[0, 1, 2], &[0, 1, 2]);
        assert_eq!(tape.value(l).shape(), (3, 1));
    }

    #[test]
    fn task_specific_experts_do_not_leak_params() {
        let m = PleModel::new(task(), 8, 2, 2);
        // spec_a params must be disjoint from spec_b params by name
        let names_a: Vec<&str> = m.spec_a.params().iter().map(|p| p.name()).collect();
        for p in m.spec_b.params() {
            assert!(!names_a.contains(&p.name()));
        }
    }

    #[test]
    fn trains_above_chance() {
        let mut m = PleModel::new(task(), 8, 2, 3);
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
