//! MMoE (Ma et al., 2018) — multi-gate mixture-of-experts multi-task
//! learner. The two domains are the two tasks; the input is the
//! concatenation of a **shared-space** user embedding (known-overlapped
//! users collapse to one row — see [`crate::SharedUserIndex`]) and a
//! domain item embedding. Shared experts transform the input; a
//! per-task softmax gate mixes them; per-task towers emit logits.

use crate::common::SharedUserIndex;
use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_nn::{Activation, Embedding, Linear, Mlp, Module, Param};
use nm_tensor::TensorRng;
use std::rc::Rc;

/// Mixture-of-experts core shared by [`MmoeModel`] and reused (with
/// task-specific expert groups) by PLE.
pub(crate) struct ExpertBank {
    pub experts: Vec<Mlp>,
}

impl ExpertBank {
    pub fn new(name: &str, n: usize, in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        let experts = (0..n)
            .map(|i| {
                Mlp::new(
                    &format!("{name}.expert{i}"),
                    &[in_dim, out_dim],
                    Activation::Relu,
                    rng,
                )
            })
            .collect();
        Self { experts }
    }

    /// Applies all experts; ReLU'd outputs, each `N x out_dim`.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Vec<Var> {
        self.experts
            .iter()
            .map(|e| {
                let y = e.forward(tape, x);
                tape.relu(y)
            })
            .collect()
    }

    pub fn params(&self) -> Vec<&Param> {
        self.experts.iter().flat_map(|e| e.params()).collect()
    }
}

/// Softmax-gated mixture of the expert outputs.
pub(crate) fn mix_experts(tape: &mut Tape, gate_logits: Var, experts: &[Var]) -> Var {
    assert!(!experts.is_empty(), "mix_experts: no experts");
    let weights = tape.softmax_rows(gate_logits); // N x K
    let mut acc: Option<Var> = None;
    for (k, &e) in experts.iter().enumerate() {
        let wk = tape.slice_cols(weights, k, k + 1); // N x 1 broadcast
        let term = tape.mul(e, wk);
        acc = Some(match acc {
            Some(a) => tape.add(a, term),
            None => term,
        });
    }
    acc.expect("non-empty experts")
}

/// MMoE with shared user space.
pub struct MmoeModel {
    task: Rc<CdrTask>,
    index: SharedUserIndex,
    users: Embedding,
    item_a: Embedding,
    item_b: Embedding,
    bank: ExpertBank,
    gate_a: Linear,
    gate_b: Linear,
    tower_a: Mlp,
    tower_b: Mlp,
}

impl MmoeModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, n_experts: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let index = SharedUserIndex::build(&task);
        let users = Embedding::new("mmoe.users", index.n_global, dim, 0.1, &mut rng);
        let item_a = Embedding::new("mmoe.ia", task.split_a.n_items, dim, 0.1, &mut rng);
        let item_b = Embedding::new("mmoe.ib", task.split_b.n_items, dim, 0.1, &mut rng);
        let bank = ExpertBank::new("mmoe", n_experts, 2 * dim, dim, &mut rng);
        let gate_a = Linear::new("mmoe.gate_a", 2 * dim, n_experts, &mut rng);
        let gate_b = Linear::new("mmoe.gate_b", 2 * dim, n_experts, &mut rng);
        let tower_a = Mlp::new(
            "mmoe.tower_a",
            &[dim, dim / 2, 1],
            Activation::Relu,
            &mut rng,
        );
        let tower_b = Mlp::new(
            "mmoe.tower_b",
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
            bank,
            gate_a,
            gate_b,
            tower_a,
            tower_b,
        }
    }

    fn forward(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let g = self.index.map(domain, users);
        let u = self.users.lookup(tape, Rc::new(g));
        let (ie, gate, tower) = match domain {
            Domain::A => (&self.item_a, &self.gate_a, &self.tower_a),
            Domain::B => (&self.item_b, &self.gate_b, &self.tower_b),
        };
        let v = ie.lookup(tape, Rc::new(items.to_vec()));
        let x = tape.concat_cols(u, v);
        let outs = self.bank.forward(tape, x);
        let gl = gate.forward(tape, x);
        let mixed = mix_experts(tape, gl, &outs);
        tower.forward(tape, mixed)
    }
}

impl Module for MmoeModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.users.params();
        p.extend(self.item_a.params());
        p.extend(self.item_b.params());
        p.extend(self.bank.params());
        p.extend(self.gate_a.params());
        p.extend(self.gate_b.params());
        p.extend(self.tower_a.params());
        p.extend(self.tower_b.params());
        p
    }
}

impl CdrModel for MmoeModel {
    fn name(&self) -> &'static str {
        "MMoE"
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

    fn task(overlap_ratio: f64) -> Rc<CdrTask> {
        let mut cfg = Scenario::MusicMovie.config(0.002);
        cfg.n_users_a = 100;
        cfg.n_users_b = 110;
        cfg.n_items_a = 50;
        cfg.n_items_b = 55;
        cfg.n_overlap = 60;
        let data = generate(&cfg).with_overlap_ratio(overlap_ratio, 5);
        let t = TaskConfig {
            eval_negatives: 50,
            ..Default::default()
        };
        CdrTask::build(data, t)
    }

    #[test]
    fn forward_shapes() {
        let m = MmoeModel::new(task(0.5), 8, 3, 1);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &[0, 1], &[2, 3]);
        assert_eq!(tape.value(l).shape(), (2, 1));
    }

    #[test]
    fn overlapped_users_share_one_embedding_row() {
        let t = task(1.0);
        let m = MmoeModel::new(t.clone(), 8, 2, 2);
        let &(a, b) = t.dataset.overlap.first().expect("has overlap");
        let ga = m.index.map(Domain::A, &[a]);
        let gb = m.index.map(Domain::B, &[b]);
        assert_eq!(ga, gb);
    }

    #[test]
    fn gates_sum_to_one() {
        let m = MmoeModel::new(task(0.5), 8, 4, 3);
        let mut tape = Tape::new();
        let g = m.index.map(Domain::A, &[0, 1, 2]);
        let u = m.users.lookup(&mut tape, Rc::new(g));
        let v = m.item_a.lookup(&mut tape, Rc::new(vec![0, 1, 2]));
        let x = tape.concat_cols(u, v);
        let gl = m.gate_a.forward(&mut tape, x);
        let w = tape.softmax_rows(gl);
        for i in 0..3 {
            let s: f32 = tape.value(w).row_slice(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn trains_above_chance() {
        let mut m = MmoeModel::new(task(0.9), 8, 3, 4);
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
