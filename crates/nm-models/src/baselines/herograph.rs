//! HeroGraph (Cui et al., 2020) — a shared **global** heterogeneous
//! graph over both domains (known-overlapped users bridge the two
//! interaction graphs) whose propagated embeddings enhance each local
//! domain model.
//!
//! Node space: merged users (`SharedUserIndex`), then items of A, then
//! items of B. Two normalized-adjacency GNN hops propagate over the
//! global graph; each domain's final user/item representation is its
//! local embedding plus the gathered global rows. Prediction via a
//! per-domain MLP on `[u ‖ v]`.

use crate::common::SharedUserIndex;
use crate::{CdrModel, CdrTask, Domain};
use nm_autograd::{Tape, Var};
use nm_graph::Csr;
use nm_nn::{Activation, Embedding, Linear, Mlp, Module, Param};
use nm_serve::{DomainSnapshot, FrozenModel, HeadKind, MlpHead, Snapshot};
use nm_tensor::TensorRng;
use std::cell::RefCell;
use std::rc::Rc;

/// HeroGraph: global cross-domain graph + local enhancement.
pub struct HeroGraphModel {
    task: Rc<CdrTask>,
    index: SharedUserIndex,
    /// One embedding table over the whole global node space.
    global: Embedding,
    /// Local per-domain tables.
    user_a: Embedding,
    item_a: Embedding,
    user_b: Embedding,
    item_b: Embedding,
    enc1: Linear,
    enc2: Linear,
    head_a: Mlp,
    head_b: Mlp,
    /// Row-normalized symmetric global adjacency (+ transpose).
    adj: Rc<Csr>,
    adj_t: Rc<Csr>,
    /// Gather maps from domain-local ids into the global node space.
    gmap_user_a: Rc<Vec<u32>>,
    gmap_user_b: Rc<Vec<u32>>,
    gmap_item_a: Rc<Vec<u32>>,
    gmap_item_b: Rc<Vec<u32>>,
    /// The propagated tables and heads `eval_scores` scores through,
    /// which is also the snapshot `export_frozen` publishes.
    frozen: RefCell<Option<Snapshot>>,
}

impl HeroGraphModel {
    pub fn new(task: Rc<CdrTask>, dim: usize, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let index = SharedUserIndex::build(&task);
        let n_users = index.n_global;
        let n_ia = task.split_a.n_items;
        let n_ib = task.split_b.n_items;
        let n_nodes = n_users + n_ia + n_ib;
        // Global symmetric adjacency from both domains' train edges.
        let mut edges: Vec<(u32, u32, f32)> = Vec::new();
        for &(u, i) in &task.split_a.train {
            let gu = index.a_to_global[u as usize];
            let gi = (n_users + i as usize) as u32;
            edges.push((gu, gi, 1.0));
            edges.push((gi, gu, 1.0));
        }
        for &(u, i) in &task.split_b.train {
            let gu = index.b_to_global[u as usize];
            let gi = (n_users + n_ia + i as usize) as u32;
            edges.push((gu, gi, 1.0));
            edges.push((gi, gu, 1.0));
        }
        let adj = Rc::new(Csr::from_edges(n_nodes, n_nodes, &edges).row_normalized());
        let adj_t = Rc::new(adj.transpose());
        let gmap_user_a = Rc::new(index.a_to_global.clone());
        let gmap_user_b = Rc::new(index.b_to_global.clone());
        let gmap_item_a: Rc<Vec<u32>> = Rc::new((0..n_ia).map(|i| (n_users + i) as u32).collect());
        let gmap_item_b: Rc<Vec<u32>> =
            Rc::new((0..n_ib).map(|i| (n_users + n_ia + i) as u32).collect());
        Self {
            global: Embedding::new("hero.global", n_nodes, dim, 0.1, &mut rng),
            user_a: Embedding::new("hero.ua", task.split_a.n_users, dim, 0.1, &mut rng),
            item_a: Embedding::new("hero.ia", n_ia, dim, 0.1, &mut rng),
            user_b: Embedding::new("hero.ub", task.split_b.n_users, dim, 0.1, &mut rng),
            item_b: Embedding::new("hero.ib", n_ib, dim, 0.1, &mut rng),
            enc1: Linear::new("hero.enc1", dim, dim, &mut rng),
            enc2: Linear::new("hero.enc2", dim, dim, &mut rng),
            head_a: Mlp::new(
                "hero.head_a",
                &[2 * dim, dim, 1],
                Activation::Relu,
                &mut rng,
            ),
            head_b: Mlp::new(
                "hero.head_b",
                &[2 * dim, dim, 1],
                Activation::Relu,
                &mut rng,
            ),
            adj,
            adj_t,
            gmap_user_a,
            gmap_user_b,
            gmap_item_a,
            gmap_item_b,
            frozen: RefCell::new(None),
            index,
            task,
        }
    }

    /// The merged global user-id space (exposed for inspection/tests).
    pub fn shared_index(&self) -> &SharedUserIndex {
        &self.index
    }

    /// Two GNN hops on the global graph; returns the node table.
    fn propagate_global(&self, tape: &mut Tape) -> Var {
        let x0 = self.global.full(tape);
        let a1 = tape.spmm(Rc::clone(&self.adj), Rc::clone(&self.adj_t), x0);
        let s1 = tape.add(x0, a1);
        let h1 = self.enc1.forward(tape, s1);
        let h1 = tape.relu(h1);
        let a2 = tape.spmm(Rc::clone(&self.adj), Rc::clone(&self.adj_t), h1);
        let s2 = tape.add(h1, a2);
        let h2 = self.enc2.forward(tape, s2);
        tape.relu(h2)
    }

    /// Final `(user_table, item_table)` for a domain: local + global.
    fn tables_for(&self, tape: &mut Tape, global_nodes: Var, domain: Domain) -> (Var, Var) {
        let (ue, ie, gu, gi) = match domain {
            Domain::A => (
                &self.user_a,
                &self.item_a,
                &self.gmap_user_a,
                &self.gmap_item_a,
            ),
            Domain::B => (
                &self.user_b,
                &self.item_b,
                &self.gmap_user_b,
                &self.gmap_item_b,
            ),
        };
        let local_u = ue.full(tape);
        let local_i = ie.full(tape);
        let glob_u = tape.gather_rows(global_nodes, Rc::clone(gu));
        let glob_i = tape.gather_rows(global_nodes, Rc::clone(gi));
        (tape.add(local_u, glob_u), tape.add(local_i, glob_i))
    }

    fn forward(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let g = self.propagate_global(tape);
        let (ut, it) = self.tables_for(tape, g, domain);
        let u = tape.gather_rows(ut, Rc::new(users.to_vec()));
        let v = tape.gather_rows(it, Rc::new(items.to_vec()));
        let x = tape.concat_cols(u, v);
        let head = match domain {
            Domain::A => &self.head_a,
            Domain::B => &self.head_b,
        };
        head.forward(tape, x)
    }

    /// Freezes the *propagated* tables (local + gathered global rows)
    /// and the per-domain prediction MLPs.
    fn freeze(&self) -> Snapshot {
        let mut tape = Tape::new();
        let g = self.propagate_global(&mut tape);
        let mut mk = |domain: Domain, head: &Mlp| {
            let (u, v) = self.tables_for(&mut tape, g, domain);
            DomainSnapshot {
                users: tape.value(u).clone(),
                items: tape.value(v).clone(),
                head: HeadKind::Mlp(MlpHead::from_mlp(head)),
            }
        };
        Snapshot {
            model: "HeroGraph".into(),
            domains: [mk(Domain::A, &self.head_a), mk(Domain::B, &self.head_b)],
        }
    }
}

impl Module for HeroGraphModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for m in [
            self.global.params(),
            self.user_a.params(),
            self.item_a.params(),
            self.user_b.params(),
            self.item_b.params(),
            self.enc1.params(),
            self.enc2.params(),
            self.head_a.params(),
            self.head_b.params(),
        ] {
            p.extend(m);
        }
        p
    }
}

impl CdrModel for HeroGraphModel {
    fn name(&self) -> &'static str {
        "HeroGraph"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        self.forward(tape, domain, users, items)
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

impl FrozenModel for HeroGraphModel {
    /// Freezes afresh and publishes the snapshot `eval_scores` then
    /// scores through, so serving matches offline eval by construction.
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

    fn task(ratio: f64) -> Rc<CdrTask> {
        let mut cfg = Scenario::ClothSport.config(0.002);
        cfg.n_users_a = 80;
        cfg.n_users_b = 80;
        cfg.n_items_a = 40;
        cfg.n_items_b = 40;
        cfg.n_overlap = 30;
        let data = generate(&cfg).with_overlap_ratio(ratio, 3);
        let t = TaskConfig {
            eval_negatives: 30,
            ..Default::default()
        };
        CdrTask::build(data, t)
    }

    #[test]
    fn global_graph_bridges_domains_through_overlap() {
        let t = task(1.0);
        let m = HeroGraphModel::new(t.clone(), 8, 1);
        // an overlapped user's global node must touch items of BOTH domains
        let &(a, b) = t.dataset.overlap.first().unwrap();
        let gu = m.index.a_to_global[a as usize] as usize;
        assert_eq!(gu, m.index.b_to_global[b as usize] as usize);
        let n_users = m.index.n_global;
        let n_ia = t.split_a.n_items;
        let neighbors = m.adj.row_indices(gu);
        let has_a = neighbors
            .iter()
            .any(|&x| (x as usize) >= n_users && (x as usize) < n_users + n_ia);
        let has_b = neighbors.iter().any(|&x| (x as usize) >= n_users + n_ia);
        assert!(has_a && has_b, "overlapped user should bridge both domains");
    }

    #[test]
    fn forward_shape() {
        let m = HeroGraphModel::new(task(0.5), 8, 2);
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::B, &[0, 1], &[0, 1]);
        assert_eq!(tape.value(l).shape(), (2, 1));
    }

    #[test]
    fn eval_consistent_with_forward() {
        let mut m = HeroGraphModel::new(task(0.5), 8, 3);
        let users = [0u32, 2];
        let items = [1u32, 0];
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &users, &items);
        let tr = tape.value(l).data().to_vec();
        m.prepare_eval();
        let ev = m.eval_scores(Domain::A, &users, &items);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tr), bits(&ev));
    }

    #[test]
    fn trains_above_chance() {
        let mut m = HeroGraphModel::new(task(0.9), 8, 4);
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
