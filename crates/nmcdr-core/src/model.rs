//! The NMCDR model.

use crate::{ComplementCandidates, NmcdrConfig};
use nm_autograd::{Tape, Var};
use nm_graph::{sampling, Csr};
use nm_models::{CdrModel, CdrTask, Domain};
use nm_nn::{Activation, Embedding, GateFusion, Linear, Mlp, Module, Param};
use nm_obs::trace;
use nm_serve::{DomainSnapshot, FrozenModel, HeadKind, MlpHead, Snapshot};
use nm_tensor::rng::{Rng, SeedableRng, StdRng};
use nm_tensor::{Tensor, TensorRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Sampled/stateful structures for one domain, rebuilt per epoch when
/// `resample_each_epoch` is set.
struct DomainBridges {
    /// Intra head bridge (Eq. 8, `1/|N^head|` weights) + transpose.
    head: (Rc<Csr>, Rc<Csr>),
    /// Intra tail bridge.
    tail: (Rc<Csr>, Rc<Csr>),
    /// Inter `other` bridge Z ← Z̄ (Eq. 13) + transpose.
    other: (Rc<Csr>, Rc<Csr>),
    /// Complement candidate item ids, flattened `n_users * C`.
    comp_idx: Rc<Vec<u32>>,
}

/// Frozen per-stage user embeddings (Fig. 5's visualization input).
pub struct StageEmbeddings {
    /// `[domain A, domain B]` tables after the graph encoder.
    pub g1: [Tensor; 2],
    /// After intra node matching.
    pub g2: [Tensor; 2],
    /// After inter node matching.
    pub g3: [Tensor; 2],
    /// After intra node complementing.
    pub g4: [Tensor; 2],
}

/// All intermediate user tables of one full propagation.
struct Stages {
    g0: [Var; 2],
    g1: [Var; 2],
    g2: [Var; 2],
    g3: [Var; 2],
    g4: [Var; 2],
    items: [Var; 2],
}

/// NMCDR (paper §II). See the crate docs for the pipeline map.
pub struct NmcdrModel {
    task: Rc<CdrTask>,
    cfg: NmcdrConfig,
    user_emb: [Embedding; 2],
    item_emb: [Embedding; 2],
    /// Heterogeneous-encoder transforms, one per layer per domain.
    hge: [Vec<Linear>; 2],
    w_head: [Linear; 2],
    w_tail: [Linear; 2],
    gate_intra: [GateFusion; 2],
    w_self: [Linear; 2],
    w_other: [Linear; 2],
    /// Eq. 15 mixing matrices (bias-free).
    w_cross: [Linear; 2],
    gate_inter: [GateFusion; 2],
    w_ref: [Linear; 2],
    /// Shared prediction MLP per domain (companions reuse it, Eq. 21).
    pred: [Mlp; 2],
    /// Self-bridge gather maps (aligned foreign user, sentinel 0) and
    /// overlap masks.
    self_gather: [Rc<Vec<u32>>; 2],
    self_mask: [Tensor; 2],
    bridges: RefCell<[DomainBridges; 2]>,
    /// The g4 user tables, item tables and prediction MLPs that
    /// `eval_scores` scores through, which is also the snapshot
    /// `export_frozen` publishes.
    frozen: RefCell<Option<Snapshot>>,
    epoch_built: RefCell<Option<usize>>,
}

fn build_self_maps(n: usize, overlap: &[Option<u32>]) -> (Rc<Vec<u32>>, Tensor) {
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
}

/// One domain's parameter stack, created in a fixed order so the
/// shared RNG consumption (and therefore every initial weight) is
/// identical to older checkpoints.
struct DomainParams {
    user_emb: Embedding,
    item_emb: Embedding,
    hge: Vec<Linear>,
    w_head: Linear,
    w_tail: Linear,
    gate_intra: GateFusion,
    w_self: Linear,
    w_other: Linear,
    w_cross: Linear,
    gate_inter: GateFusion,
    w_ref: Linear,
    pred: Mlp,
}

impl DomainParams {
    fn new(
        n: &str,
        n_users: usize,
        n_items: usize,
        cfg: &NmcdrConfig,
        rng: &mut TensorRng,
    ) -> Self {
        let d = cfg.dim;
        Self {
            user_emb: Embedding::new(&format!("nmcdr.{n}.users"), n_users, d, 0.1, rng),
            item_emb: Embedding::new(&format!("nmcdr.{n}.items"), n_items, d, 0.1, rng),
            hge: (0..cfg.hge_layers)
                .map(|l| Linear::new(&format!("nmcdr.{n}.hge{l}"), d, d, rng))
                .collect(),
            w_head: Linear::new(&format!("nmcdr.{n}.w_head"), d, d, rng),
            w_tail: Linear::new(&format!("nmcdr.{n}.w_tail"), d, d, rng),
            gate_intra: GateFusion::new(&format!("nmcdr.{n}.gate_intra"), d, rng),
            w_self: Linear::new(&format!("nmcdr.{n}.w_self"), d, d, rng),
            w_other: Linear::new(&format!("nmcdr.{n}.w_other"), d, d, rng),
            w_cross: Linear::new_no_bias(&format!("nmcdr.{n}.w_cross"), d, d, rng),
            gate_inter: GateFusion::new(&format!("nmcdr.{n}.gate_inter"), d, rng),
            w_ref: Linear::new(&format!("nmcdr.{n}.w_ref"), d, d, rng),
            pred: Mlp::new(
                &format!("nmcdr.{n}.pred"),
                &[2 * d, d, 1],
                Activation::Relu,
                rng,
            ),
        }
    }
}

impl NmcdrModel {
    pub fn new(task: Rc<CdrTask>, cfg: NmcdrConfig) -> Self {
        // out-of-range knobs are clamped to their nearest legal value
        // instead of panicking deep inside a run
        let cfg = cfg.clamped();
        let mut rng = TensorRng::seed_from(cfg.seed);
        let n_users = [task.split_a.n_users, task.split_b.n_users];
        let n_items = [task.split_a.n_items, task.split_b.n_items];
        // Domain A's full stack is created before domain B's — the same
        // RNG order as always.
        let da = DomainParams::new("a", n_users[0], n_items[0], &cfg, &mut rng);
        let db = DomainParams::new("b", n_users[1], n_items[1], &cfg, &mut rng);
        let (sg_a, sm_a) = build_self_maps(n_users[0], &task.overlap_a_to_b);
        let (sg_b, sm_b) = build_self_maps(n_users[1], &task.overlap_b_to_a);
        let bridges = RefCell::new(Self::build_bridges(&task, &cfg, 0));
        Self {
            user_emb: [da.user_emb, db.user_emb],
            item_emb: [da.item_emb, db.item_emb],
            hge: [da.hge, db.hge],
            w_head: [da.w_head, db.w_head],
            w_tail: [da.w_tail, db.w_tail],
            gate_intra: [da.gate_intra, db.gate_intra],
            w_self: [da.w_self, db.w_self],
            w_other: [da.w_other, db.w_other],
            w_cross: [da.w_cross, db.w_cross],
            gate_inter: [da.gate_inter, db.gate_inter],
            w_ref: [da.w_ref, db.w_ref],
            pred: [da.pred, db.pred],
            self_gather: [sg_a, sg_b],
            self_mask: [sm_a, sm_b],
            bridges,
            frozen: RefCell::new(None),
            epoch_built: RefCell::new(Some(0)),
            task,
            cfg,
        }
    }

    pub fn config(&self) -> &NmcdrConfig {
        &self.cfg
    }

    /// Weight of heterogeneous-encoder layer `l` of domain `z`
    /// (stability analysis, §II-H).
    pub fn hge_weight(&self, z: usize, l: usize) -> nm_tensor::Tensor {
        self.hge[z][l].weight().value()
    }

    /// The head-bridge matching transform `W_head` of domain `z`.
    pub fn head_weight(&self, z: usize) -> nm_tensor::Tensor {
        self.w_head[z].weight().value()
    }

    /// The tail-bridge matching transform `W_tail` of domain `z`.
    pub fn tail_weight(&self, z: usize) -> nm_tensor::Tensor {
        self.w_tail[z].weight().value()
    }

    /// First prediction-MLP weight of domain `z`.
    pub fn pred_first_weight(&self, z: usize) -> nm_tensor::Tensor {
        self.pred[z].layer(0).weight().value()
    }

    fn build_bridges(task: &CdrTask, cfg: &NmcdrConfig, epoch: usize) -> [DomainBridges; 2] {
        let _sp = trace::span("stage.resample");
        let seed = cfg.seed ^ ((epoch as u64) << 17);
        let mk = |domain: Domain| -> DomainBridges {
            let (partition, split, foreign_pool, n_foreign) = match domain {
                Domain::A => (
                    &task.partition_a,
                    &task.split_a,
                    &task.non_overlap_b,
                    task.split_b.n_users,
                ),
                Domain::B => (
                    &task.partition_b,
                    &task.split_b,
                    &task.non_overlap_a,
                    task.split_a.n_users,
                ),
            };
            let z = domain.index() as u64;
            let intra = sampling::build_intra(partition, cfg.match_neighbors, seed ^ (z + 1));
            let overlap_map = match domain {
                Domain::A => &task.overlap_a_to_b,
                Domain::B => &task.overlap_b_to_a,
            };
            let inter = sampling::build_inter(
                split.n_users,
                n_foreign,
                overlap_map,
                foreign_pool,
                cfg.match_neighbors,
                seed ^ (z + 11),
            );
            let comp_idx =
                Self::build_complement_candidates(split, &cfg.complement, seed ^ (z + 21));
            let rc = |c: Csr| {
                let t = c.transpose();
                (Rc::new(c), Rc::new(t))
            };
            DomainBridges {
                head: rc(intra.head_bridge),
                tail: rc(intra.tail_bridge),
                other: rc(inter.other_bridge),
                comp_idx: Rc::new(comp_idx),
            }
        };
        [mk(Domain::A), mk(Domain::B)]
    }

    /// Builds the flattened `n_users * C` complement candidate list.
    fn build_complement_candidates(
        split: &nm_data::SplitDomain,
        cc: &ComplementCandidates,
        seed: u64,
    ) -> Vec<u32> {
        let by_user = split.train_by_user();
        let n_items = split.n_items;
        let mut rng = StdRng::seed_from_u64(seed);
        let (total, max_obs) = match *cc {
            ComplementCandidates::ObservedPlusSampled {
                total,
                max_observed,
            } => (total, max_observed),
            ComplementCandidates::ObservedOnly { max_observed } => (max_observed, max_observed),
        };
        let sample_missing = matches!(cc, ComplementCandidates::ObservedPlusSampled { .. });
        // Bitset of the current user's items and candidates: set before
        // the draws, cleared after, so one buffer serves every user.
        let mut taken = vec![0u64; n_items.div_ceil(64)];
        let bit = |i: u32| (i as usize / 64, 1u64 << (i % 64));
        let mut out = Vec::with_capacity(split.n_users * total);
        for items in &by_user {
            let mut cands: Vec<u32> = items.iter().take(max_obs).copied().collect();
            if cands.is_empty() {
                // isolated user: seed with a random item so softmax is defined
                cands.push(rng.gen_range(0..n_items) as u32);
            }
            if sample_missing {
                for &i in items.iter().chain(&cands) {
                    let (w, b) = bit(i);
                    taken[w] |= b;
                }
                let mut guard = 0;
                while cands.len() < total && guard < total * 30 {
                    guard += 1;
                    let j = rng.gen_range(0..n_items) as u32;
                    let (w, b) = bit(j);
                    if taken[w] & b == 0 {
                        taken[w] |= b;
                        cands.push(j);
                    }
                }
                for &i in items.iter().chain(&cands) {
                    taken[bit(i).0] = 0;
                }
            }
            // pad cyclically to the fixed width C
            let mut k = 0;
            while cands.len() < total {
                cands.push(cands[k % cands.len().max(1)]);
                k += 1;
            }
            out.extend_from_slice(&cands);
        }
        out
    }

    /// Heterogeneous graph encoder (Eq. 2–4): per layer,
    /// `U' = ReLU(U W + Â_ui (V W))`, `V' = ReLU(V W + Â_iu (U W))`.
    fn hge_forward(&self, tape: &mut Tape, z: usize, mut u: Var, mut v: Var) -> (Var, Var) {
        let (ui, ui_t, iu, iu_t) = match z {
            0 => (
                &self.task.ui_norm_a,
                &self.task.ui_norm_a_t,
                &self.task.iu_norm_a,
                &self.task.iu_norm_a_t,
            ),
            _ => (
                &self.task.ui_norm_b,
                &self.task.ui_norm_b_t,
                &self.task.iu_norm_b,
                &self.task.iu_norm_b_t,
            ),
        };
        for layer in &self.hge[z] {
            let uw = layer.forward(tape, u);
            let vw = layer.forward(tape, v);
            let u_agg = tape.spmm(Rc::clone(ui), Rc::clone(ui_t), vw);
            let u_sum = tape.add(uw, u_agg);
            let u_next = tape.relu(u_sum);
            let v_agg = tape.spmm(Rc::clone(iu), Rc::clone(iu_t), uw);
            let v_sum = tape.add(vw, v_agg);
            let v_next = tape.relu(v_sum);
            u = u_next;
            v = v_next;
        }
        (u, v)
    }

    /// Intra node matching (Eq. 5–11).
    fn intra_forward(&self, tape: &mut Tape, z: usize, x: Var) -> Var {
        let bridges = self.bridges.borrow();
        let b = &bridges[z];
        let th = self.w_head[z].forward(tape, x);
        let mh = tape.spmm(Rc::clone(&b.head.0), Rc::clone(&b.head.1), th);
        let uh = tape.relu(mh);
        let tt = self.w_tail[z].forward(tape, x);
        let mt = tape.spmm(Rc::clone(&b.tail.0), Rc::clone(&b.tail.1), tt);
        let ut = tape.relu(mt);
        let fused = if self.cfg.ablation.gate_off {
            let s = tape.add(uh, ut);
            tape.tanh(s)
        } else {
            self.gate_intra[z].forward(tape, uh, ut)
        };
        tape.add(fused, x)
    }

    /// Inter node matching (Eq. 12–17). `x_own`/`x_other` are the g2
    /// tables of this and the other domain.
    fn inter_forward(&self, tape: &mut Tape, z: usize, x_own: Var, x_other: Var) -> Var {
        let bridges = self.bridges.borrow();
        let b = &bridges[z];
        // self bridge (overlapped users only, masked)
        let t_self = self.w_self[z].forward(tape, x_other);
        let gathered = tape.gather_rows(t_self, Rc::clone(&self.self_gather[z]));
        let act = tape.relu(gathered);
        let mask = tape.constant(self.self_mask[z].clone());
        let u_self = tape.mul(act, mask);
        // other bridge (sampled non-overlapped foreign users)
        let t_other = self.w_other[z].forward(tape, x_other);
        let m_other = tape.spmm(Rc::clone(&b.other.0), Rc::clone(&b.other.1), t_other);
        let u_other = tape.relu(m_other);
        // Eq. 15: u* = u_g2 W_cross^Z + u_self (1 - W_cross^Z̄)
        let t1 = self.w_cross[z].forward(tape, x_own);
        let t2w = self.w_cross[1 - z].forward(tape, u_self);
        let t2 = tape.sub(u_self, t2w);
        let g3_star = tape.add(t1, t2);
        // Eq. 16 gate with the non-overlapped message
        let gated = if self.cfg.ablation.gate_off {
            let s = tape.add(g3_star, u_other);
            tape.tanh(s)
        } else {
            self.gate_inter[z].forward(tape, g3_star, u_other)
        };
        // Eq. 17 residual
        tape.add(gated, x_own)
    }

    /// Intra node complementing (Eq. 18–19): virtual-link attention over
    /// the candidate items, `inc_layers` passes.
    fn complement_forward(&self, tape: &mut Tape, z: usize, mut x: Var, v0: Var) -> Var {
        let bridges = self.bridges.borrow();
        let idx = &bridges[z].comp_idx;
        for _ in 0..self.cfg.inc_layers {
            let agg = tape.attend_rows(x, v0, Rc::clone(idx)); // N x D
            let transformed = self.w_ref[z].forward(tape, agg);
            x = tape.add(x, transformed);
        }
        x
    }

    /// Full propagation producing every stage's user tables.
    fn propagate(&self, tape: &mut Tape) -> Stages {
        let ab = &self.cfg.ablation;
        let u0: [Var; 2] = [self.user_emb[0].full(tape), self.user_emb[1].full(tape)];
        let v0: [Var; 2] = [self.item_emb[0].full(tape), self.item_emb[1].full(tape)];
        let mut g1 = [u0[0], u0[1]];
        {
            let _sp = trace::span("stage.encoder");
            for z in 0..2 {
                let (u, _) = self.hge_forward(tape, z, u0[z], v0[z]);
                g1[z] = u;
            }
        }
        // Intra-to-inter matching, `matching_layers` recurrent passes
        // (paper §III-A-4 uses 3 aggregation layers in this module).
        // g2 records the state after the LAST intra pass, g3 after the
        // last inter pass — the stages the companion objectives attach to.
        let mut g2 = g1;
        let mut g3 = g1;
        let mut cur = g1;
        for _ in 0..self.cfg.matching_layers {
            if !ab.no_intra_matching {
                let _sp = trace::span("stage.intra_matching");
                for (z, c) in cur.iter_mut().enumerate() {
                    *c = self.intra_forward(tape, z, *c);
                }
            }
            g2 = cur;
            if !ab.no_inter_matching {
                let _sp = trace::span("stage.inter_matching");
                let n0 = self.inter_forward(tape, 0, cur[0], cur[1]);
                let n1 = self.inter_forward(tape, 1, cur[1], cur[0]);
                cur = [n0, n1];
            }
            g3 = cur;
        }
        let mut g4 = g3;
        if !ab.no_complementing {
            let _sp = trace::span("stage.complementing");
            for z in 0..2 {
                g4[z] = self.complement_forward(tape, z, g3[z], v0[z]);
            }
        }
        Stages {
            g0: u0,
            g1,
            g2,
            g3,
            g4,
            items: v0,
        }
    }

    /// Shared prediction layer (Eq. 20) on gathered pairs.
    fn predict(
        &self,
        tape: &mut Tape,
        z: usize,
        user_table: Var,
        item_table: Var,
        users: Rc<Vec<u32>>,
        items: Rc<Vec<u32>>,
    ) -> Var {
        let u = tape.gather_rows(user_table, users);
        let v = tape.gather_rows(item_table, items);
        let x = tape.concat_cols(u, v);
        self.pred[z].forward(tape, x)
    }

    /// Statically verifies the matching-pipeline shape invariants of
    /// Eq. 5–19 on a fresh probe tape: every user stage must keep shape
    /// `(n_users_z, dim)` — the gate (Eq. 8/16) and residual (Eq. 11/17)
    /// structure of intra/inter matching is only well-formed when a
    /// stage's input and output agree — and the complementing attention
    /// (Eq. 18–19), one `attend_rows` op over each user's candidate
    /// items, must return the users' shape. Item tables must stay
    /// `(n_items_z, dim)`. Returns one message per violated invariant;
    /// `nmcdr check` surfaces them as diagnostics.
    pub fn check_stage_invariants(&self) -> Vec<String> {
        let mut tape = Tape::new();
        let s = self.propagate(&mut tape);
        let d = self.cfg.dim;
        let n_users = [self.task.split_a.n_users, self.task.split_b.n_users];
        let n_items = [self.task.split_a.n_items, self.task.split_b.n_items];
        let mut out = Vec::new();
        let stages: [(&str, &[Var; 2]); 5] = [
            ("g0 embeddings (Eq. 2)", &s.g0),
            ("g1 encoder (Eq. 3-4)", &s.g1),
            ("g2 intra matching (Eq. 5-11)", &s.g2),
            ("g3 inter matching (Eq. 12-17)", &s.g3),
            ("g4 complementing attention (Eq. 18-19)", &s.g4),
        ];
        for (name, vs) in stages {
            for (z, &nu) in n_users.iter().enumerate() {
                let got = tape.value(vs[z]).shape();
                let want = (nu, d);
                if got != want {
                    out.push(format!(
                        "{name} domain {z}: shape {}x{}, invariant requires {}x{}",
                        got.0, got.1, want.0, want.1
                    ));
                }
            }
        }
        for (z, &ni) in n_items.iter().enumerate() {
            let got = tape.value(s.items[z]).shape();
            let want = (ni, d);
            if got != want {
                out.push(format!(
                    "item table domain {z}: shape {}x{}, invariant requires {}x{}",
                    got.0, got.1, want.0, want.1
                ));
            }
        }
        out
    }

    /// Per-stage user embeddings with gradients detached (Fig. 5).
    pub fn stage_embeddings(&self) -> StageEmbeddings {
        let mut tape = Tape::new();
        let s = self.propagate(&mut tape);
        let take = |v: &[Var; 2]| [tape.value(v[0]).clone(), tape.value(v[1]).clone()];
        StageEmbeddings {
            g1: take(&s.g1),
            g2: take(&s.g2),
            g3: take(&s.g3),
            g4: take(&s.g4),
        }
    }
}

impl Module for NmcdrModel {
    fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for z in 0..2 {
            p.extend(self.user_emb[z].params());
            p.extend(self.item_emb[z].params());
            for l in &self.hge[z] {
                p.extend(l.params());
            }
            p.extend(self.w_head[z].params());
            p.extend(self.w_tail[z].params());
            p.extend(self.gate_intra[z].params());
            p.extend(self.w_self[z].params());
            p.extend(self.w_other[z].params());
            p.extend(self.w_cross[z].params());
            p.extend(self.gate_inter[z].params());
            p.extend(self.w_ref[z].params());
            p.extend(self.pred[z].params());
        }
        p
    }
}

impl NmcdrModel {
    /// Runs the full propagation once and freezes the g4 user tables,
    /// the item tables and the shared prediction MLPs (Eq. 20). Takes
    /// `&self`, so `eval_scores` can freeze a missing snapshot itself.
    fn freeze(&self) -> Snapshot {
        let mut tape = Tape::new();
        let s = self.propagate(&mut tape);
        let mk = |z: usize| DomainSnapshot {
            users: tape.value(s.g4[z]).clone(),
            items: tape.value(s.items[z]).clone(),
            head: HeadKind::Mlp(MlpHead::from_mlp(&self.pred[z])),
        };
        Snapshot {
            model: "NMCDR".into(),
            domains: [mk(0), mk(1)],
        }
    }
}

impl CdrModel for NmcdrModel {
    fn name(&self) -> &'static str {
        "NMCDR"
    }

    fn task(&self) -> &Rc<CdrTask> {
        &self.task
    }

    fn begin_epoch(&mut self, epoch: usize) {
        if self.cfg.resample_each_epoch && *self.epoch_built.borrow() != Some(epoch) {
            *self.bridges.borrow_mut() = Self::build_bridges(&self.task, &self.cfg, epoch);
            *self.epoch_built.borrow_mut() = Some(epoch);
        }
    }

    /// Eq. 22–24: companion BCE at every stage through the shared
    /// prediction layer, plus the final prediction loss, both domains.
    fn loss(
        &self,
        tape: &mut Tape,
        batch_a: &nm_data::batch::Batch,
        batch_b: &nm_data::batch::Batch,
        _step: u64,
    ) -> Var {
        let w = &self.cfg.loss_weights;
        let stages = self.propagate(tape);
        let mut total: Option<Var> = None;
        let add = |tape: &mut Tape, total: &mut Option<Var>, term: Var, weight: f32| {
            if weight == 0.0 {
                return;
            }
            let t = if weight == 1.0 {
                term
            } else {
                tape.scale(term, weight)
            };
            *total = Some(match *total {
                Some(acc) => tape.add(acc, t),
                None => t,
            });
        };
        for (z, batch) in [(0usize, batch_a), (1usize, batch_b)] {
            let users = Rc::new(batch.users.clone());
            let items = Rc::new(batch.items.clone());
            let targets = nm_models::common::label_tensor(&batch.labels);
            let dom = if z == 0 { "a" } else { "b" };
            let co_weight = if z == 0 { w[4] } else { w[5] };
            if !self.cfg.ablation.no_companion && co_weight != 0.0 {
                // Companion objectives Eq. 21–24 attach to stages
                // g0 (embeddings) / g1 (encoder) / g2 (intra) / g3
                // (inter); each component is recorded *unweighted* so
                // telemetry shows which stage's objective moves.
                for (stage_table, wi, stage_name) in [
                    (stages.g0[z], w[0], "embed"),
                    (stages.g1[z], w[1], "encoder"),
                    (stages.g2[z], w[2], "intra"),
                    (stages.g3[z], w[3], "inter"),
                ] {
                    if wi == 0.0 {
                        continue;
                    }
                    let logits = self.predict(
                        tape,
                        z,
                        stage_table,
                        stages.items[z],
                        Rc::clone(&users),
                        Rc::clone(&items),
                    );
                    let l = tape.bce_with_logits_mean(logits, Rc::clone(&targets));
                    if trace::enabled() {
                        trace::value(
                            &format!("loss.companion.{stage_name}.{dom}"),
                            tape.value(l).item() as f64,
                        );
                    }
                    add(tape, &mut total, l, wi * co_weight);
                }
            }
            let cls_weight = if z == 0 { w[6] } else { w[7] };
            let logits = self.predict(
                tape,
                z,
                stages.g4[z],
                stages.items[z],
                Rc::clone(&users),
                Rc::clone(&items),
            );
            let l = tape.bce_with_logits_mean(logits, targets);
            if trace::enabled() {
                trace::value(&format!("loss.final.{dom}"), tape.value(l).item() as f64);
            }
            add(tape, &mut total, l, cls_weight);
        }
        // every loss weight zero: a constant zero loss (and zero
        // gradients) rather than a panic
        total.unwrap_or_else(|| tape.constant(Tensor::zeros(1, 1)))
    }

    fn forward_logits(&self, tape: &mut Tape, domain: Domain, users: &[u32], items: &[u32]) -> Var {
        let z = domain.index();
        let stages = self.propagate(tape);
        self.predict(
            tape,
            z,
            stages.g4[z],
            stages.items[z],
            Rc::new(users.to_vec()),
            Rc::new(items.to_vec()),
        )
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

impl FrozenModel for NmcdrModel {
    /// Freezes afresh and publishes the snapshot `eval_scores` then
    /// scores through, so the serving engine matches offline evaluation
    /// by construction.
    fn export_frozen(&mut self) -> Snapshot {
        let snap = self.freeze();
        *self.frozen.get_mut() = Some(snap.clone());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_data::{generate::generate, Scenario};
    use nm_models::task::TaskConfig;
    use nm_models::train::{train_joint, TrainConfig};

    fn tiny_task(ratio: f64) -> Rc<CdrTask> {
        let mut cfg = Scenario::ClothSport.config(0.002);
        cfg.n_users_a = 90;
        cfg.n_users_b = 95;
        cfg.n_items_a = 45;
        cfg.n_items_b = 50;
        cfg.n_overlap = 35;
        let data = generate(&cfg).with_overlap_ratio(ratio, 3);
        let t = TaskConfig {
            eval_negatives: 40,
            ..Default::default()
        };
        CdrTask::build(data, t)
    }

    fn small_cfg() -> NmcdrConfig {
        NmcdrConfig {
            dim: 8,
            match_neighbors: 16,
            ..Default::default()
        }
    }

    #[test]
    fn forward_shapes_all_stages() {
        let m = NmcdrModel::new(tiny_task(0.5), small_cfg());
        let mut tape = Tape::new();
        let s = m.propagate(&mut tape);
        for z in 0..2 {
            let n = m.task.n_users(if z == 0 { Domain::A } else { Domain::B });
            for v in [s.g0[z], s.g1[z], s.g2[z], s.g3[z], s.g4[z]] {
                assert_eq!(tape.value(v).shape(), (n, 8));
                assert!(tape.value(v).all_finite());
            }
        }
    }

    #[test]
    fn loss_is_finite_and_backprops_to_all_param_groups() {
        let m = NmcdrModel::new(tiny_task(0.5), small_cfg());
        let batch = nm_data::batch::Batch {
            users: vec![0, 1, 2, 3],
            items: vec![0, 1, 2, 3],
            labels: vec![1.0, 0.0, 1.0, 0.0],
        };
        let mut tape = Tape::new();
        let l = m.loss(&mut tape, &batch, &batch, 0);
        assert!(tape.value(l).item().is_finite());
        tape.backward(l);
        nm_nn::absorb_all(&m, &tape);
        // every named component must receive gradient signal
        for needle in [
            "users",
            "items",
            "hge0",
            "w_head",
            "w_tail",
            "gate_intra",
            "w_self",
            "w_other",
            "w_cross",
            "gate_inter",
            "w_ref",
            "pred",
        ] {
            let got: f32 = m
                .params()
                .iter()
                .filter(|p| p.name().contains(needle))
                .map(|p| p.grad_norm_sq())
                .sum();
            assert!(got > 0.0, "no gradient reached {needle}");
        }
    }

    #[test]
    fn ablations_change_node_counts() {
        let task = tiny_task(0.5);
        let full = NmcdrModel::new(task.clone(), small_cfg());
        let mut no_igm_cfg = small_cfg();
        no_igm_cfg.ablation.no_intra_matching = true;
        let no_igm = NmcdrModel::new(task.clone(), no_igm_cfg);
        let mut t1 = Tape::new();
        let _ = full.propagate(&mut t1);
        let mut t2 = Tape::new();
        let _ = no_igm.propagate(&mut t2);
        assert!(t2.len() < t1.len(), "ablation should shrink the graph");
    }

    #[test]
    fn no_companion_reduces_loss_terms() {
        let task = tiny_task(0.5);
        let batch = nm_data::batch::Batch {
            users: vec![0, 1],
            items: vec![0, 1],
            labels: vec![1.0, 0.0],
        };
        let full = NmcdrModel::new(task.clone(), small_cfg());
        let mut cfg = small_cfg();
        cfg.ablation.no_companion = true;
        let wo = NmcdrModel::new(task, cfg);
        let mut t1 = Tape::new();
        let l1 = full.loss(&mut t1, &batch, &batch, 0);
        let mut t2 = Tape::new();
        let l2 = wo.loss(&mut t2, &batch, &batch, 0);
        // the companioned loss has more BCE terms, so (with equal weights)
        // its value is strictly larger at init
        assert!(t1.value(l1).item() > t2.value(l2).item());
    }

    #[test]
    fn zero_overlap_still_trains() {
        let mut m = NmcdrModel::new(tiny_task(0.0), small_cfg());
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 2,
                lr: 5e-3,
                batch_size: 256,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.logs.iter().all(|l| l.mean_loss.is_finite()));
        assert!(stats.final_a.n_users > 0);
    }

    #[test]
    fn trains_above_chance() {
        let mut m = NmcdrModel::new(tiny_task(0.9), small_cfg());
        let stats = train_joint(
            &mut m,
            &TrainConfig {
                epochs: 5,
                lr: 5e-3,
                batch_size: 512,
                ..Default::default()
            },
        )
        .expect("training");
        assert!(stats.final_a.auc > 0.52, "AUC {}", stats.final_a.auc);
        assert!(stats.final_b.auc > 0.52, "AUC {}", stats.final_b.auc);
    }

    #[test]
    fn stage_embeddings_have_expected_shapes() {
        let m = NmcdrModel::new(tiny_task(0.5), small_cfg());
        let s = m.stage_embeddings();
        assert_eq!(s.g1[0].shape(), (90, 8));
        assert_eq!(s.g4[1].shape(), (95, 8));
    }

    #[test]
    fn eval_scores_match_forward_logits() {
        let mut m = NmcdrModel::new(tiny_task(0.5), small_cfg());
        let users = [0u32, 4];
        let items = [2u32, 3];
        let mut tape = Tape::new();
        let l = m.forward_logits(&mut tape, Domain::A, &users, &items);
        let fwd = tape.value(l).data().to_vec();
        m.prepare_eval();
        let ev = m.eval_scores(Domain::A, &users, &items);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fwd), bits(&ev));
    }

    #[test]
    fn complement_candidates_width_is_constant() {
        let task = tiny_task(0.5);
        let idx = NmcdrModel::build_complement_candidates(
            &task.split_a,
            &ComplementCandidates::ObservedPlusSampled {
                total: 12,
                max_observed: 6,
            },
            7,
        );
        assert_eq!(idx.len(), task.split_a.n_users * 12);
        assert!(idx.iter().all(|&i| (i as usize) < task.split_a.n_items));
    }

    #[test]
    fn resampling_changes_bridges_between_epochs() {
        // The head pool can be smaller than the sampling budget (then the
        // head bridge is deterministically "everyone"), so check the three
        // stochastic structures together: at least one must change.
        let mut m = NmcdrModel::new(tiny_task(0.5), small_cfg());
        let before = {
            let b = m.bridges.borrow();
            (
                b[0].head.0.as_ref().clone(),
                b[0].tail.0.as_ref().clone(),
                b[0].comp_idx.as_ref().clone(),
            )
        };
        m.begin_epoch(1);
        let b = m.bridges.borrow();
        let changed =
            *b[0].head.0 != before.0 || *b[0].tail.0 != before.1 || *b[0].comp_idx != before.2;
        assert!(changed, "no sampled structure changed across epochs");
    }

    /// One domain's sampled structures as the edge-list build made them:
    /// rows drawn into their own `Vec`s and built by `Csr::from_edges`,
    /// and complement candidates checked against a `HashSet` per user.
    mod edge_list_build {
        use super::*;
        use nm_tensor::rng::seq::index::sample as index_sample;

        fn rows(pool: &[u32], exclude: u32, count: usize, rng: &mut StdRng) -> Vec<u32> {
            if pool.is_empty() || count == 0 {
                return Vec::new();
            }
            if pool.len() <= count {
                return pool.iter().copied().filter(|&x| x != exclude).collect();
            }
            let want = (count + 1).min(pool.len());
            let mut picked: Vec<u32> = index_sample(rng, pool.len(), want)
                .into_iter()
                .map(|i| pool[i])
                .filter(|&x| x != exclude)
                .collect();
            picked.truncate(count);
            picked
        }

        fn bridge(n_rows: usize, n_cols: usize, rows: Vec<Vec<u32>>) -> Csr {
            let mut edges = Vec::new();
            for (u, neigh) in rows.into_iter().enumerate() {
                if neigh.is_empty() {
                    continue;
                }
                let w = 1.0 / neigh.len() as f32;
                for v in neigh {
                    edges.push((u as u32, v, w));
                }
            }
            Csr::from_edges(n_rows, n_cols, &edges)
        }

        pub fn candidates(
            split: &nm_data::SplitDomain,
            cc: &ComplementCandidates,
            seed: u64,
        ) -> Vec<u32> {
            let by_user = split.train_by_user();
            let n_items = split.n_items;
            let mut rng = StdRng::seed_from_u64(seed);
            let (total, max_obs) = match *cc {
                ComplementCandidates::ObservedPlusSampled {
                    total,
                    max_observed,
                } => (total, max_observed),
                ComplementCandidates::ObservedOnly { max_observed } => (max_observed, max_observed),
            };
            let sample_missing = matches!(cc, ComplementCandidates::ObservedPlusSampled { .. });
            let mut out = Vec::with_capacity(split.n_users * total);
            for items in &by_user {
                let mut cands: Vec<u32> = items.iter().take(max_obs).copied().collect();
                if cands.is_empty() {
                    cands.push(rng.gen_range(0..n_items) as u32);
                }
                if sample_missing {
                    let known: std::collections::HashSet<u32> = items.iter().copied().collect();
                    let mut guard = 0;
                    while cands.len() < total && guard < total * 30 {
                        guard += 1;
                        let j = rng.gen_range(0..n_items) as u32;
                        if !known.contains(&j) && !cands.contains(&j) {
                            cands.push(j);
                        }
                    }
                }
                let mut k = 0;
                while cands.len() < total {
                    cands.push(cands[k % cands.len().max(1)]);
                    k += 1;
                }
                out.extend_from_slice(&cands);
            }
            out
        }

        /// `[head, tail, other]` bridges and the complement list.
        pub fn domain(
            task: &CdrTask,
            cfg: &NmcdrConfig,
            epoch: usize,
            domain: Domain,
        ) -> ([Csr; 3], Vec<u32>) {
            let seed = cfg.seed ^ ((epoch as u64) << 17);
            let (partition, split, pool, n_foreign) = match domain {
                Domain::A => (
                    &task.partition_a,
                    &task.split_a,
                    &task.non_overlap_b,
                    task.split_b.n_users,
                ),
                Domain::B => (
                    &task.partition_b,
                    &task.split_b,
                    &task.non_overlap_a,
                    task.split_a.n_users,
                ),
            };
            let z = domain.index() as u64;
            let k = cfg.match_neighbors;
            let n = partition.n_users();
            let mut rng = StdRng::seed_from_u64(seed ^ (z + 1));
            let (mut head, mut tail) = (Vec::new(), Vec::new());
            for u in 0..n as u32 {
                head.push(rows(partition.head_users(), u, k, &mut rng));
                tail.push(rows(partition.tail_users(), u, k, &mut rng));
            }
            let mut rng = StdRng::seed_from_u64(seed ^ (z + 11));
            let other = (0..split.n_users)
                .map(|_| rows(pool, u32::MAX, k, &mut rng))
                .collect();
            (
                [
                    bridge(n, n, head),
                    bridge(n, n, tail),
                    bridge(split.n_users, n_foreign, other),
                ],
                candidates(split, &cfg.complement, seed ^ (z + 21)),
            )
        }
    }

    fn assert_same_csr(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(got, want, "{what}");
        let bits = |c: &Csr| -> Vec<u32> {
            (0..c.n_rows())
                .flat_map(|r| c.row_values(r).iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    #[test]
    fn resampled_structures_match_the_edge_list_build() {
        let complements = [
            ComplementCandidates::default(),
            ComplementCandidates::ObservedOnly { max_observed: 8 },
        ];
        for scenario in [Scenario::ClothSport, Scenario::PhoneElec] {
            let data = generate(&scenario.config(0.004));
            let task = CdrTask::build(data, TaskConfig::default());
            // users with no training item take the isolated-user branch
            let mut isolated = task.split_a.clone();
            isolated.train.retain(|&(u, _)| u % 7 != 0);
            for complement in complements {
                let cfg = NmcdrConfig {
                    complement,
                    ..Default::default()
                };
                for epoch in 0..4 {
                    let got = NmcdrModel::build_bridges(&task, &cfg, epoch);
                    for domain in [Domain::A, Domain::B] {
                        let what = format!("{scenario:?} {complement:?} epoch {epoch} {domain:?}");
                        let (want, comp) = edge_list_build::domain(&task, &cfg, epoch, domain);
                        let b = &got[domain.index()];
                        for ((name, (bridge, transpose)), want) in
                            [("head", &b.head), ("tail", &b.tail), ("other", &b.other)]
                                .into_iter()
                                .zip(&want)
                        {
                            assert_same_csr(bridge, want, &format!("{name} {what}"));
                            assert_same_csr(
                                transpose,
                                &want.transpose(),
                                &format!("{name}ᵀ {what}"),
                            );
                        }
                        assert_eq!(*b.comp_idx, comp, "complement {what}");
                    }
                    let seed = cfg.seed ^ epoch as u64;
                    assert_eq!(
                        NmcdrModel::build_complement_candidates(&isolated, &complement, seed),
                        edge_list_build::candidates(&isolated, &complement, seed),
                        "isolated users, {scenario:?} {complement:?} epoch {epoch}"
                    );
                }
            }
        }
    }
}
