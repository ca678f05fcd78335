//! Frozen-model snapshots: the serving-side artifact format.
//!
//! A snapshot holds everything needed to answer scoring requests with
//! no autograd tape and no graph propagation: per-domain user and item
//! embedding tables frozen *after* propagation (so GNN models export
//! their propagated tables) plus the prediction head — either a plain
//! dot product or the model's prediction MLP.
//!
//! Binary layout (`NMSS`, little-endian, versioned alongside `NMCK`):
//!
//! ```text
//! magic   "NMSS"            4 bytes
//! version u32               (currently 1)
//! model   u32 len + bytes   (UTF-8 model name)
//! 2 x domain:
//!   users  tensor           (rows u32, cols u32, f32 data)
//!   items  tensor
//!   head   u32              0 = dot, 1 = mlp
//!   if mlp:
//!     act      u32          0 relu, 1 tanh, 2 sigmoid, 3 none
//!     n_layers u32
//!     per layer: W tensor, has_bias u32, [bias tensor]
//! ```
//!
//! Scoring has one function per head, [`HeadKind::score_pairs`], and
//! offline eval, the engine's shards and the wire `score` request all
//! call it, so offline/online parity holds by construction. The dot
//! head is one sequential `Iterator::sum` dot per pair. The MLP head
//! scores each run of equal consecutive user ids together, and
//! [`Snapshot::score_user_range`] scores its item range as one run.
//! Layer 1 is two products through [`nm_tensor::matmul_from`], the
//! training kernel: the user's prefix `P = u · W1[..du]`, once per run,
//! then the run's item rows, read in place by id, each output starting
//! at `P`. Those are the additions, in the same order, of one product
//! over the concatenated row `[u ‖ v]`, which is never built. The bias
//! is added as `acc + b`, then the activation, and the other layers run
//! as [`Tensor::matmul`]: the ops and operand order of
//! `nm_nn::Mlp::forward` on the training tape, so the bits are the same.
//! A dot head's shard uses [`nm_tensor::vecmat_nt_blocked`], the same
//! sequential dot.

use nm_nn::checkpoint::{read_tensor, read_u32, write_tensor, write_u32, CheckpointError};
use nm_nn::Activation;
use nm_tensor::{matmul_from, sigmoid_scalar, vecmat_nt_blocked, Tensor};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"NMSS";
const VERSION: u32 = 1;

/// A prediction MLP frozen as plain weight/bias tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpHead {
    /// `(W, bias)` per layer; `W` is `in x out`, bias `1 x out`.
    pub layers: Vec<(Tensor, Option<Tensor>)>,
    /// Activation between hidden layers (never after the last).
    pub hidden_act: Activation,
}

/// How a domain's `(user, item)` affinity is computed.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadKind {
    /// `score = u · v` (matrix-factorization models).
    Dot,
    /// `score = MLP(u ‖ v)` (NMCDR and the GNN baselines).
    Mlp(MlpHead),
}

/// Frozen tables + head for one domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSnapshot {
    pub users: Tensor,
    pub items: Tensor,
    pub head: HeadKind,
}

/// A complete serving artifact for a two-domain CDR model.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Model name (e.g. "NMCDR", "BPR") for observability.
    pub model: String,
    pub domains: [DomainSnapshot; 2],
}

/// Trained models that can export a [`Snapshot`].
///
/// Takes `&mut self` because exporting runs the model's own
/// `prepare_eval`-style propagation to freeze post-propagation tables.
pub trait FrozenModel {
    fn export_frozen(&mut self) -> Snapshot;
}

fn act_tag(a: Activation) -> u32 {
    match a {
        Activation::Relu => 0,
        Activation::Tanh => 1,
        Activation::Sigmoid => 2,
        Activation::None => 3,
    }
}

fn act_from_tag(t: u32) -> Result<Activation, CheckpointError> {
    Ok(match t {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        2 => Activation::Sigmoid,
        3 => Activation::None,
        _ => return Err(CheckpointError::Format(format!("unknown activation {t}"))),
    })
}

fn apply_act(act: Activation, xs: &mut [f32]) {
    match act {
        Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
        Activation::Tanh => xs.iter_mut().for_each(|x| *x = x.tanh()),
        Activation::Sigmoid => xs.iter_mut().for_each(|x| *x = sigmoid_scalar(*x)),
        Activation::None => {}
    }
}

impl HeadKind {
    /// Eq. 20 for parallel `(user, item)` pairs: pair `j` scores row
    /// `users[j]` of `user_tbl` against row `items[j]` of `item_tbl`.
    /// This is the workspace's one scorer (see the module docs).
    ///
    /// # Panics
    /// If the pair arrays differ in length, a dot head's tables differ
    /// in width, or an id is out of range.
    pub fn score_pairs(
        &self,
        user_tbl: &Tensor,
        item_tbl: &Tensor,
        users: &[u32],
        items: &[u32],
    ) -> Vec<f32> {
        assert_eq!(users.len(), items.len(), "parallel pair arrays");
        match self {
            HeadKind::Dot => {
                assert_eq!(user_tbl.cols(), item_tbl.cols(), "embedding dim mismatch");
                users
                    .iter()
                    .zip(items)
                    .map(|(&u, &i)| {
                        let ur = user_tbl.row_slice(u as usize);
                        let ir = item_tbl.row_slice(i as usize);
                        ur.iter().zip(ir).map(|(a, b)| a * b).sum()
                    })
                    .collect()
            }
            HeadKind::Mlp(h) => {
                let (di, data) = (item_tbl.cols(), item_tbl.data());
                let mut scores = vec![0.0; users.len()];
                let mut at = 0;
                for run in users.chunk_by(|a, b| a == b) {
                    let ids = &items[at..at + run.len()];
                    let user = user_tbl.row_slice(run[0] as usize);
                    let item = |i: usize, kk: usize| data[ids[i] as usize * di + kk];
                    h.score_user(user, di, item, &mut scores[at..at + run.len()]);
                    at += run.len();
                }
                scores
            }
        }
    }
}

/// `acc + b` on every row of `x`, the tape's broadcast add: the operand
/// order decides which NaN survives.
fn add_bias(x: &mut Tensor, b: Option<&Tensor>) {
    if let Some(b) = b {
        for r in 0..x.rows() {
            for (acc, &bv) in x.row_slice_mut(r).iter_mut().zip(b.data()) {
                *acc += bv;
            }
        }
    }
}

impl MlpHead {
    /// Eq. 20 for the row `user` against `out.len()` items of width
    /// `di`, element `kk` of item `i` read as `item(i, kk)`. Layer 1 is
    /// two products (see the module docs): the user's prefix, then the
    /// items continuing from it.
    ///
    /// # Panics
    /// If the head has no layer, or layer 1 does not take `[u ‖ v]`.
    fn score_user(
        &self,
        user: &[f32],
        di: usize,
        item: impl Fn(usize, usize) -> f32,
        out: &mut [f32],
    ) {
        let du = user.len();
        let (w1, b1) = &self.layers[0];
        assert_eq!(
            w1.rows(),
            du + di,
            "MLP head: layer 1 takes {} inputs, [u ‖ v] is {du} + {di}",
            w1.rows()
        );
        let h = w1.cols();
        let (wu, wi) = w1.data().split_at(du * h);
        let mut prefix = vec![0.0; h];
        matmul_from(&vec![0.0; h], |_, kk| user[kk], wu, &mut prefix);
        let mut x = Tensor::zeros(out.len(), h);
        matmul_from(&prefix, item, wi, x.data_mut());
        add_bias(&mut x, b1.as_ref());
        for (w, b) in &self.layers[1..] {
            apply_act(self.hidden_act, x.data_mut());
            x = x.matmul(w);
            add_bias(&mut x, b.as_ref());
        }
        out.copy_from_slice(x.data());
    }

    /// Freezes a trained [`nm_nn::Mlp`] into plain tensors.
    pub fn from_mlp(mlp: &nm_nn::Mlp) -> MlpHead {
        MlpHead {
            layers: (0..mlp.n_layers())
                .map(|i| {
                    let l = mlp.layer(i);
                    (l.weight().value(), l.bias().map(|b| b.value()))
                })
                .collect(),
            hidden_act: mlp.hidden_act(),
        }
    }

    fn validate(&self, in_dim: usize) -> Result<(), CheckpointError> {
        let mut d = in_dim;
        for (i, (w, b)) in self.layers.iter().enumerate() {
            if w.rows() != d {
                return Err(CheckpointError::Format(format!(
                    "head layer {i}: expected {d} inputs, weight is {}x{}",
                    w.rows(),
                    w.cols()
                )));
            }
            if let Some(b) = b {
                if b.shape() != (1, w.cols()) {
                    return Err(CheckpointError::Format(format!(
                        "head layer {i}: bias shape {}x{} != 1x{}",
                        b.rows(),
                        b.cols(),
                        w.cols()
                    )));
                }
            }
            d = w.cols();
        }
        if d != 1 {
            return Err(CheckpointError::Format(format!(
                "head must end in one logit, got {d}"
            )));
        }
        Ok(())
    }
}

impl Snapshot {
    /// Structural validation: table dims agree with the head shape.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        for (z, d) in self.domains.iter().enumerate() {
            let (du, di) = (d.users.cols(), d.items.cols());
            match &d.head {
                HeadKind::Dot => {
                    if du != di {
                        return Err(CheckpointError::Format(format!(
                            "domain {z}: dot head needs equal dims, users {du} items {di}"
                        )));
                    }
                }
                HeadKind::Mlp(h) => h.validate(du + di)?,
            }
        }
        Ok(())
    }

    pub fn n_users(&self, domain: usize) -> usize {
        self.domains[domain].users.rows()
    }

    pub fn n_items(&self, domain: usize) -> usize {
        self.domains[domain].items.rows()
    }

    /// Scores parallel `(user, item)` pairs of a domain through its
    /// head's [`HeadKind::score_pairs`].
    pub fn score_pairs(&self, domain: usize, users: &[u32], items: &[u32]) -> Vec<f32> {
        let d = &self.domains[domain];
        d.head.score_pairs(&d.users, &d.items, users, items)
    }

    /// Scores one user against the item id range `lo..hi` of a domain,
    /// writing into `out` (`out.len() == hi - lo`). This is the shard
    /// kernel the retrieval engine fans out over worker threads.
    pub fn score_user_range(
        &self,
        domain: usize,
        user: u32,
        lo: usize,
        hi: usize,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), hi - lo, "output buffer size");
        let d = &self.domains[domain];
        let scores = match &d.head {
            HeadKind::Dot => {
                let k = d.items.cols();
                let rows = &d.items.data()[lo * k..hi * k];
                vecmat_nt_blocked(d.users.row_slice(user as usize), rows, hi - lo, k, None)
            }
            HeadKind::Mlp(h) => {
                // the range is one run, its item rows read in place
                let k = d.items.cols();
                let rows = &d.items.data()[lo * k..hi * k];
                let item = |i: usize, kk: usize| rows[i * k + kk];
                h.score_user(d.users.row_slice(user as usize), k, item, out);
                return;
            }
        };
        out.copy_from_slice(&scores);
    }

    /// Serializes the snapshot.
    pub fn save<W: Write>(&self, w: &mut W) -> Result<(), CheckpointError> {
        w.write_all(MAGIC)?;
        write_u32(w, VERSION)?;
        let name = self.model.as_bytes();
        write_u32(w, name.len() as u32)?;
        w.write_all(name)?;
        for d in &self.domains {
            write_tensor(w, &d.users)?;
            write_tensor(w, &d.items)?;
            match &d.head {
                HeadKind::Dot => write_u32(w, 0)?,
                HeadKind::Mlp(h) => {
                    write_u32(w, 1)?;
                    write_u32(w, act_tag(h.hidden_act))?;
                    write_u32(w, h.layers.len() as u32)?;
                    for (wt, b) in &h.layers {
                        write_tensor(w, wt)?;
                        match b {
                            Some(b) => {
                                write_u32(w, 1)?;
                                write_tensor(w, b)?;
                            }
                            None => write_u32(w, 0)?,
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes the snapshot atomically (temp sibling + fsync + rename),
    /// so a crash mid-export — or a `reload` racing the writer — never
    /// observes a torn file.
    pub fn save_to_file(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut buf = Vec::new();
        self.save(&mut buf)?;
        nm_nn::checkpoint::atomic_write_bytes(path, &buf)?;
        Ok(())
    }

    /// Deserializes and validates a snapshot. Truncation and garbage
    /// are `Format` errors, matching the `NMCK` loader's contract.
    pub fn load<R: Read>(r: &mut R) -> Result<Snapshot, CheckpointError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CheckpointError::Format("truncated file".into())
            } else {
                CheckpointError::Io(e)
            }
        })?;
        if &magic != MAGIC {
            return Err(CheckpointError::Format("bad snapshot magic".into()));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let name_len = read_u32(r)? as usize;
        if name_len > 1 << 16 {
            return Err(CheckpointError::Format("unreasonable name length".into()));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CheckpointError::Format("truncated file".into())
            } else {
                CheckpointError::Io(e)
            }
        })?;
        let model = String::from_utf8(name)
            .map_err(|_| CheckpointError::Format("non-utf8 model name".into()))?;
        let mut domains = Vec::with_capacity(2);
        for _ in 0..2 {
            let users = read_tensor(r)?;
            let items = read_tensor(r)?;
            let head = match read_u32(r)? {
                0 => HeadKind::Dot,
                1 => {
                    let hidden_act = act_from_tag(read_u32(r)?)?;
                    let n_layers = read_u32(r)? as usize;
                    if n_layers == 0 || n_layers > 64 {
                        return Err(CheckpointError::Format(format!(
                            "unreasonable head depth {n_layers}"
                        )));
                    }
                    let mut layers = Vec::with_capacity(n_layers);
                    for _ in 0..n_layers {
                        let w = read_tensor(r)?;
                        let b = match read_u32(r)? {
                            0 => None,
                            1 => Some(read_tensor(r)?),
                            x => return Err(CheckpointError::Format(format!("bad bias flag {x}"))),
                        };
                        layers.push((w, b));
                    }
                    HeadKind::Mlp(MlpHead { layers, hidden_act })
                }
                x => return Err(CheckpointError::Format(format!("unknown head kind {x}"))),
            };
            domains.push(DomainSnapshot { users, items, head });
        }
        let mut it = domains.into_iter();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(CheckpointError::Format("missing domain snapshot".into()));
        };
        let snap = Snapshot {
            model,
            domains: [a, b],
        };
        snap.validate()?;
        Ok(snap)
    }

    pub fn load_from_file(path: &Path) -> Result<Snapshot, CheckpointError> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::load(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_tensor::TensorRng;

    fn dot_snapshot() -> Snapshot {
        let mut rng = TensorRng::seed_from(1);
        let mk = |rng: &mut TensorRng| DomainSnapshot {
            users: Tensor::randn(8, 4, 1.0, rng),
            items: Tensor::randn(12, 4, 1.0, rng),
            head: HeadKind::Dot,
        };
        Snapshot {
            model: "BPR".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        }
    }

    fn mlp_snapshot() -> Snapshot {
        let mut rng = TensorRng::seed_from(2);
        let mk = |rng: &mut TensorRng| {
            let d = 4;
            DomainSnapshot {
                users: Tensor::randn(8, d, 1.0, rng),
                items: Tensor::randn(12, d, 1.0, rng),
                head: HeadKind::Mlp(MlpHead {
                    layers: vec![
                        (
                            Tensor::randn(2 * d, d, 0.5, rng),
                            Some(Tensor::randn(1, d, 0.5, rng)),
                        ),
                        (
                            Tensor::randn(d, 1, 0.5, rng),
                            Some(Tensor::randn(1, 1, 0.5, rng)),
                        ),
                    ],
                    hidden_act: Activation::Relu,
                }),
            }
        };
        Snapshot {
            model: "NMCDR".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for snap in [dot_snapshot(), mlp_snapshot()] {
            let mut buf = Vec::new();
            snap.save(&mut buf).unwrap();
            let back = Snapshot::load(&mut buf.as_slice()).unwrap();
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn truncated_snapshot_is_format_error() {
        let snap = mlp_snapshot();
        let mut buf = Vec::new();
        snap.save(&mut buf).unwrap();
        for cut in [0, 3, 4, 8, 10, buf.len() / 3, buf.len() - 1] {
            let err = Snapshot::load(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Snapshot::load(&mut &b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn validate_catches_dim_mismatch() {
        let mut snap = dot_snapshot();
        let mut rng = TensorRng::seed_from(3);
        snap.domains[1].items = Tensor::randn(12, 5, 1.0, &mut rng);
        assert!(snap.validate().is_err());
    }

    #[test]
    fn score_user_range_matches_score_pairs() {
        for snap in [dot_snapshot(), mlp_snapshot()] {
            let n = snap.n_items(0);
            let items: Vec<u32> = (0..n as u32).collect();
            let users = vec![3u32; n];
            let pairwise = snap.score_pairs(0, &users, &items);
            let mut ranged = vec![0.0f32; n];
            // split the range unevenly to cross shard boundaries
            snap.score_user_range(0, 3, 0, 5, &mut ranged[0..5]);
            snap.score_user_range(0, 3, 5, n, &mut ranged[5..]);
            assert_eq!(ranged, pairwise, "shard kernel must match pair kernel");
        }
    }

    /// A seeded `n x 6` table with IEEE specials planted in rows 1–3:
    /// ±0.0 and a subnormal, then ±inf, then NaN.
    fn planted_table(n: usize, rng: &mut TensorRng) -> Tensor {
        let mut t = Tensor::randn(n, 6, 1.0, rng);
        for (r, c, v) in [
            (1, 0, 0.0),
            (1, 1, -0.0),
            (1, 2, 1e-40),
            (2, 0, f32::INFINITY),
            (2, 3, f32::NEG_INFINITY),
            (3, 5, f32::NAN),
        ] {
            t.set(r, c, v);
        }
        t
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn frozen_heads_match_the_training_head_bit_for_bit() {
        use nm_autograd::Tape;
        use std::rc::Rc;
        let mut rng = TensorRng::seed_from(21);
        let users_tbl = planted_table(40, &mut rng);
        let items_tbl = planted_table(50, &mut rng);
        // `[u ‖ v]` rows as the training tape gathers them
        let tape_rows = |tape: &mut Tape, users: &[u32], items: &[u32]| {
            let ut = tape.constant(users_tbl.clone());
            let it = tape.constant(items_tbl.clone());
            let u = tape.gather_rows(ut, Rc::new(users.to_vec()));
            let v = tape.gather_rows(it, Rc::new(items.to_vec()));
            tape.concat_cols(u, v)
        };
        type Reference<'a> = Box<dyn Fn(&[u32], &[u32]) -> Vec<f32> + 'a>;
        let mut heads: Vec<(String, HeadKind, Reference<'_>)> = Vec::new();
        for act in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::None,
        ] {
            let mlp = nm_nn::Mlp::new("head", &[12, 5, 1], act, &mut rng);
            // Xavier init leaves the biases zero; make them count
            for i in 0..mlp.n_layers() {
                if let Some(b) = mlp.layer(i).bias() {
                    b.set_value(Tensor::randn(1, b.shape().1, 0.5, &mut rng));
                }
            }
            let head = HeadKind::Mlp(MlpHead::from_mlp(&mlp));
            let reference: Reference = Box::new(move |users: &[u32], items: &[u32]| {
                let mut tape = Tape::new();
                let x = tape_rows(&mut tape, users, items);
                let y = mlp.forward(&mut tape, x);
                tape.value(y).data().to_vec()
            });
            heads.push((format!("{act:?} mlp"), head, reference));
        }
        let w = Tensor::randn(12, 1, 0.5, &mut rng);
        let bias_free = HeadKind::Mlp(MlpHead {
            layers: vec![(w.clone(), None)],
            hidden_act: Activation::Relu,
        });
        let reference: Reference = Box::new(move |users: &[u32], items: &[u32]| {
            let mut tape = Tape::new();
            let x = tape_rows(&mut tape, users, items);
            tape.value(x).matmul(&w).into_vec()
        });
        heads.push(("bias-free layer".into(), bias_free, reference));
        let reference: Reference = Box::new(|users: &[u32], items: &[u32]| {
            let u = users_tbl.gather_rows(users);
            u.rowwise_dot(&items_tbl.gather_rows(items)).into_vec()
        });
        heads.push(("dot".into(), HeadKind::Dot, reference));

        for (name, head, reference) in &heads {
            for n in [0, 1, 300] {
                // pairs 1..4 cross the planted rows with each other
                let users: Vec<u32> = (0..n).map(|j| (j % 40) as u32).collect();
                let mut items: Vec<u32> = (0..n).map(|_| rng.index(50) as u32).collect();
                items.iter_mut().zip([0, 3, 2, 1]).for_each(|(i, p)| *i = p);
                let got = head.score_pairs(&users_tbl, &items_tbl, &users, &items);
                let want = reference(&users, &items);
                assert_eq!(bits(&got), bits(&want), "{name}, {n} pairs");
            }
            // the shard kernel over uneven ranges equals the pair kernel
            let snap = Snapshot {
                model: name.clone(),
                domains: [0, 1].map(|_| DomainSnapshot {
                    users: users_tbl.clone(),
                    items: items_tbl.clone(),
                    head: head.clone(),
                }),
            };
            let all: Vec<u32> = (0..50).collect();
            for user in [0, 1, 2, 3, 7] {
                let want = snap.score_pairs(1, &vec![user; all.len()], &all);
                let mut got = vec![0.0f32; all.len()];
                for (lo, hi) in [(0, 1), (1, 9), (9, 9), (9, 32), (32, 50)] {
                    snap.score_user_range(1, user, lo, hi, &mut got[lo..hi]);
                }
                assert_eq!(bits(&got), bits(&want), "{name}, user {user} by range");
            }
        }
    }

    /// The MLP head as it scored before its first layer was split: the
    /// `[u ‖ v]` rows gathered per pair, then every layer as
    /// [`Tensor::matmul`], `acc + b` and the activation.
    fn gathered_scores(h: &MlpHead, tables: &(Tensor, Tensor), pairs: &[(u32, u32)]) -> Vec<f32> {
        let (users, items) = tables;
        let du = users.cols();
        let mut x = Tensor::zeros(pairs.len(), du + items.cols());
        for (j, &(u, i)) in pairs.iter().enumerate() {
            let row = x.row_slice_mut(j);
            row[..du].copy_from_slice(users.row_slice(u as usize));
            row[du..].copy_from_slice(items.row_slice(i as usize));
        }
        for (l, (w, b)) in h.layers.iter().enumerate() {
            x = x.matmul(w);
            add_bias(&mut x, b.as_ref());
            if l + 1 < h.layers.len() {
                apply_act(h.hidden_act, x.data_mut());
            }
        }
        x.into_vec()
    }

    /// Seeded `40 x 6` user and `50 x 6` item tables.
    fn run_tables() -> (Tensor, Tensor) {
        let mut rng = TensorRng::seed_from(31);
        (
            Tensor::randn(40, 6, 1.0, &mut rng),
            Tensor::randn(50, 6, 1.0, &mut rng),
        )
    }

    /// Scores `pairs` through every head shape of the runs tests and
    /// checks each against [`gathered_scores`] bit for bit; returns the
    /// scores of the last head.
    fn assert_runs_match_gather(
        tables: &(Tensor, Tensor),
        pairs: &[(u32, u32)],
        what: &str,
    ) -> Vec<f32> {
        let mut rng = TensorRng::seed_from(32);
        let mut got = Vec::new();
        for (dims, act) in [
            (&[12, 5, 1][..], Activation::Relu),
            (&[12, 4, 3, 1][..], Activation::Tanh),
        ] {
            let mlp = nm_nn::Mlp::new("head", dims, act, &mut rng);
            for i in 0..mlp.n_layers() {
                if let Some(b) = mlp.layer(i).bias() {
                    b.set_value(Tensor::randn(1, b.shape().1, 0.5, &mut rng));
                }
            }
            let h = MlpHead::from_mlp(&mlp);
            let (users, items): (Vec<u32>, Vec<u32>) = pairs.iter().copied().unzip();
            got = HeadKind::Mlp(h.clone()).score_pairs(&tables.0, &tables.1, &users, &items);
            let want = gathered_scores(&h, tables, pairs);
            assert_eq!(bits(&got), bits(&want), "{what}, {act:?} head");
        }
        got
    }

    #[test]
    fn hundred_candidate_lists_score_as_the_gather_path() {
        let mut rng = TensorRng::seed_from(33);
        let pairs: Vec<(u32, u32)> = (0..40)
            .flat_map(|u| (0..100).map(move |_| u))
            .map(|u| (u, rng.index(50) as u32))
            .collect();
        assert_runs_match_gather(&run_tables(), &pairs, "40 users x 100 candidates");
    }

    #[test]
    fn alternating_runs_score_as_the_gather_path() {
        // runs u,u,v,v,u: a user's later run starts its own prefix
        let mut rng = TensorRng::seed_from(34);
        let pairs: Vec<(u32, u32)> = (0..20)
            .flat_map(|u| [u, u, u + 20, u + 20, u])
            .map(|u| (u, rng.index(50) as u32))
            .collect();
        assert_runs_match_gather(&run_tables(), &pairs, "runs u,u,v,v,u");
    }

    #[test]
    fn runs_of_one_score_as_the_gather_path() {
        let mut rng = TensorRng::seed_from(35);
        let pairs: Vec<(u32, u32)> = (0..200)
            .map(|j| ((j * 7 % 40) as u32, rng.index(50) as u32))
            .collect();
        assert_runs_match_gather(&run_tables(), &pairs, "runs of one");
    }

    #[test]
    fn non_finite_items_stay_in_their_run() {
        // items 0 and 1 carry a NaN and an inf; only user 5's run scores
        // them, so only its scores may be non-finite
        let mut tables = run_tables();
        tables.1.set(0, 2, f32::NAN);
        tables.1.set(1, 4, f32::INFINITY);
        let mut rng = TensorRng::seed_from(36);
        let pairs: Vec<(u32, u32)> = (0..40)
            .flat_map(|u| (0..10).map(move |j| (u, j)))
            .map(|(u, j)| match (u, j) {
                (5, 0 | 1) => (u, j),
                _ => (u, 2 + rng.index(48) as u32),
            })
            .collect();
        let got = assert_runs_match_gather(&tables, &pairs, "non-finite items");
        for (&(u, _), s) in pairs.iter().zip(&got) {
            assert!(u == 5 || s.is_finite(), "user {u} scored {s}");
        }
        assert!(got[50..60].iter().any(|s| !s.is_finite()));
    }

    #[test]
    fn a_non_finite_user_prefix_stays_in_its_run() {
        // users 3 and 9 carry a NaN and an inf, so their prefixes do
        let mut tables = run_tables();
        tables.0.set(3, 1, f32::NAN);
        tables.0.set(9, 5, f32::NEG_INFINITY);
        let mut rng = TensorRng::seed_from(37);
        let pairs: Vec<(u32, u32)> = (0..40)
            .flat_map(|u| (0..10).map(move |_| u))
            .map(|u| (u, rng.index(50) as u32))
            .collect();
        let got = assert_runs_match_gather(&tables, &pairs, "non-finite user prefix");
        for (&(u, _), s) in pairs.iter().zip(&got) {
            assert!(u == 3 || u == 9 || s.is_finite(), "user {u} scored {s}");
        }
        assert!(got[30..40].iter().all(|s| s.is_nan()));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nm_serve_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.nmss");
        let snap = mlp_snapshot();
        snap.save_to_file(&path).unwrap();
        assert_eq!(Snapshot::load_from_file(&path).unwrap(), snap);
        std::fs::remove_dir_all(&dir).ok();
    }
}
