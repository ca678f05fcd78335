//! The autodiff tape: forward constructors and the reverse sweep.

use crate::cost::OpDims;
use crate::ops::Op;
use crate::profile;
use nm_graph::Csr;
use nm_tensor::{classify_broadcast, sigmoid_scalar, softmax_in_place, Axis, Broadcast, Tensor};
use std::borrow::Cow;
use std::rc::Rc;

/// Handle to a node on a [`Tape`]. Only valid for the tape that created
/// it; using it on another tape is a logic error caught by shape
/// assertions at best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Position of this node on its tape — the index an exported
    /// [`crate::TraceNode`] has in `Tape::export_trace`'s output.
    pub fn index(self) -> usize {
        self.0
    }
}

pub(crate) struct Node {
    pub value: Tensor,
    pub needs_grad: bool,
    pub op: Op,
}

/// A single-use computation tape. Build the forward pass through the
/// constructor methods, call [`Tape::backward`] once on a scalar loss,
/// read the leaves' gradients with [`Tape::grad`], then drop the tape.
pub struct Tape {
    nodes: Vec<Node>,
    /// Gradient slots, indexed like `nodes`; empty until `backward`.
    grads: Vec<Option<Tensor>>,
    id: u64,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Process-unique identity of this tape. `nm-nn` parameters cache
    /// their leaf binding per tape id so a parameter used several times
    /// in one forward pass is a single leaf node.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of recorded nodes (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Per-node (op, output shape, needs_grad) view for
    /// [`Tape::export_trace`](crate::optrace).
    pub(crate) fn nodes_for_trace(&self) -> impl Iterator<Item = (&Op, (usize, usize), bool)> {
        self.nodes
            .iter()
            .map(|n| (&n.op, n.value.shape(), n.needs_grad))
    }

    /// Cost-rule inputs for node `i`: its output shape, its dense
    /// parents' shapes, and the sparse operand's nnz (SpMM) or the
    /// candidate count (attend_rows).
    fn profile_dims(&self, i: usize) -> OpDims {
        let node = &self.nodes[i];
        let ps = node.op.parents();
        let shape_of = |v: Option<Var>| v.map_or((0, 0), |v| self.nodes[v.0].value.shape());
        let nnz = match &node.op {
            Op::Spmm(adj_t, _) => adj_t.nnz(),
            Op::AttendRows(_, _, idx, _) => idx.len(),
            _ => 0,
        };
        OpDims {
            out: node.value.shape(),
            a: shape_of(ps[0]),
            b: shape_of(ps[1]),
            nnz,
        }
    }

    /// Closes a forward-pass profile window opened before the kernel
    /// ran. A `None` timer (profiler disabled) costs nothing here.
    fn finish_fwd(&self, t: Option<profile::OpTimer>, v: Var) -> Var {
        if let Some(t) = t {
            profile::op_finish_fwd(t, self.nodes[v.0].op.kind(), &self.profile_dims(v.0));
        }
        v
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let needs_grad = match &op {
            Op::Leaf { requires_grad } => *requires_grad,
            other => other
                .parents()
                .iter()
                .flatten()
                .any(|p| self.nodes[p.0].needs_grad),
        };
        self.nodes.push(Node {
            value,
            needs_grad,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Trainable leaf (parameter binding).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        let t = profile::op_start();
        let v = self.push(
            value,
            Op::Leaf {
                requires_grad: true,
            },
        );
        self.finish_fwd(t, v)
    }

    /// Non-trainable input (features, labels used as values).
    pub fn constant(&mut self, value: Tensor) -> Var {
        let t = profile::op_start();
        let v = self.push(
            value,
            Op::Leaf {
                requires_grad: false,
            },
        );
        self.finish_fwd(t, v)
    }

    /// The tensor value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of leaf `v` once [`Tape::backward`] has
    /// run, if `v` needs one and lies on a path to the loss.
    ///
    /// Only leaves keep a gradient: an interior node's is consumed by
    /// its own backward step, so this is `None` for every interior node,
    /// as for every node before `backward`.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(Option::as_ref)
    }

    // ---- arithmetic -------------------------------------------------

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_start();
        let bc = classify_broadcast(self.value(a).shape(), self.value(b).shape(), "tape.add");
        let value = self.value(a).add(self.value(b));
        let v = self.push(value, Op::Add(a, b, bc));
        self.finish_fwd(t, v)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_start();
        let bc = classify_broadcast(self.value(a).shape(), self.value(b).shape(), "tape.sub");
        let value = self.value(a).sub(self.value(b));
        let v = self.push(value, Op::Sub(a, b, bc));
        self.finish_fwd(t, v)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_start();
        let bc = classify_broadcast(self.value(a).shape(), self.value(b).shape(), "tape.mul");
        let value = self.value(a).mul(self.value(b));
        let v = self.push(value, Op::Mul(a, b, bc));
        self.finish_fwd(t, v)
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let t = profile::op_start();
        let value = self.value(a).scale(s);
        let v = self.push(value, Op::Scale(a, s));
        self.finish_fwd(t, v)
    }

    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let t = profile::op_start();
        let value = self.value(a).add_scalar(s);
        let v = self.push(value, Op::AddScalar(a));
        self.finish_fwd(t, v)
    }

    pub fn neg(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).neg();
        let v = self.push(value, Op::Neg(a));
        self.finish_fwd(t, v)
    }

    /// `1 - a` — the gate complement used by Eq. 10/16.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let n = self.neg(a);
        self.add_scalar(n, 1.0)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).matmul(self.value(b));
        let v = self.push(value, Op::Matmul(a, b));
        self.finish_fwd(t, v)
    }

    // ---- activations ------------------------------------------------

    pub fn relu(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).relu();
        let v = self.push(value, Op::Relu(a));
        self.finish_fwd(t, v)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).sigmoid();
        let v = self.push(value, Op::Sigmoid(a));
        self.finish_fwd(t, v)
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).tanh();
        let v = self.push(value, Op::Tanh(a));
        self.finish_fwd(t, v)
    }

    pub fn softplus(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).softplus();
        let v = self.push(value, Op::Softplus(a));
        self.finish_fwd(t, v)
    }

    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).softmax_rows();
        let v = self.push(value, Op::SoftmaxRows(a));
        self.finish_fwd(t, v)
    }

    /// Intra node complementing (Eq. 18–19) as one op: row `i` of `x`
    /// (`N x D`) scores the `C = idx.len() / N` rows of `table` named by
    /// `idx[i*C..(i+1)*C]` with a dot product, softmaxes the `C` scores,
    /// and returns the weighted sum of those rows (`N x D`). Forward and
    /// backward keep the bits of the retired chain gather, repeat,
    /// rowwise dot, softmax, mul and segment sum, and build no
    /// `(N·C) x D` tensor.
    ///
    /// # Panics
    /// If `x` has no rows, `idx.len()` is not a multiple of them, the
    /// column counts differ, or an index is out of bounds.
    pub fn attend_rows(&mut self, x: Var, table: Var, idx: Rc<Vec<u32>>) -> Var {
        let t = profile::op_start();
        let (xv, tv) = (self.value(x), self.value(table));
        let (n, d) = xv.shape();
        assert_eq!(tv.cols(), d, "attend_rows: x and table widths differ");
        assert!(
            n > 0 && idx.len().is_multiple_of(n),
            "attend_rows: {} indices do not split over {n} rows",
            idx.len()
        );
        let c = idx.len() / n;
        let mut alpha = Tensor::zeros(n, c);
        let mut out = Tensor::zeros(n, d);
        for i in 0..n {
            let cand = &idx[i * c..(i + 1) * c];
            let u = xv.row_slice(i);
            let a = alpha.row_slice_mut(i);
            for (s, &j) in a.iter_mut().zip(cand) {
                *s = dot(u, tv.row_slice(j as usize));
            }
            softmax_in_place(a);
            let o = out.row_slice_mut(i);
            for (&w, &j) in a.iter().zip(cand) {
                for (o, &v) in o.iter_mut().zip(tv.row_slice(j as usize)) {
                    *o += v * w;
                }
            }
        }
        let v = self.push(out, Op::AttendRows(x, table, idx, alpha));
        self.finish_fwd(t, v)
    }

    // ---- structure --------------------------------------------------

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).concat_cols(self.value(b));
        let v = self.push(value, Op::ConcatCols(a, b));
        self.finish_fwd(t, v)
    }

    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let t = profile::op_start();
        let value = self.value(a).slice_cols(start, end);
        let v = self.push(value, Op::SliceCols(a, start, end));
        self.finish_fwd(t, v)
    }

    pub fn gather_rows(&mut self, a: Var, indices: Rc<Vec<u32>>) -> Var {
        let t = profile::op_start();
        let value = self.value(a).gather_rows(&indices);
        let v = self.push(value, Op::GatherRows(a, indices));
        self.finish_fwd(t, v)
    }

    // ---- sparse -----------------------------------------------------

    /// `adj @ x` where `adj` is CSR and `adj_t` its precomputed
    /// transpose (backward is `adj_t @ grad`).
    ///
    /// # Panics
    /// If `adj_t` is not shape-consistent with `adj`.
    pub fn spmm(&mut self, adj: Rc<Csr>, adj_t: Rc<Csr>, x: Var) -> Var {
        let t = profile::op_start();
        assert_eq!(
            (adj.n_cols(), adj.n_rows()),
            (adj_t.n_rows(), adj_t.n_cols()),
            "spmm: adj_t is not the transpose shape of adj"
        );
        let xv = self.value(x);
        let width = xv.cols();
        assert_eq!(
            adj.n_cols(),
            xv.rows(),
            "spmm: adj cols {} != x rows {}",
            adj.n_cols(),
            xv.rows()
        );
        let out = adj.spmm(xv.data(), width);
        let value = Tensor::new(adj.n_rows(), width, out);
        let v = self.push(value, Op::Spmm(adj_t, x));
        self.finish_fwd(t, v)
    }

    // ---- reductions & losses -----------------------------------------

    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).rowwise_dot(self.value(b));
        let v = self.push(value, Op::RowwiseDot(a, b));
        self.finish_fwd(t, v)
    }

    pub fn sum_all(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = Tensor::scalar(self.value(a).sum());
        let v = self.push(value, Op::SumAll(a));
        self.finish_fwd(t, v)
    }

    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = Tensor::scalar(self.value(a).mean());
        let v = self.push(value, Op::MeanAll(a));
        self.finish_fwd(t, v)
    }

    /// Row sums -> `R x 1`.
    pub fn sum_axis_cols(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = self.value(a).sum_axis(Axis::Cols);
        let v = self.push(value, Op::SumAxisCols(a));
        self.finish_fwd(t, v)
    }

    pub fn sum_squares(&mut self, a: Var) -> Var {
        let t = profile::op_start();
        let value = Tensor::scalar(self.value(a).sum_squares());
        let v = self.push(value, Op::SumSquares(a));
        self.finish_fwd(t, v)
    }

    /// Numerically-stable mean binary-cross-entropy on logits:
    /// `mean(softplus(x) - x * y)` (Eq. 21 with `ŷ = σ(x)` fused in).
    ///
    /// # Panics
    /// If `targets` shape differs from the logits.
    pub fn bce_with_logits_mean(&mut self, logits: Var, targets: Rc<Tensor>) -> Var {
        let t = profile::op_start();
        let x = self.value(logits);
        assert_eq!(
            x.shape(),
            targets.shape(),
            "bce: logits {:?} vs targets {:?}",
            x.shape(),
            targets.shape()
        );
        let n = x.len().max(1) as f32;
        let loss = x
            .data()
            .iter()
            .zip(targets.data())
            .map(|(&xi, &yi)| nm_tensor::softplus_scalar(xi) - xi * yi)
            .sum::<f32>()
            / n;
        let v = self.push(Tensor::scalar(loss), Op::BceWithLogits(logits, targets));
        self.finish_fwd(t, v)
    }

    // ---- backward -----------------------------------------------------

    /// Node `i`'s backward step: adds its contribution to each parent
    /// that needs a gradient straight into that parent's slot, consuming
    /// `grad`, the node's own gradient.
    ///
    /// Elementwise arms add `c(e)`, the adjoint's expression, into each
    /// element of a filled slot. An empty slot takes `grad`'s buffer,
    /// rewritten to `c`, when this is the buffer's last use, and a fresh
    /// tensor otherwise. Kernel arms (matmul, spmm, the scatters,
    /// reductions, softmax, attend_rows) finish each contribution and
    /// then add it: folding a kernel's partial sums into the slot would
    /// round differently. Either way a filled slot gets one add per
    /// element, even of an exact zero (`-0.0 + 0.0` is `+0.0`), so the
    /// bits are those of adding each finished contribution in reverse
    /// tape order.
    fn backprop(&mut self, i: usize, grad: Tensor) {
        let Self { nodes, grads, .. } = self;
        let nodes = &*nodes;
        let val = |v: Var| &nodes[v.0].value;
        let (op, y) = (&nodes[i].op, &nodes[i].value);
        // The parents that need a gradient. A node with a gradient needs
        // one, so a unary op's parent always does.
        let ps = op.parents().map(|p| p.filter(|p| nodes[p.0].needs_grad));
        let [pa, pb] = ps;
        // The shape of a unary kernel arm's contribution.
        let (r, c) = pa.map_or((0, 0), |a| val(a).shape());
        // Kernel arms yield their finished contributions, in slot order;
        // elementwise arms pour theirs and return.
        let contributions = match *op {
            Op::Leaf { .. } => unreachable!("a leaf has no parents"),
            Op::Add(_, _, Broadcast::Same) => {
                return pour_pair(grads, grad, ps, (y, |g, _| g), (y, |g, _| g));
            }
            Op::Sub(_, _, Broadcast::Same) => {
                return pour_pair(grads, grad, ps, (y, |g, _| g), (y, |g, _| -g));
            }
            Op::Mul(a, b, Broadcast::Same) => {
                let f = |g: f32, o: f32| g * o;
                return pour_pair(grads, grad, ps, (val(b), f), (val(a), f));
            }
            // `b` broadcasts, so it is not `a` and the slot order is
            // free: its reduction reads the buffer before `a` takes it.
            Op::Add(_, _, bc) | Op::Sub(_, _, bc) => {
                let cb = pb.map(|_| reduce_for_broadcast(&grad, bc));
                let cb = if let Op::Sub(..) = op {
                    cb.map(|c| c.neg())
                } else {
                    cb
                };
                if let Some(a) = pa {
                    pour(&mut grads[a.0], Cow::Owned(grad), y, |g, _| g);
                }
                [None, cb]
            }
            Op::Mul(a, b, bc) => [
                pa.map(|_| grad.mul(val(b))),
                pb.map(|_| reduce_for_broadcast(&grad.mul(val(a)), bc)),
            ],
            Op::Scale(a, s) => return pour(&mut grads[a.0], Cow::Owned(grad), y, |g, _| g * s),
            Op::AddScalar(a) => return pour(&mut grads[a.0], Cow::Owned(grad), y, |g, _| g),
            Op::Neg(a) => return pour(&mut grads[a.0], Cow::Owned(grad), y, |g, _| -g),
            Op::Relu(a) => {
                let mask = |g, x: f32| if x <= 0.0 { 0.0 } else { g };
                return pour(&mut grads[a.0], Cow::Owned(grad), val(a), mask);
            }
            Op::Sigmoid(a) => {
                let f = |g: f32, y: f32| g * (y * (1.0 - y));
                return pour(&mut grads[a.0], Cow::Owned(grad), y, f);
            }
            Op::Tanh(a) => {
                return pour(&mut grads[a.0], Cow::Owned(grad), y, |g, y| {
                    g * (1.0 - y * y)
                });
            }
            Op::Softplus(a) => {
                let f = |g: f32, x: f32| g * sigmoid_scalar(x);
                return pour(&mut grads[a.0], Cow::Owned(grad), val(a), f);
            }
            // grad is R x 1, broadcast across each row
            Op::RowwiseDot(a, b) => {
                for (p, o) in [(pa, b), (pb, a)] {
                    if let Some(p) = p {
                        pour_rows(&mut grads[p.0], val(o), &grad);
                    }
                }
                return;
            }
            Op::Matmul(a, b) => [
                pa.map(|_| grad.matmul_nt(val(b))),
                pb.map(|_| val(a).matmul_tn(&grad)),
            ],
            Op::SoftmaxRows(_) => {
                let mut g = Tensor::zeros(r, c);
                for row in 0..r {
                    let (prow, grow) = (y.row_slice(row), grad.row_slice(row));
                    let d = dot(prow, grow);
                    for ((o, &pv), &gv) in g.row_slice_mut(row).iter_mut().zip(prow).zip(grow) {
                        *o = pv * (gv - d);
                    }
                }
                [Some(g), None]
            }
            Op::AttendRows(x, t, ref idx, ref alpha) => {
                attend_rows_adjoint(val(x), val(t), idx, alpha, &grad, ps)
            }
            Op::ConcatCols(a, b) => {
                let ca = val(a).cols();
                [
                    pa.map(|_| grad.slice_cols(0, ca)),
                    pb.map(|_| grad.slice_cols(ca, ca + val(b).cols())),
                ]
            }
            Op::SliceCols(_, start, end) => {
                let mut g = Tensor::zeros(r, c);
                for row in 0..r {
                    g.row_slice_mut(row)[start..end].copy_from_slice(grad.row_slice(row));
                }
                [Some(g), None]
            }
            Op::GatherRows(_, ref indices) => {
                let mut g = Tensor::zeros(r, c);
                g.scatter_add_rows(indices, &grad);
                [Some(g), None]
            }
            Op::Spmm(ref adj_t, _) => {
                let w = grad.cols();
                [
                    Some(Tensor::new(adj_t.n_rows(), w, adj_t.spmm(grad.data(), w))),
                    None,
                ]
            }
            Op::SumAll(_) => [Some(Tensor::full(r, c, grad.item())), None],
            Op::MeanAll(_) => {
                let n = (r * c).max(1) as f32;
                [Some(Tensor::full(r, c, grad.item() / n)), None]
            }
            Op::SumAxisCols(_) => [Some(Tensor::ones(r, c).mul(&grad)), None],
            Op::SumSquares(a) => [Some(val(a).scale(2.0 * grad.item())), None],
            Op::BceWithLogits(x, ref targets) => {
                let scale = grad.item() / (r * c).max(1) as f32;
                let mut g = val(x).clone();
                for (gv, &yv) in g.data_mut().iter_mut().zip(targets.data()) {
                    *gv = (sigmoid_scalar(*gv) - yv) * scale;
                }
                [Some(g), None]
            }
        };
        for (p, c) in ps.into_iter().zip(contributions) {
            if let (Some(p), Some(c)) = (p, c) {
                match &mut grads[p.0] {
                    Some(g) => g.add_assign(&c),
                    slot => *slot = Some(c),
                }
            }
        }
    }

    /// Runs the reverse sweep from `loss`, which must be `1 x 1`.
    ///
    /// May be called once per tape; a second call panics. Afterwards
    /// every leaf that needs a gradient and lies on a path to `loss`
    /// holds it, readable with [`Tape::grad`]. Interior nodes hold none:
    /// each one's gradient is dropped, or handed to a parent, by its own
    /// backward step.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1x1 scalar"
        );
        assert!(self.grads.is_empty(), "backward: tape already swept");
        self.grads.resize_with(self.nodes.len(), || None);
        if !self.nodes[loss.0].needs_grad {
            return; // loss does not depend on any parameter
        }
        self.grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..=loss.0).rev() {
            if self.grads[i].is_none() {
                continue;
            }
            // One profile window per node: exactly node i's backward
            // step. A leaf's step is empty, and it keeps its gradient.
            let timer = profile::op_start();
            if !matches!(self.nodes[i].op, Op::Leaf { .. }) {
                if let Some(grad) = self.grads[i].take() {
                    self.backprop(i, grad);
                }
            }
            if let Some(t) = timer {
                profile::op_finish_bwd(t, self.nodes[i].op.kind(), &self.profile_dims(i));
            }
        }
    }
}

/// `Σ a[k]·b[k]` with `Iterator::sum`, the rounding of
/// [`Tensor::rowwise_dot`].
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(p, q)| p * q).sum()
}

/// Adds the elementwise contribution `c(e) = f(g[e], o[e])` into
/// `slot`. An empty slot takes `g`'s buffer, rewritten to `c`, when `g`
/// is owned (its last use), and a copy otherwise. `o` is the operand
/// `f` reads, shaped like `g`; where `c` reads none, callers pass the
/// node's own value.
fn pour(slot: &mut Option<Tensor>, g: Cow<'_, Tensor>, o: &Tensor, f: impl Fn(f32, f32) -> f32) {
    match slot {
        Some(s) => {
            assert_eq!(s.shape(), g.shape(), "backward: gradient shape mismatch");
            for ((sv, &gv), &ov) in s.data_mut().iter_mut().zip(g.data()).zip(o.data()) {
                *sv += f(gv, ov);
            }
        }
        None => {
            let mut c = g.into_owned();
            for (cv, &ov) in c.data_mut().iter_mut().zip(o.data()) {
                *cv = f(*cv, ov);
            }
            *slot = Some(c);
        }
    }
}

/// [`pour`] for a same-shape binary op: slot 0 then slot 1, each with
/// its operand and `c`, where `ps` names a parent. Slot 0 borrows `g`
/// when slot 1 still needs it.
fn pour_pair(
    grads: &mut [Option<Tensor>],
    g: Tensor,
    ps: [Option<Var>; 2],
    (oa, fa): (&Tensor, impl Fn(f32, f32) -> f32),
    (ob, fb): (&Tensor, impl Fn(f32, f32) -> f32),
) {
    match ps {
        [Some(a), Some(b)] => {
            pour(&mut grads[a.0], Cow::Borrowed(&g), oa, fa);
            pour(&mut grads[b.0], Cow::Owned(g), ob, fb);
        }
        [Some(a), None] => pour(&mut grads[a.0], Cow::Owned(g), oa, fa),
        [None, Some(b)] => pour(&mut grads[b.0], Cow::Owned(g), ob, fb),
        [None, None] => {}
    }
}

/// Adds the rowwise-dot adjoint `c[r][k] = o[r][k] * g[r]` (`g` is
/// `R x 1`) into `slot`.
fn pour_rows(slot: &mut Option<Tensor>, o: &Tensor, g: &Tensor) {
    match slot {
        Some(s) => {
            for (r, &gr) in g.data().iter().enumerate() {
                for (sv, &ov) in s.row_slice_mut(r).iter_mut().zip(o.row_slice(r)) {
                    *sv += ov * gr;
                }
            }
        }
        None => *slot = Some(o.mul(g)),
    }
}

/// Reduces an output-shaped gradient onto a broadcast operand.
fn reduce_for_broadcast(grad: &Tensor, bc: Broadcast) -> Tensor {
    match bc {
        Broadcast::Same => grad.clone(),
        Broadcast::RowVector => grad.sum_axis(Axis::Rows),
        Broadcast::ColVector => grad.sum_axis(Axis::Cols),
        Broadcast::Scalar => Tensor::scalar(grad.sum()),
    }
}

/// An `attend_rows` node's contributions to `x` and to `table`, for the
/// parents `ps` names, given its output gradient `g` and softmax
/// weights `alpha`. Per element they keep the retired chain's order.
/// Scores: `ga_j = Σ_d g[d]·cand_j[d]`, then the softmax adjoint
/// `gs_j = α_j·(ga_j − Σ_k α_k·ga_k)`. User row: the sum, from +0.0, of
/// `cand_j[d]·gs_j` for j ascending. Candidate row: `(g[d]·α_j) +
/// (x[d]·gs_j)`, scattered in (user, j) order into a zeroed table.
fn attend_rows_adjoint(
    x: &Tensor,
    table: &Tensor,
    idx: &[u32],
    alpha: &Tensor,
    g: &Tensor,
    [px, pt]: [Option<Var>; 2],
) -> [Option<Tensor>; 2] {
    let (n, c) = alpha.shape();
    let mut gx = px.map(|_| Tensor::zeros(n, x.cols()));
    let mut gt = pt.map(|_| Tensor::zeros(table.rows(), table.cols()));
    let mut gs = vec![0.0f32; c];
    for i in 0..n {
        let cand = &idx[i * c..(i + 1) * c];
        let (gi, ai) = (g.row_slice(i), alpha.row_slice(i));
        for (s, &j) in gs.iter_mut().zip(cand) {
            *s = dot(gi, table.row_slice(j as usize));
        }
        let d = dot(ai, &gs);
        for (s, &p) in gs.iter_mut().zip(ai) {
            *s = p * (*s - d);
        }
        if let Some(gx) = &mut gx {
            let o = gx.row_slice_mut(i);
            for (&s, &j) in gs.iter().zip(cand) {
                for (o, &v) in o.iter_mut().zip(table.row_slice(j as usize)) {
                    *o += v * s;
                }
            }
        }
        if let Some(gt) = &mut gt {
            for ((&s, &p), &j) in gs.iter().zip(ai).zip(cand) {
                let row = gt.row_slice_mut(j as usize);
                for ((o, &gd), &ud) in row.iter_mut().zip(gi).zip(x.row_slice(i)) {
                    *o += gd * p + ud * s;
                }
            }
        }
    }
    [gx, gt]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_gradient() {
        // loss = mean( (x * 3) + 1 )  => dloss/dx = 3/n
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new(1, 2, vec![1.0, 2.0]));
        let y = t.scale(x, 3.0);
        let z = t.add_scalar(y, 1.0);
        let l = t.mean_all(z);
        t.backward(l);
        let g = t.grad(x).unwrap();
        assert!((g.data()[0] - 1.5).abs() < 1e-6);
        assert!((g.data()[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn matmul_gradients_match_manual() {
        // loss = sum(A @ B); dA = 1 @ B^T, dB = A^T @ 1
        let mut t = Tape::new();
        let a = t.leaf(Tensor::new(2, 2, vec![1., 2., 3., 4.]));
        let b = t.leaf(Tensor::new(2, 2, vec![5., 6., 7., 8.]));
        let c = t.matmul(a, b);
        let l = t.sum_all(c);
        t.backward(l);
        let ga = t.grad(a).unwrap();
        let gb = t.grad(b).unwrap();
        assert_eq!(ga.data(), &[11., 15., 11., 15.]);
        assert_eq!(gb.data(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn constant_gets_no_grad() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(2.0));
        let c = t.constant(Tensor::scalar(3.0));
        let y = t.mul(x, c);
        let l = t.sum_all(y);
        t.backward(l);
        assert!(t.grad(c).is_none());
        assert_eq!(t.grad(x).unwrap().item(), 3.0);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // y = x + x => dy/dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(1.0));
        let y = t.add(x, x);
        let l = t.sum_all(y);
        t.backward(l);
        assert_eq!(t.grad(x).unwrap().item(), 2.0);
    }

    #[test]
    fn bce_with_logits_value_and_grad() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new(1, 2, vec![0.0, 0.0]));
        let y = Rc::new(Tensor::new(1, 2, vec![1.0, 0.0]));
        let l = t.bce_with_logits_mean(x, y);
        // at logit 0: loss = ln 2 each
        assert!((t.value(l).item() - std::f32::consts::LN_2).abs() < 1e-6);
        t.backward(l);
        let g = t.grad(x).unwrap();
        // d/dx = (sigma(0) - y)/2 = (0.5-1)/2, (0.5-0)/2
        assert!((g.data()[0] + 0.25).abs() < 1e-6);
        assert!((g.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1 scalar")]
    fn backward_requires_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros(2, 2));
        t.backward(x);
    }

    #[test]
    #[should_panic(expected = "already swept")]
    fn double_backward_panics() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(1.0));
        let l = t.sum_all(x);
        t.backward(l);
        t.backward(l);
    }

    #[test]
    fn spmm_forward_and_backward() {
        // adjacency 2x3: row0 -> {0:1, 2:0.5}, row1 -> {1:2}
        let adj = Rc::new(Csr::from_edges(
            2,
            3,
            &[(0, 0, 1.0), (0, 2, 0.5), (1, 1, 2.0)],
        ));
        let adj_t = Rc::new(adj.transpose());
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new(3, 1, vec![1., 2., 3.]));
        let y = t.spmm(Rc::clone(&adj), adj_t, x);
        assert_eq!(t.value(y).data(), &[2.5, 4.0]);
        let l = t.sum_all(y);
        t.backward(l);
        // grad x = A^T @ 1 = col sums of A
        assert_eq!(t.grad(x).unwrap().data(), &[1.0, 2.0, 0.5]);
    }

    #[test]
    fn gather_rows_grad_scatters() {
        let mut t = Tape::new();
        let table = t.leaf(Tensor::new(3, 2, vec![1., 1., 2., 2., 3., 3.]));
        let g = t.gather_rows(table, Rc::new(vec![2, 2, 0]));
        let l = t.sum_all(g);
        t.backward(l);
        let grad = t.grad(table).unwrap();
        assert_eq!(grad.row_slice(0), &[1., 1.]);
        assert_eq!(grad.row_slice(1), &[0., 0.]);
        assert_eq!(grad.row_slice(2), &[2., 2.]);
    }

    #[test]
    fn loss_without_params_is_noop() {
        let mut t = Tape::new();
        let c = t.constant(Tensor::scalar(5.0));
        let l = t.sum_all(c);
        t.backward(l); // must not panic
        assert!(t.grad(c).is_none());
    }

    fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (e, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {e}: {g} vs {w}");
        }
    }

    /// `sum_all(a ⊙ w)`: the loss term that hands `a` the gradient `w`.
    fn weighted_sum(t: &mut Tape, a: Var, w: &Tensor) -> Var {
        let w = t.constant(w.clone());
        let m = t.mul(a, w);
        t.sum_all(m)
    }

    /// The retired eight-op complementing chain (gather_rows,
    /// repeat_rows, rowwise_dot, reshape, softmax_rows, reshape, mul,
    /// segment_sum_rows) and its backward in the old sweep's order, on
    /// tensor kernels and plain loops: the output, and the contributions
    /// to `x` and to `table` for output gradient `g`.
    fn retired_chain(x: &Tensor, table: &Tensor, idx: &[u32], g: &Tensor) -> [Tensor; 3] {
        let (n, d, nc) = (x.rows(), x.cols(), idx.len());
        let c = nc / n;
        let repeat = |t: &Tensor| {
            Tensor::new(
                nc,
                d,
                (0..nc).flat_map(|k| t.row_slice(k / c).to_vec()).collect(),
            )
        };
        let segment_sum = |t: &Tensor| {
            let mut s = Tensor::zeros(n, d);
            for k in 0..nc {
                for (o, &v) in s.row_slice_mut(k / c).iter_mut().zip(t.row_slice(k)) {
                    *o += v;
                }
            }
            s
        };
        let (cand, urep) = (table.gather_rows(idx), repeat(x));
        let alpha = urep
            .rowwise_dot(&cand)
            .reshape(n, c)
            .unwrap()
            .softmax_rows();
        let aw = alpha.reshape(nc, 1).unwrap();
        let out = segment_sum(&cand.mul(&aw));
        // Backward from the segment sum. The candidates' slot takes mul's
        // gw ⊙ aw first and adds rowwise_dot's urep ⊙ gs.
        let gw = repeat(g);
        let mut gcand = gw.mul(&aw);
        let ga = gw.mul(&cand).sum_axis(Axis::Cols).reshape(n, c).unwrap();
        let mut gs = Tensor::zeros(n, c); // softmax adjoint
        for i in 0..n {
            let (p, q) = (alpha.row_slice(i), ga.row_slice(i));
            let dot: f32 = p.iter().zip(q).map(|(&pv, &gv)| pv * gv).sum();
            for ((o, &pv), &gv) in gs.row_slice_mut(i).iter_mut().zip(p).zip(q) {
                *o = pv * (gv - dot);
            }
        }
        let gs = gs.reshape(nc, 1).unwrap();
        gcand.add_assign(&urep.mul(&gs));
        let mut gt = Tensor::zeros(table.rows(), d);
        gt.scatter_add_rows(idx, &gcand);
        [out, segment_sum(&cand.mul(&gs)), gt]
    }

    #[test]
    fn attend_rows_matches_the_retired_chain_bit_for_bit() {
        let mut rng = nm_tensor::TensorRng::seed_from(18);
        let rows = 7;
        // random, with +0.0 and -0.0 sprinkled in
        let mut operand = |(r, c): (usize, usize)| {
            let mut t = Tensor::randn(r, c, 1.0, &mut rng);
            for (e, v) in t.data_mut().iter_mut().enumerate() {
                *v = match e % 7 {
                    0 => 0.0,
                    3 => -0.0,
                    _ => *v,
                };
            }
            t
        };
        for (n, c) in [(1, 1), (1, 3), (1, 16), (5, 1), (5, 3), (5, 16)] {
            for prior in [false, true] {
                let what = format!("n={n} c={c} prior={prior}");
                let [mut x, g, px, table, pt] =
                    [(n, 16), (n, 16), (n, 16), (rows, 16), (rows, 16)].map(&mut operand);
                x.row_slice_mut(0).fill(-0.0); // user 0: all-equal scores
                                               // user i has 1 + i % c distinct candidates, cyclically
                                               // padded to c as the model pads them
                let idx: Vec<u32> = (0..n)
                    .flat_map(|i| (0..c).map(move |j| ((i * 3 + j % (1 + i % c)) % rows) as u32))
                    .collect();

                let mut t = Tape::new();
                let (xv, tv) = (t.leaf(x.clone()), t.leaf(table.clone()));
                let a = t.attend_rows(xv, tv, Rc::new(idx.clone()));
                let mut l = weighted_sum(&mut t, a, &g);
                if prior {
                    // later consumers fill both slots before attend_rows adds
                    let lx = weighted_sum(&mut t, xv, &px);
                    let lt = weighted_sum(&mut t, tv, &pt);
                    let s = t.add(l, lx);
                    l = t.add(s, lt);
                }
                t.backward(l);

                let [out, mut gx, mut gt] = retired_chain(&x, &table, &idx, &g);
                if prior {
                    (gx, gt) = (px.add(&gx), pt.add(&gt));
                }
                assert_bits(t.value(a), &out, &format!("forward {what}"));
                assert_bits(t.grad(xv).unwrap(), &gx, &format!("x grad {what}"));
                assert_bits(t.grad(tv).unwrap(), &gt, &format!("table grad {what}"));
            }
        }
    }

    #[test]
    fn sweep_adds_contributions_in_reverse_tape_order() {
        let mut rng = nm_tensor::TensorRng::seed_from(19);
        let x = Tensor::randn(4, 3, 1.0, &mut rng);
        let w = Tensor::randn(3, 5, 1.0, &mut rng);
        let (bias, g_add, g_relu, g_mm) = (
            Tensor::randn(1, 3, 1.0, &mut rng),
            Tensor::randn(4, 3, 1.0, &mut rng),
            Tensor::randn(4, 3, 1.0, &mut rng),
            Tensor::randn(4, 5, 1.0, &mut rng),
        );
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let wv = t.constant(w.clone());
        let mm = t.matmul(xv, wv);
        let r = t.relu(xv);
        let bv = t.constant(bias);
        let s = t.add(xv, bv);
        let terms = [
            weighted_sum(&mut t, mm, &g_mm),
            weighted_sum(&mut t, r, &g_relu),
            weighted_sum(&mut t, s, &g_add),
        ];
        let l01 = t.add(terms[0], terms[1]);
        let l = t.add(l01, terms[2]);
        t.backward(l);
        // contributions arrive add, relu, matmul: the reverse of the tape
        let c1 = g_add;
        let c2 = g_relu.mul(&x.map(|v| if v <= 0.0 { 0.0 } else { 1.0 }));
        let c3 = g_mm.matmul_nt(&w);
        assert_bits(t.grad(xv).unwrap(), &c1.add(&c2).add(&c3), "x grad");
        // interior nodes keep no gradient, nor do constants
        assert!([mm, r, s, l01, l].iter().all(|&v| t.grad(v).is_none()));
        assert!(t.grad(wv).is_none() && t.grad(bv).is_none());
    }

    #[test]
    fn relu_mask_adds_positive_zero_into_negative_zero() {
        // The scale's contribution leaves -0.0 in x's slot; relu then
        // masks that element and must still add its +0.0 (-0.0 + 0.0 is
        // +0.0).
        let mut t = Tape::new();
        let xv = t.leaf(Tensor::new(1, 2, vec![-1.0, 2.0]));
        let r = t.relu(xv);
        let s = t.scale(xv, 1.0);
        let lr = weighted_sum(&mut t, r, &Tensor::new(1, 2, vec![5.0, 5.0]));
        let ls = weighted_sum(&mut t, s, &Tensor::new(1, 2, vec![-0.0, 1.0]));
        let l = t.add(lr, ls);
        t.backward(l);
        let g = t.grad(xv).unwrap();
        assert_eq!(g.data()[0].to_bits(), 0.0f32.to_bits(), "masked element");
        assert_eq!(g.data()[1], 6.0);
    }
}
