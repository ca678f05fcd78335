//! The autodiff tape: forward constructors and the reverse sweep.

use crate::cost::OpDims;
use crate::ops::Op;
use crate::profile;
use nm_graph::Csr;
use nm_tensor::{classify_broadcast, sigmoid_scalar, Axis, Broadcast, Tensor};
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
    pub grad: Option<Tensor>,
    pub needs_grad: bool,
    pub op: Op,
}

/// A single-use computation tape. Build the forward pass through the
/// constructor methods, call [`Tape::backward`] once on a scalar loss,
/// read gradients with [`Tape::grad`], then drop the tape.
pub struct Tape {
    nodes: Vec<Node>,
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
    /// parents' shapes, and (for SpMM) the sparse operand's nnz.
    fn profile_dims(&self, i: usize) -> OpDims {
        let node = &self.nodes[i];
        let ps = node.op.parents();
        let shape_of = |v: Option<Var>| v.map_or((0, 0), |v| self.nodes[v.0].value.shape());
        let nnz = match &node.op {
            Op::Spmm(adj_t, _) => adj_t.nnz(),
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
            grad: None,
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

    /// The accumulated gradient of `v`, if it required one and
    /// `backward` has run.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
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

    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let t = profile::op_start();
        let value = self
            .value(a)
            .reshape(rows, cols)
            .expect("tape.reshape: element count mismatch");
        let v = self.push(value, Op::Reshape(a));
        self.finish_fwd(t, v)
    }

    /// Repeats each row `k` times consecutively: `R x C -> (R*k) x C`.
    pub fn repeat_rows(&mut self, a: Var, k: usize) -> Var {
        let t = profile::op_start();
        assert!(k > 0, "repeat_rows: k must be positive");
        let src = self.value(a);
        let (r, c) = src.shape();
        let mut out = Tensor::zeros(r * k, c);
        for i in 0..r {
            let row = src.row_slice(i);
            for j in 0..k {
                out.row_slice_mut(i * k + j).copy_from_slice(row);
            }
        }
        let v = self.push(out, Op::RepeatRows(a, k));
        self.finish_fwd(t, v)
    }

    /// Sums consecutive groups of `k` rows: `(R*k) x C -> R x C`.
    pub fn segment_sum_rows(&mut self, a: Var, k: usize) -> Var {
        let t = profile::op_start();
        assert!(k > 0, "segment_sum_rows: k must be positive");
        let src = self.value(a);
        let (rk, c) = src.shape();
        assert_eq!(
            rk % k,
            0,
            "segment_sum_rows: {rk} rows not divisible by {k}"
        );
        let r = rk / k;
        let mut out = Tensor::zeros(r, c);
        for i in 0..r {
            for j in 0..k {
                let s = src.row_slice(i * k + j);
                for (o, &v) in out.row_slice_mut(i).iter_mut().zip(s) {
                    *o += v;
                }
            }
        }
        let v = self.push(out, Op::SegmentSumRows(a, k));
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

    /// Adds a finished contribution into `v`'s gradient slot. The sum is
    /// `g + contribution`, elementwise, after the contribution is fully
    /// computed: folding a kernel's partial sums straight into `g` would
    /// round differently.
    fn accumulate(&mut self, v: Var, contribution: Tensor) {
        match &mut self.nodes[v.0].grad {
            Some(g) => g.add_assign(&contribution),
            slot @ None => *slot = Some(contribution),
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

    /// Node `i`'s contribution to the gradient of its parent in `slot`
    /// (the position [`Op::parents`] gives it), from node `i`'s own
    /// gradient `grad`. Operand values are borrowed from the tape.
    fn adjoint(&self, i: usize, slot: usize, grad: &Tensor) -> Tensor {
        let val = |v: Var| &self.nodes[v.0].value;
        let y = &self.nodes[i].value;
        match (&self.nodes[i].op, slot) {
            (Op::Leaf { .. }, _) => unreachable!("a leaf has no parents"),
            (Op::Add(..) | Op::Sub(..), 0) | (Op::AddScalar(_), _) => grad.clone(),
            (&Op::Add(_, _, bc), _) => Self::reduce_for_broadcast(grad, bc),
            (&Op::Sub(_, _, bc), _) => Self::reduce_for_broadcast(grad, bc).neg(),
            // d/da: grad ⊙ b (b broadcasts onto grad's shape)
            (&Op::Mul(_, b, _), 0) => grad.mul(val(b)),
            // d/db: reduce(grad ⊙ a) onto b's shape
            (&Op::Mul(a, _, bc), _) => Self::reduce_for_broadcast(&grad.mul(val(a)), bc),
            (&Op::Scale(_, s), _) => grad.scale(s),
            (Op::Neg(_), _) => grad.neg(),
            (&Op::Matmul(_, b), 0) => grad.matmul_nt(val(b)),
            (&Op::Matmul(a, _), _) => val(a).matmul_tn(grad),
            (&Op::Relu(a), _) => {
                let mut g = grad.clone();
                for (gv, &xv) in g.data_mut().iter_mut().zip(val(a).data()) {
                    if xv <= 0.0 {
                        *gv = 0.0;
                    }
                }
                g
            }
            (Op::Sigmoid(_), _) => {
                let mut g = grad.clone();
                for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
                    *gv *= yv * (1.0 - yv);
                }
                g
            }
            (Op::Tanh(_), _) => {
                let mut g = grad.clone();
                for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
                    *gv *= 1.0 - yv * yv;
                }
                g
            }
            (&Op::Softplus(a), _) => {
                let mut g = grad.clone();
                for (gv, &x) in g.data_mut().iter_mut().zip(val(a).data()) {
                    *gv *= sigmoid_scalar(x);
                }
                g
            }
            (Op::SoftmaxRows(_), _) => {
                let (r, c) = y.shape();
                let mut g = Tensor::zeros(r, c);
                for row in 0..r {
                    let prow = y.row_slice(row);
                    let grow = grad.row_slice(row);
                    let dot: f32 = prow.iter().zip(grow).map(|(&pv, &gv)| pv * gv).sum();
                    for ((o, &pv), &gv) in g.row_slice_mut(row).iter_mut().zip(prow).zip(grow) {
                        *o = pv * (gv - dot);
                    }
                }
                g
            }
            (&Op::ConcatCols(a, _), 0) => grad.slice_cols(0, val(a).cols()),
            (&Op::ConcatCols(a, b), _) => {
                let ca = val(a).cols();
                grad.slice_cols(ca, ca + val(b).cols())
            }
            (&Op::SliceCols(a, start, end), _) => {
                let (r, c) = val(a).shape();
                let mut g = Tensor::zeros(r, c);
                for row in 0..r {
                    g.row_slice_mut(row)[start..end].copy_from_slice(grad.row_slice(row));
                }
                g
            }
            (Op::GatherRows(a, indices), _) => {
                let (r, c) = val(*a).shape();
                let mut g = Tensor::zeros(r, c);
                g.scatter_add_rows(indices, grad);
                g
            }
            (Op::Spmm(adj_t, _), _) => {
                let width = grad.cols();
                Tensor::new(adj_t.n_rows(), width, adj_t.spmm(grad.data(), width))
            }
            // grad is R x 1; broadcast across columns
            (&Op::RowwiseDot(_, b), 0) => val(b).mul(grad),
            (&Op::RowwiseDot(a, _), _) => val(a).mul(grad),
            (&Op::SumAll(a), _) => {
                let (r, c) = val(a).shape();
                Tensor::full(r, c, grad.item())
            }
            (&Op::MeanAll(a), _) => {
                let (r, c) = val(a).shape();
                let n = (r * c).max(1) as f32;
                Tensor::full(r, c, grad.item() / n)
            }
            // grad: R x 1 broadcast across the row
            (&Op::SumAxisCols(a), _) => {
                let (r, c) = val(a).shape();
                Tensor::ones(r, c).mul(grad)
            }
            (&Op::SumSquares(a), _) => val(a).scale(2.0 * grad.item()),
            (Op::BceWithLogits(x, targets), _) => {
                let xv = val(*x);
                let n = xv.len().max(1) as f32;
                let scale = grad.item() / n;
                let mut g = xv.clone();
                for (gv, &yv) in g.data_mut().iter_mut().zip(targets.data()) {
                    *gv = (sigmoid_scalar(*gv) - yv) * scale;
                }
                g
            }
            (&Op::Reshape(a), _) => {
                let (r, c) = val(a).shape();
                grad.reshape(r, c).expect("reshape backward")
            }
            // adjoint of repeat = segment sum
            (&Op::RepeatRows(_, k), _) => {
                let (rk, c) = grad.shape();
                let r = rk / k;
                let mut g = Tensor::zeros(r, c);
                for row in 0..r {
                    for j in 0..k {
                        let s = grad.row_slice(row * k + j);
                        for (o, &v) in g.row_slice_mut(row).iter_mut().zip(s) {
                            *o += v;
                        }
                    }
                }
                g
            }
            // adjoint of segment sum = repeat
            (&Op::SegmentSumRows(_, k), _) => {
                let (r, c) = grad.shape();
                let mut g = Tensor::zeros(r * k, c);
                for row in 0..r {
                    let s = grad.row_slice(row);
                    for j in 0..k {
                        g.row_slice_mut(row * k + j).copy_from_slice(s);
                    }
                }
                g
            }
        }
    }

    /// Runs the reverse sweep from `loss`, which must be `1 x 1`.
    ///
    /// May be called once per tape; a second call would double-count
    /// (gradients accumulate), so it panics. Afterwards every node that
    /// needs a gradient and lies on a path to `loss` holds it.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1x1 scalar"
        );
        assert!(
            self.nodes.iter().all(|n| n.grad.is_none()),
            "backward: tape already swept"
        );
        if !self.nodes[loss.0].needs_grad {
            return; // loss does not depend on any parameter
        }
        self.nodes[loss.0].grad = Some(Tensor::scalar(1.0));

        for i in (0..=loss.0).rev() {
            // Out of its slot for this step, so the sweep can borrow it
            // while accumulating into the parents; put back below.
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            // One profile window per node: the body below is exactly
            // node i's backward kernel (adjoint computation plus the
            // accumulate into its parents).
            let timer = profile::op_start();
            for (slot, parent) in self.nodes[i].op.parents().into_iter().enumerate() {
                // Only a parent that needs a gradient gets one computed.
                if let Some(p) = parent.filter(|p| self.nodes[p.0].needs_grad) {
                    let contribution = self.adjoint(i, slot, &grad);
                    self.accumulate(p, contribution);
                }
            }
            self.nodes[i].grad = Some(grad);
            if let Some(t) = timer {
                profile::op_finish_bwd(t, self.nodes[i].op.kind(), &self.profile_dims(i));
            }
        }
    }
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
    fn repeat_and_segment_sum_are_adjoint_shapes() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::new(2, 2, vec![1., 2., 3., 4.]));
        let r = t.repeat_rows(x, 3);
        assert_eq!(t.value(r).shape(), (6, 2));
        let s = t.segment_sum_rows(r, 3);
        assert_eq!(t.value(s).shape(), (2, 2));
        // segment_sum(repeat(x, 3), 3) == 3x
        assert_eq!(t.value(s).data(), &[3., 6., 9., 12.]);
        let l = t.sum_all(s);
        t.backward(l);
        assert_eq!(t.grad(x).unwrap().data(), &[3., 3., 3., 3.]);
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
}
