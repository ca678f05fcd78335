//! The tape's operation set.
//!
//! Each variant stores the parent [`Var`]s plus whatever the backward
//! pass needs (broadcast classification, indices, the sparse matrix and
//! its precomputed transpose, …). Backward logic lives in
//! [`crate::tape`] next to the forward constructors so the pair can be
//! reviewed together.

use crate::tape::Var;
use nm_graph::Csr;
use nm_tensor::{Broadcast, Tensor};
use std::rc::Rc;

/// One recorded operation.
pub(crate) enum Op {
    /// Input node; `requires_grad` marks trainable parameters.
    Leaf {
        requires_grad: bool,
    },
    /// `a + b` with `b` broadcast per the stored classification.
    Add(Var, Var, Broadcast),
    /// `a - b` with `b` broadcast.
    Sub(Var, Var, Broadcast),
    /// Hadamard `a ⊙ b` with `b` broadcast.
    Mul(Var, Var, Broadcast),
    /// `a * s`.
    Scale(Var, f32),
    /// `a + s` elementwise.
    AddScalar(Var),
    /// `-a`.
    Neg(Var),
    /// Dense `a @ b`.
    Matmul(Var, Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Softplus(Var),
    /// `[a | b]` horizontal concat.
    ConcatCols(Var, Var),
    /// Copy of cols `[start, end)`.
    SliceCols(Var, usize, usize),
    /// Row gather (embedding lookup). Backward scatter-adds.
    GatherRows(Var, Rc<Vec<u32>>),
    /// Sparse-dense product `A @ x`; stores `A^T` so backward is one
    /// more SpMM (the forward product is computed before recording).
    Spmm(Rc<Csr>, Var),
    /// Per-row dot product -> `R x 1`.
    RowwiseDot(Var, Var),
    /// Sum of all elements -> scalar.
    SumAll(Var),
    /// Mean of all elements -> scalar.
    MeanAll(Var),
    /// Row sums -> `R x 1`.
    SumAxisCols(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Intra node complementing (Eq. 18–19): `(x, table, idx, alpha)`,
    /// row `i` of `x` attending over the `C` rows of `table` named by
    /// `idx[i*C..(i+1)*C]`; `alpha` keeps the `N x C` softmax weights.
    AttendRows(Var, Var, Rc<Vec<u32>>, Tensor),
    /// Fused mean BCE-with-logits against fixed targets -> scalar.
    BceWithLogits(Var, Rc<Tensor>),
    /// Sum of squared elements -> scalar (L2 regularization).
    SumSquares(Var),
}

impl Op {
    /// Registry name of this op — one of [`crate::OP_KINDS`]. The one
    /// op-name table: the profiler's per-op hot path and the op-trace
    /// export both read it.
    pub(crate) fn kind(&self) -> &'static str {
        use Op::*;
        match self {
            Leaf { .. } => "leaf",
            Add(..) => "add",
            Sub(..) => "sub",
            Mul(..) => "mul",
            Scale(..) => "scale",
            AddScalar(..) => "add_scalar",
            Neg(..) => "neg",
            Matmul(..) => "matmul",
            Relu(..) => "relu",
            Sigmoid(..) => "sigmoid",
            Tanh(..) => "tanh",
            Softplus(..) => "softplus",
            ConcatCols(..) => "concat_cols",
            SliceCols(..) => "slice_cols",
            GatherRows(..) => "gather_rows",
            Spmm(..) => "spmm",
            RowwiseDot(..) => "rowwise_dot",
            SumAll(..) => "sum_all",
            MeanAll(..) => "mean_all",
            SumAxisCols(..) => "sum_axis_cols",
            SoftmaxRows(..) => "softmax_rows",
            AttendRows(..) => "attend_rows",
            BceWithLogits(..) => "bce_with_logits",
            SumSquares(..) => "sum_squares",
        }
    }

    /// Parents whose gradients this op can influence.
    pub(crate) fn parents(&self) -> [Option<Var>; 2] {
        use Op::*;
        match *self {
            Leaf { .. } => [None, None],
            Add(a, b, _)
            | Sub(a, b, _)
            | Mul(a, b, _)
            | Matmul(a, b)
            | ConcatCols(a, b)
            | RowwiseDot(a, b)
            | AttendRows(a, b, ..) => [Some(a), Some(b)],
            Scale(a, _)
            | AddScalar(a)
            | Neg(a)
            | Relu(a)
            | Sigmoid(a)
            | Tanh(a)
            | Softplus(a)
            | SliceCols(a, _, _)
            | GatherRows(a, _)
            | Spmm(_, a)
            | SumAll(a)
            | MeanAll(a)
            | SumAxisCols(a)
            | SoftmaxRows(a)
            | BceWithLogits(a, _)
            | SumSquares(a) => [Some(a), None],
        }
    }
}
