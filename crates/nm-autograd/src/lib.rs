//! # nm-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`nm_tensor::Tensor`], purpose-built for the NMCDR reproduction.
//!
//! ## Model
//!
//! A [`Tape`] records a DAG of operations as they execute. Each op
//! returns a [`Var`] — a copyable index into the tape. Calling
//! [`Tape::backward`] on a scalar loss seeds its gradient with 1 and
//! sweeps the tape in reverse, adding each contribution straight into
//! its parent's gradient slot; only leaves keep their gradients. One
//! tape is built per training step and dropped afterwards; parameters
//! live outside the tape (see `nm-nn`) and are re-bound as leaves each
//! step.
//!
//! ## Op coverage
//!
//! Exactly what the paper's models need: dense matmul, broadcasting
//! arithmetic, ReLU/sigmoid/tanh/softplus, row softmax, CSR SpMM (the
//! GNN aggregation kernel, Eq. 4/9/14), row gather/scatter (embedding
//! lookup), a fused per-user attention over candidate items
//! (`attend_rows`, Eq. 18–19), concat, slicing, reductions, and a fused
//! numerically-stable `BCE-with-logits` loss (Eq. 21).
//!
//! Gradients are verified against central finite differences in
//! `tests/grad_check.rs` for every op.

//!
//! ## Profiling
//!
//! [`profile`] attributes forward/backward self-time, modeled
//! FLOPs/bytes (from the analytic rules in [`cost`]), and tensor
//! allocation traffic to each [`OP_KINDS`] entry. Disabled (the
//! default) it costs one relaxed atomic load per op.

mod check;
pub mod cost;
mod ops;
pub mod optrace;
pub mod profile;
mod tape;

pub use check::finite_difference_grad;
pub use cost::{cost_for, has_rule, OpCost, OpDims};
pub use optrace::{TraceMeta, TraceNode, OP_KINDS};
pub use profile::OpAgg;
pub use tape::{Tape, Var};
