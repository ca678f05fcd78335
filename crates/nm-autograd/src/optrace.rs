//! Declarative op-trace export.
//!
//! [`crate::Tape::export_trace`] turns a recorded forward pass into a
//! flat list of [`TraceNode`]s — op kind, parent indices, concrete
//! output shape, and whatever metadata a *re-derivation* of the output
//! shape needs. The trace is the input format of `nm-check`'s symbolic
//! shape & graph verifier: the verifier recomputes every node's shape
//! from its parents with independent rules and cross-checks the result,
//! so a broken shape rule in either place is caught before training.
//!
//! The trace is intentionally value-free (shapes and indices only):
//! recording it on a probe-sized model costs microseconds and the
//! output is stable across runs, which is what makes it usable as a
//! static artifact.

use crate::ops::Op;
use crate::tape::Tape;

/// Every op kind a [`Tape`] can record, in declaration order. The
/// op-registry gradient sweep (`tests/op_registry_sweep.rs`) and
/// `nm-check`'s shape-rule table are both keyed by these names; adding
/// an op without extending them fails the respective suites.
pub const OP_KINDS: &[&str] = &[
    "leaf",
    "add",
    "sub",
    "mul",
    "scale",
    "add_scalar",
    "neg",
    "matmul",
    "relu",
    "sigmoid",
    "tanh",
    "softplus",
    "concat_cols",
    "slice_cols",
    "gather_rows",
    "spmm",
    "rowwise_dot",
    "sum_all",
    "mean_all",
    "sum_axis_cols",
    "softmax_rows",
    "attend_rows",
    "bce_with_logits",
    "sum_squares",
];

/// Shape-relevant metadata of one traced op, beyond parent shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMeta {
    /// The op's output shape is fully determined by its parents.
    None,
    /// `slice_cols` half-open range.
    Slice { start: usize, end: usize },
    /// `gather_rows` and `attend_rows`: number of indices and the
    /// largest index.
    Gather { len: usize, max_index: usize },
    /// `spmm`: the sparse operand's shape (rows x cols of `adj`).
    Spmm { rows: usize, cols: usize },
    /// `bce_with_logits`: shape of the fixed target tensor.
    Targets { rows: usize, cols: usize },
}

/// One node of an exported op trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Op kind name; one of [`OP_KINDS`].
    pub kind: &'static str,
    /// Parent node indices (must all be `<` this node's index in a
    /// well-formed trace).
    pub parents: Vec<usize>,
    /// Recorded output shape.
    pub rows: usize,
    pub cols: usize,
    /// Whether a gradient can flow into this node.
    pub requires_grad: bool,
    pub meta: TraceMeta,
}

impl TraceNode {
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl Tape {
    /// Exports the recorded forward pass as a declarative op trace.
    pub fn export_trace(&self) -> Vec<TraceNode> {
        self.nodes_for_trace()
            .map(|(op, shape, requires_grad)| {
                let parents = op.parents().iter().flatten().map(|v| v.0).collect();
                TraceNode {
                    kind: op.kind(),
                    parents,
                    rows: shape.0,
                    cols: shape.1,
                    requires_grad,
                    meta: describe(op),
                }
            })
            .collect()
    }
}

/// The shape-relevant metadata of `op`; its kind comes from
/// [`Op::kind`], the one op-name table.
fn describe(op: &Op) -> TraceMeta {
    match op {
        &Op::SliceCols(_, start, end) => TraceMeta::Slice { start, end },
        Op::GatherRows(_, idx) | Op::AttendRows(_, _, idx, _) => gather_meta(idx),
        // `Op` stores the precomputed transpose; report the forward
        // operand's shape (adj = adj_t^T).
        Op::Spmm(adj_t, _) => TraceMeta::Spmm {
            rows: adj_t.n_cols(),
            cols: adj_t.n_rows(),
        },
        Op::BceWithLogits(_, targets) => TraceMeta::Targets {
            rows: targets.rows(),
            cols: targets.cols(),
        },
        _ => TraceMeta::None,
    }
}

fn gather_meta(idx: &[u32]) -> TraceMeta {
    TraceMeta::Gather {
        len: idx.len(),
        max_index: idx.iter().copied().max().unwrap_or(0) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_tensor::Tensor;

    #[test]
    fn export_covers_simple_graph() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros(2, 3));
        let c = t.constant(Tensor::zeros(1, 3));
        let s = t.add(x, c);
        let l = t.mean_all(s);
        let trace = t.export_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0].kind, "leaf");
        assert!(trace[0].requires_grad);
        assert_eq!(trace[1].kind, "leaf");
        assert!(!trace[1].requires_grad);
        assert_eq!(trace[2].kind, "add");
        assert_eq!(trace[2].parents, vec![x.0, c.0]);
        assert_eq!(trace[2].shape(), (2, 3));
        assert_eq!(trace[3].kind, "mean_all");
        assert_eq!(trace[l.0].shape(), (1, 1));
    }

    #[test]
    fn meta_captures_shape_relevant_payloads() {
        use std::rc::Rc;
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros(4, 2));
        let g = t.gather_rows(x, Rc::new(vec![3, 0, 3]));
        let a = t.attend_rows(g, x, Rc::new(vec![1, 2, 0, 2, 1, 1]));
        let sl = t.slice_cols(a, 1, 2);
        let trace = t.export_trace();
        assert_eq!(
            trace[g.0].meta,
            TraceMeta::Gather {
                len: 3,
                max_index: 3
            }
        );
        assert_eq!(
            trace[a.0].meta,
            TraceMeta::Gather {
                len: 6,
                max_index: 2
            }
        );
        assert_eq!(trace[sl.0].meta, TraceMeta::Slice { start: 1, end: 2 });
    }

    #[test]
    fn every_exported_kind_is_registered() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros(2, 2));
        let y = t.relu(x);
        let _ = t.sum_all(y);
        for node in t.export_trace() {
            assert!(OP_KINDS.contains(&node.kind), "unregistered {}", node.kind);
        }
    }
}
