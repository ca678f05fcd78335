//! Symbolic shape & graph verifier over exported op-traces.
//!
//! The autograd tape already computes concrete shapes; trusting it to
//! check itself would prove nothing. This pass re-derives every node's
//! output shape from an independent rule table keyed by op kind
//! ([`nm_autograd::OP_KINDS`]) and cross-checks the recorded shape,
//! verifies broadcast legality with
//! [`nm_tensor::try_classify_broadcast`], checks the trace is a DAG in
//! topological order, and checks gradient reachability from the loss
//! for every bound parameter.
//!
//! Symbolic dimensions are handled by two-point evaluation: the same
//! model is traced at two distinct batch-size pairs and
//! [`compare_symbolic`] demands (a) structural identity and (b) that
//! the dim substitution between the traces is a consistent function
//! pinned at the batch sizes. A concrete dim equal to `B` in one trace
//! that fails to become `B'` in the other means a batch dim leaked
//! into a supposedly fixed slot (or vice versa) — exactly the class of
//! bug concrete-shape checks at a single size cannot see.

use crate::{Diagnostic, Pass};
use nm_autograd::{TraceMeta, TraceNode, OP_KINDS};
use nm_tensor::try_classify_broadcast;
use std::collections::BTreeMap;

fn diag(rule: &str, loc: String, msg: String) -> Diagnostic {
    Diagnostic::new(Pass::Shape, format!("shape/{rule}"), loc, msg)
}

fn node_loc(i: usize, n: &TraceNode) -> String {
    format!("node#{i}({})", n.kind)
}

/// Structural + shape verification of one trace. Returns every finding
/// rather than stopping at the first, so a CI log shows the full blast
/// radius of a bad refactor at once.
pub fn verify_trace(trace: &[TraceNode]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, n) in trace.iter().enumerate() {
        if !OP_KINDS.contains(&n.kind) {
            out.push(diag(
                "unknown-op",
                node_loc(i, n),
                format!("op kind {:?} has no shape rule", n.kind),
            ));
            continue;
        }
        // DAG / topological order: parents strictly precede children.
        let mut ordered = true;
        for &p in &n.parents {
            if p >= i {
                ordered = false;
                out.push(diag(
                    "cycle",
                    node_loc(i, n),
                    format!("parent #{p} does not precede node #{i}: trace is not in topological order (cycle or corrupted graph)"),
                ));
            }
        }
        if !ordered {
            continue; // shape rules below would index out of order
        }
        let arity_ok = check_arity(i, n, &mut out);
        if !arity_ok {
            continue;
        }
        if let Some(expected) = derive_shape(trace, i, n, &mut out) {
            if expected != (n.rows, n.cols) {
                out.push(diag(
                    "mismatch",
                    node_loc(i, n),
                    format!(
                        "recorded shape {}x{} but rule derives {}x{}",
                        n.rows, n.cols, expected.0, expected.1
                    ),
                ));
            }
        }
    }
    out
}

fn check_arity(i: usize, n: &TraceNode, out: &mut Vec<Diagnostic>) -> bool {
    let want: usize = match n.kind {
        "leaf" => 0,
        "add" | "sub" | "mul" | "matmul" | "concat_cols" | "rowwise_dot" | "attend_rows" => 2,
        _ => 1,
    };
    if n.parents.len() != want {
        out.push(diag(
            "arity",
            node_loc(i, n),
            format!("{} parents, rule expects {}", n.parents.len(), want),
        ));
        return false;
    }
    true
}

/// Independent re-derivation of the node's output shape from its
/// parents' recorded shapes. Returns `None` when a precondition already
/// failed (diagnostic pushed) — the shape comparison is skipped to
/// avoid cascading noise.
fn derive_shape(
    trace: &[TraceNode],
    i: usize,
    n: &TraceNode,
    out: &mut Vec<Diagnostic>,
) -> Option<(usize, usize)> {
    let p = |k: usize| {
        let t = &trace[n.parents[k]];
        (t.rows, t.cols)
    };
    match n.kind {
        // Leaves are the verifier's inputs; their shape is ground truth.
        "leaf" => Some((n.rows, n.cols)),
        "add" | "sub" | "mul" => {
            let (a, b) = (p(0), p(1));
            if try_classify_broadcast(a, b).is_none() {
                out.push(diag(
                    "broadcast",
                    node_loc(i, n),
                    format!(
                        "illegal broadcast {}x{} (+) {}x{}: rhs must be equal, 1x1, 1xC, or Rx1",
                        a.0, a.1, b.0, b.1
                    ),
                ));
                return None;
            }
            Some(a)
        }
        "scale" | "add_scalar" | "neg" | "relu" | "sigmoid" | "tanh" | "softplus"
        | "softmax_rows" => Some(p(0)),
        "matmul" => {
            let (a, b) = (p(0), p(1));
            if a.1 != b.0 {
                out.push(diag(
                    "matmul",
                    node_loc(i, n),
                    format!("inner dims differ: {}x{} @ {}x{}", a.0, a.1, b.0, b.1),
                ));
                return None;
            }
            Some((a.0, b.1))
        }
        "concat_cols" => {
            let (a, b) = (p(0), p(1));
            if a.0 != b.0 {
                out.push(diag(
                    "concat",
                    node_loc(i, n),
                    format!("row counts differ: {}x{} | {}x{}", a.0, a.1, b.0, b.1),
                ));
                return None;
            }
            Some((a.0, a.1 + b.1))
        }
        "slice_cols" => {
            let a = p(0);
            let TraceMeta::Slice { start, end } = n.meta else {
                out.push(diag(
                    "meta",
                    node_loc(i, n),
                    "slice without Slice metadata".into(),
                ));
                return None;
            };
            if start >= end || end > a.1 {
                out.push(diag(
                    "slice-range",
                    node_loc(i, n),
                    format!("range {start}..{end} invalid for extent {}", a.1),
                ));
                return None;
            }
            Some((a.0, end - start))
        }
        "gather_rows" => {
            let a = p(0);
            let TraceMeta::Gather { len, max_index } = n.meta else {
                out.push(diag(
                    "meta",
                    node_loc(i, n),
                    "gather without Gather metadata".into(),
                ));
                return None;
            };
            if len > 0 && max_index >= a.0 {
                out.push(diag(
                    "gather-oob",
                    node_loc(i, n),
                    format!("index {max_index} out of bounds for {} rows", a.0),
                ));
                return None;
            }
            Some((len, a.1))
        }
        "spmm" => {
            let x = p(0);
            let TraceMeta::Spmm { rows, cols } = n.meta else {
                out.push(diag(
                    "meta",
                    node_loc(i, n),
                    "spmm without Spmm metadata".into(),
                ));
                return None;
            };
            if cols != x.0 {
                out.push(diag(
                    "spmm",
                    node_loc(i, n),
                    format!(
                        "adjacency is {rows}x{cols} but dense operand has {} rows",
                        x.0
                    ),
                ));
                return None;
            }
            Some((rows, x.1))
        }
        "rowwise_dot" => {
            let (a, b) = (p(0), p(1));
            if a != b {
                out.push(diag(
                    "rowwise-dot",
                    node_loc(i, n),
                    format!("operand shapes differ: {}x{} vs {}x{}", a.0, a.1, b.0, b.1),
                ));
                return None;
            }
            Some((a.0, 1))
        }
        "sum_all" | "mean_all" | "sum_squares" => Some((1, 1)),
        "sum_axis_cols" => Some((p(0).0, 1)),
        "bce_with_logits" => {
            let a = p(0);
            let TraceMeta::Targets { rows, cols } = n.meta else {
                out.push(diag(
                    "meta",
                    node_loc(i, n),
                    "bce without Targets metadata".into(),
                ));
                return None;
            };
            if (rows, cols) != a {
                out.push(diag(
                    "bce-targets",
                    node_loc(i, n),
                    format!(
                        "logits {}x{} vs targets {rows}x{cols}: must match exactly",
                        a.0, a.1
                    ),
                ));
                return None;
            }
            Some((1, 1))
        }
        "attend_rows" => {
            let (x, t) = (p(0), p(1));
            let TraceMeta::Gather { len, max_index } = n.meta else {
                out.push(diag(
                    "meta",
                    node_loc(i, n),
                    "attend_rows without Gather metadata".into(),
                ));
                return None;
            };
            if x.0 == 0 || !len.is_multiple_of(x.0) {
                out.push(diag(
                    "attend-group",
                    node_loc(i, n),
                    format!("{len} candidates do not split over {} rows", x.0),
                ));
                return None;
            }
            if len > 0 && max_index >= t.0 {
                out.push(diag(
                    "gather-oob",
                    node_loc(i, n),
                    format!("index {max_index} out of bounds for {} rows", t.0),
                ));
                return None;
            }
            if x.1 != t.1 {
                out.push(diag(
                    "attend-cols",
                    node_loc(i, n),
                    format!(
                        "column counts differ: {}x{} vs table {}x{}",
                        x.0, x.1, t.0, t.1
                    ),
                ));
                return None;
            }
            Some(x)
        }
        _ => unreachable!("kind membership checked against OP_KINDS"),
    }
}

/// Verifies the loss node is a differentiable scalar and that every
/// named parameter's leaf is an ancestor of it. `params` maps a
/// parameter's display name to its trace node index, or `None` when the
/// parameter never bound onto the tape at all (detected by the caller:
/// a post-loss bind that *grows* the tape was never part of the loss).
pub fn verify_reachability(
    trace: &[TraceNode],
    loss: usize,
    params: &[(String, Option<usize>)],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(loss_node) = trace.get(loss) else {
        out.push(diag(
            "loss",
            format!("node#{loss}"),
            "loss index out of bounds".into(),
        ));
        return out;
    };
    if (loss_node.rows, loss_node.cols) != (1, 1) {
        out.push(diag(
            "loss",
            node_loc(loss, loss_node),
            format!(
                "loss must be scalar, got {}x{}",
                loss_node.rows, loss_node.cols
            ),
        ));
    }
    if !loss_node.requires_grad {
        out.push(diag(
            "loss",
            node_loc(loss, loss_node),
            "loss does not require grad: no parameter can train".into(),
        ));
    }

    // Ancestor set of the loss, walking recorded parent edges.
    let mut reachable = vec![false; trace.len()];
    let mut stack = vec![loss.min(trace.len().saturating_sub(1))];
    reachable[stack[0]] = true;
    while let Some(i) = stack.pop() {
        for &p in &trace[i].parents {
            if p < trace.len() && !reachable[p] {
                reachable[p] = true;
                stack.push(p);
            }
        }
    }

    for (name, var) in params {
        match var {
            None => out.push(diag(
                "unreachable-param",
                name.clone(),
                "parameter never bound to the loss tape: it receives a zero gradient every step"
                    .into(),
            )),
            Some(i) if *i >= trace.len() => out.push(diag(
                "unreachable-param",
                name.clone(),
                format!("bound var #{i} out of trace bounds"),
            )),
            Some(i) if !reachable[*i] => out.push(diag(
                "unreachable-param",
                name.clone(),
                format!("leaf node#{i} is not an ancestor of the loss: gradient is silently zero"),
            )),
            Some(i) => {
                if !trace[*i].requires_grad {
                    out.push(diag(
                        "unreachable-param",
                        name.clone(),
                        format!("leaf node#{i} does not require grad"),
                    ));
                }
            }
        }
    }
    out
}

/// Two-point symbolic dim verification. `a`/`b` are traces of the same
/// model at batch sizes `dims_a`/`dims_b` (per-domain batch rows). The
/// traces must be structurally identical, and the substitution between
/// their concrete dims must be a consistent function that maps each
/// batch size of run A to the corresponding batch size of run B and
/// leaves every other dim fixed.
pub fn compare_symbolic(
    a: &[TraceNode],
    b: &[TraceNode],
    dims_a: &[usize],
    dims_b: &[usize],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if a.len() != b.len() {
        out.push(diag(
            "symbolic",
            "trace".into(),
            format!(
                "trace length depends on batch size: {} vs {} nodes — control flow is not \
                 shape-polymorphic",
                a.len(),
                b.len()
            ),
        ));
        return out;
    }
    // substitution: concrete dim in A -> concrete dim in B
    let mut subst: BTreeMap<usize, usize> = BTreeMap::new();
    for (&da, &db) in dims_a.iter().zip(dims_b) {
        subst.insert(da, db);
    }
    let pinned: Vec<usize> = dims_a.to_vec();

    for (i, (na, nb)) in a.iter().zip(b).enumerate() {
        if na.kind != nb.kind || na.parents != nb.parents {
            out.push(diag(
                "symbolic",
                node_loc(i, na),
                format!(
                    "structure differs between batch sizes: {}({:?}) vs {}({:?})",
                    na.kind, na.parents, nb.kind, nb.parents
                ),
            ));
            continue;
        }
        for (axis, da, db) in [(0, na.rows, nb.rows), (1, na.cols, nb.cols)] {
            let axis_name = if axis == 0 { "rows" } else { "cols" };
            if da == db {
                // A dim staying fixed while it equals a batch size is
                // suspicious only if the batch sizes collide — the
                // caller picks probe sizes that avoid every fixed dim.
                if pinned.contains(&da) {
                    out.push(diag(
                        "symbolic",
                        node_loc(i, na),
                        format!(
                            "{axis_name}={da} equals a batch size but did not change with it: \
                             a batch dim is hard-coded"
                        ),
                    ));
                }
                continue;
            }
            match subst.get(&da) {
                Some(&expect) if expect == db => {}
                Some(&expect) => out.push(diag(
                    "symbolic",
                    node_loc(i, na),
                    format!(
                        "{axis_name} maps {da}->{db}, but {da} already maps to {expect}: \
                         inconsistent symbolic dim"
                    ),
                )),
                None => {
                    // New varying dim: accept it only if it is a clean
                    // multiple of a known batch mapping (e.g. B*k rows
                    // gathered k per batch row) — record it for
                    // consistency.
                    let derived = dims_a.iter().zip(dims_b).find_map(|(&ba, &bb)| {
                        (ba != 0 && da % ba == 0 && db == (da / ba) * bb).then_some(())
                    });
                    if derived.is_some() {
                        subst.insert(da, db);
                    } else {
                        out.push(diag(
                            "symbolic",
                            node_loc(i, na),
                            format!(
                                "{axis_name} varies {da}->{db} but corresponds to no batch \
                                 dim: unexplained symbolic dimension"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Profiler cost-model coverage: every op kind in the registry must
/// have an analytic FLOP/byte rule, or the roofline report would
/// silently attribute zero work to the missing kind. `has_rule` is
/// injected (production passes `nm_autograd::cost::has_rule`) so the
/// negative suite can seed a gap without mutating the real cost table.
pub fn verify_op_coverage(kinds: &[&str], has_rule: &dyn Fn(&str) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for kind in kinds {
        if !has_rule(kind) {
            out.push(Diagnostic::new(
                Pass::Shape,
                "profile/op-coverage",
                format!("op:{kind}"),
                format!(
                    "op kind '{kind}' has no analytic cost rule — `nmcdr obs profile` \
                     would report zero FLOPs/bytes for it"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_autograd::TraceNode;

    fn leaf(r: usize, c: usize, grad: bool) -> TraceNode {
        TraceNode {
            kind: "leaf",
            parents: vec![],
            rows: r,
            cols: c,
            requires_grad: grad,
            meta: TraceMeta::None,
        }
    }

    fn node(kind: &'static str, parents: Vec<usize>, r: usize, c: usize) -> TraceNode {
        TraceNode {
            kind,
            parents,
            rows: r,
            cols: c,
            requires_grad: true,
            meta: TraceMeta::None,
        }
    }

    #[test]
    fn clean_trace_passes() {
        let trace = vec![
            leaf(3, 4, true),
            leaf(4, 2, true),
            node("matmul", vec![0, 1], 3, 2),
            node("relu", vec![2], 3, 2),
            node("sum_all", vec![3], 1, 1),
        ];
        assert!(verify_trace(&trace).is_empty());
        let params = vec![("w".to_string(), Some(0)), ("b".to_string(), Some(1))];
        assert!(verify_reachability(&trace, 4, &params).is_empty());
    }

    #[test]
    fn symbolic_clean_pair_passes() {
        let mk = |b: usize| {
            vec![
                leaf(b, 8, true),
                leaf(8, 8, true),
                node("matmul", vec![0, 1], b, 8),
                node("sum_all", vec![2], 1, 1),
            ]
        };
        assert!(compare_symbolic(&mk(3), &mk(5), &[3], &[5]).is_empty());
    }
}
