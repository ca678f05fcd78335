//! Registry-driven gradient sweep.
//!
//! `grad_check.rs` verifies each op where it was written; this suite
//! closes the loop structurally: it walks [`nm_autograd::OP_KINDS`] and
//! demands a finite-difference check for every differentiable kind.
//! Adding an op to the tape without registering a sweep entry here (or
//! explicitly exempting it) fails `registry_is_fully_swept`, and each
//! entry is verified to actually record its claimed op kind on the
//! tape, so a stale entry cannot silently satisfy the registry.

use nm_autograd::{finite_difference_grad, Tape, Var, OP_KINDS};
use nm_graph::Csr;
use nm_tensor::{Tensor, TensorRng};
use std::rc::Rc;

const H: f32 = 2e-3;
const TOL: f32 = 2e-2;

/// Kinds with nothing to sweep: `leaf` has no backward rule of its own.
const EXEMPT: &[&str] = &["leaf"];

type Builder = Box<dyn Fn(&mut Tape, Var) -> Var>;

fn rand_t(r: usize, c: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from(seed);
    Tensor::randn(r, c, 0.8, &mut rng)
}

/// Input tensor + loss builder exercising exactly one op kind (plus the
/// minimal scaffolding to reduce it to a scalar).
fn sweep_entry(kind: &str) -> Option<(Tensor, Builder)> {
    let entry: (Tensor, Builder) = match kind {
        "add" => (
            rand_t(1, 4, 101),
            Box::new(|t, v| {
                let c = t.constant(rand_t(3, 4, 102));
                let s = t.add(c, v);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            }),
        ),
        "sub" => (
            rand_t(1, 1, 103),
            Box::new(|t, v| {
                let c = t.constant(rand_t(2, 2, 104));
                let d = t.sub(c, v);
                let sq = t.mul(d, d);
                t.sum_all(sq)
            }),
        ),
        "mul" => (
            rand_t(3, 1, 105),
            Box::new(|t, v| {
                let c = t.constant(rand_t(3, 4, 106));
                let s = t.mul(c, v);
                t.sum_all(s)
            }),
        ),
        "scale" => (
            rand_t(2, 3, 107),
            Box::new(|t, v| {
                let s = t.scale(v, -1.7);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            }),
        ),
        "add_scalar" => (
            rand_t(2, 3, 108),
            Box::new(|t, v| {
                let s = t.add_scalar(v, 0.9);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            }),
        ),
        "neg" => (
            rand_t(2, 3, 109),
            Box::new(|t, v| {
                let n = t.neg(v);
                let sq = t.mul(n, n);
                t.sum_all(sq)
            }),
        ),
        "matmul" => (
            rand_t(3, 4, 110),
            Box::new(|t, v| {
                let c = t.constant(rand_t(4, 2, 111));
                let m = t.matmul(v, c);
                let sq = t.mul(m, m);
                t.sum_all(sq)
            }),
        ),
        "relu" => {
            let mut x = rand_t(3, 3, 112);
            for e in x.data_mut() {
                if e.abs() < 0.05 {
                    *e += 0.2;
                }
            }
            (
                x,
                Box::new(|t, v| {
                    let r = t.relu(v);
                    t.sum_all(r)
                }),
            )
        }
        "sigmoid" => (
            rand_t(2, 3, 113),
            Box::new(|t, v| {
                let s = t.sigmoid(v);
                t.sum_all(s)
            }),
        ),
        "tanh" => (
            rand_t(2, 3, 114),
            Box::new(|t, v| {
                let s = t.tanh(v);
                t.sum_all(s)
            }),
        ),
        "softplus" => (
            rand_t(2, 3, 115),
            Box::new(|t, v| {
                let s = t.softplus(v);
                t.sum_all(s)
            }),
        ),
        "concat_cols" => (
            rand_t(2, 2, 116),
            Box::new(|t, v| {
                let c = t.constant(rand_t(2, 3, 117));
                let cat = t.concat_cols(v, c);
                let sq = t.mul(cat, cat);
                t.sum_all(sq)
            }),
        ),
        "slice_cols" => (
            rand_t(3, 5, 119),
            Box::new(|t, v| {
                let s = t.slice_cols(v, 2, 4);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            }),
        ),
        "gather_rows" => (
            rand_t(3, 2, 120),
            Box::new(|t, v| {
                let g = t.gather_rows(v, Rc::new(vec![0, 2, 2, 1]));
                let sq = t.mul(g, g);
                t.sum_all(sq)
            }),
        ),
        "spmm" => (
            rand_t(4, 2, 121),
            Box::new(|t, v| {
                let adj = Rc::new(Csr::from_edges(
                    3,
                    4,
                    &[(0, 0, 0.5), (0, 3, 0.5), (1, 1, 1.0), (2, 2, 0.3)],
                ));
                let adj_t = Rc::new(adj.transpose());
                let y = t.spmm(adj, adj_t, v);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            }),
        ),
        "rowwise_dot" => (
            rand_t(3, 4, 122),
            Box::new(|t, v| {
                let c = t.constant(rand_t(3, 4, 123));
                let d = t.rowwise_dot(v, c);
                let sq = t.mul(d, d);
                t.sum_all(sq)
            }),
        ),
        "sum_all" => (
            rand_t(2, 3, 124),
            Box::new(|t, v| {
                let sq = t.mul(v, v);
                t.sum_all(sq)
            }),
        ),
        "mean_all" => (
            rand_t(2, 3, 125),
            Box::new(|t, v| {
                let m = t.mean_all(v);
                let sq = t.mul(m, m);
                t.sum_all(sq)
            }),
        ),
        "sum_axis_cols" => (
            rand_t(2, 3, 126),
            Box::new(|t, v| {
                let s = t.sum_axis_cols(v);
                let sq = t.mul(s, s);
                t.sum_all(sq)
            }),
        ),
        "softmax_rows" => (
            rand_t(3, 4, 127),
            Box::new(|t, v| {
                let s = t.softmax_rows(v);
                let c = t.constant(rand_t(3, 4, 128));
                let w = t.mul(s, c);
                t.sum_all(w)
            }),
        ),
        // One leaf as both the attending rows and the table: both
        // gradient paths, and duplicate candidates, in one entry.
        "attend_rows" => (
            rand_t(3, 4, 134),
            Box::new(|t, v| {
                let a = t.attend_rows(v, v, Rc::new(vec![0, 2, 2, 1, 0, 1]));
                let c = t.constant(rand_t(3, 4, 135));
                let w = t.mul(a, c);
                t.sum_all(w)
            }),
        ),
        "bce_with_logits" => (
            rand_t(2, 3, 129),
            Box::new(|t, v| {
                let targets = Rc::new(Tensor::new(2, 3, vec![1., 0., 1., 0., 1., 0.]));
                t.bce_with_logits_mean(v, targets)
            }),
        ),
        "sum_squares" => (rand_t(2, 3, 133), Box::new(|t, v| t.sum_squares(v))),
        _ => return None,
    };
    Some(entry)
}

#[test]
fn registry_is_fully_swept() {
    let mut missing = Vec::new();
    for &kind in OP_KINDS {
        if EXEMPT.contains(&kind) {
            continue;
        }
        if sweep_entry(kind).is_none() {
            missing.push(kind);
        }
    }
    assert!(
        missing.is_empty(),
        "ops registered in OP_KINDS without a gradient sweep entry: {missing:?}\n\
         add a builder to sweep_entry() or (if non-differentiable) to EXEMPT"
    );
}

#[test]
fn swept_gradients_match_finite_differences() {
    for &kind in OP_KINDS {
        let Some((x, build)) = sweep_entry(kind) else {
            continue;
        };

        let mut tape = Tape::new();
        let v = tape.leaf(x.clone());
        let loss = build(&mut tape, v);

        // The entry must genuinely record its claimed op kind — a copy-
        // pasted builder for the wrong op would pass gradients but fail
        // here.
        let trace = tape.export_trace();
        assert!(
            trace.iter().any(|n| n.kind == kind),
            "sweep entry for {kind:?} never records that op"
        );

        tape.backward(loss);
        let analytic = tape.grad(v).expect("missing gradient").clone();
        let numeric = finite_difference_grad(&x, H, |t| {
            let mut tape = Tape::new();
            let v = tape.leaf(t.clone());
            let loss = build(&mut tape, v);
            tape.value(loss).item()
        });
        let diff = analytic.max_abs_diff(&numeric);
        assert!(diff < TOL, "{kind}: gradient mismatch, max diff {diff}");
    }
}
