//! Finite-difference verification of every op's backward pass.
//!
//! Each test builds a scalar loss through one (or a few) ops and checks
//! the analytic gradient of every input against central differences.

use nm_autograd::{finite_difference_grad, Tape};
use nm_graph::Csr;
use nm_tensor::{Tensor, TensorRng};
use std::rc::Rc;

const H: f32 = 2e-3;
const TOL: f32 = 2e-2;

/// Checks d(loss)/d(x) where `build` maps a leaf var to a scalar loss.
fn check_unary(x: Tensor, build: impl Fn(&mut Tape, nm_autograd::Var) -> nm_autograd::Var) {
    let mut tape = Tape::new();
    let v = tape.leaf(x.clone());
    let loss = build(&mut tape, v);
    tape.backward(loss);
    let analytic = tape.grad(v).expect("missing gradient").clone();

    let numeric = finite_difference_grad(&x, H, |t| {
        let mut tape = Tape::new();
        let v = tape.leaf(t.clone());
        let loss = build(&mut tape, v);
        tape.value(loss).item()
    });
    let diff = analytic.max_abs_diff(&numeric);
    assert!(
        diff < TOL,
        "gradient mismatch: max diff {diff}\nanalytic={analytic:?}\nnumeric={numeric:?}"
    );
}

fn rand_t(r: usize, c: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from(seed);
    Tensor::randn(r, c, 0.8, &mut rng)
}

#[test]
fn grad_scale_add_scalar_neg() {
    check_unary(rand_t(2, 3, 1), |t, v| {
        let a = t.scale(v, 2.5);
        let b = t.add_scalar(a, -1.0);
        let c = t.neg(b);
        t.sum_all(c)
    });
}

#[test]
fn grad_add_same_shape_both_sides() {
    let x = rand_t(2, 3, 2);
    let y = rand_t(2, 3, 3);
    // check gradient wrt x
    check_unary(x.clone(), |t, v| {
        let c = t.constant(y.clone());
        let s = t.add(v, c);
        t.mean_all(s)
    });
    // wrt y as the broadcast side (same shape)
    check_unary(y, |t, v| {
        let c = t.constant(x.clone());
        let s = t.add(c, v);
        t.mean_all(s)
    });
}

#[test]
fn grad_add_row_vector_broadcast() {
    let bias = rand_t(1, 4, 4);
    let x = rand_t(3, 4, 5);
    check_unary(bias, |t, v| {
        let c = t.constant(x.clone());
        let s = t.add(c, v);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
}

#[test]
fn grad_mul_col_vector_broadcast() {
    let gate = rand_t(3, 1, 6);
    let x = rand_t(3, 4, 7);
    check_unary(gate, |t, v| {
        let c = t.constant(x.clone());
        let s = t.mul(c, v);
        t.sum_all(s)
    });
}

#[test]
fn grad_sub_scalar_broadcast() {
    let s = rand_t(1, 1, 8);
    let x = rand_t(2, 2, 9);
    check_unary(s, |t, v| {
        let c = t.constant(x.clone());
        let d = t.sub(c, v);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
}

#[test]
fn grad_matmul_lhs_and_rhs() {
    let a = rand_t(3, 4, 10);
    let b = rand_t(4, 2, 11);
    check_unary(a.clone(), |t, v| {
        let c = t.constant(b.clone());
        let m = t.matmul(v, c);
        let sq = t.mul(m, m);
        t.sum_all(sq)
    });
    check_unary(b, |t, v| {
        let c = t.constant(a.clone());
        let m = t.matmul(c, v);
        let sq = t.mul(m, m);
        t.sum_all(sq)
    });
}

#[test]
fn grad_relu() {
    // keep values away from the kink
    let mut x = rand_t(3, 3, 12);
    for v in x.data_mut() {
        if v.abs() < 0.05 {
            *v += 0.2;
        }
    }
    check_unary(x, |t, v| {
        let r = t.relu(v);
        t.sum_all(r)
    });
}

#[test]
fn grad_sigmoid_tanh_softplus() {
    check_unary(rand_t(2, 3, 13), |t, v| {
        let s = t.sigmoid(v);
        t.sum_all(s)
    });
    check_unary(rand_t(2, 3, 14), |t, v| {
        let s = t.tanh(v);
        t.sum_all(s)
    });
    check_unary(rand_t(2, 3, 15), |t, v| {
        let s = t.softplus(v);
        t.sum_all(s)
    });
}

#[test]
fn grad_softmax_rows() {
    let x = rand_t(3, 4, 16);
    let w = rand_t(3, 4, 17);
    check_unary(x, |t, v| {
        let s = t.softmax_rows(v);
        let c = t.constant(w.clone());
        let weighted = t.mul(s, c);
        t.sum_all(weighted)
    });
}

#[test]
fn grad_concat_cols_both_sides() {
    let a = rand_t(2, 2, 18);
    let b = rand_t(2, 3, 19);
    let w = rand_t(2, 5, 20);
    check_unary(a.clone(), |t, v| {
        let c = t.constant(b.clone());
        let cat = t.concat_cols(v, c);
        let ww = t.constant(w.clone());
        let m = t.mul(cat, ww);
        t.sum_all(m)
    });
    check_unary(b, |t, v| {
        let c = t.constant(a.clone());
        let cat = t.concat_cols(c, v);
        let ww = t.constant(w.clone());
        let m = t.mul(cat, ww);
        t.sum_all(m)
    });
}

#[test]
fn grad_slice_cols() {
    check_unary(rand_t(3, 5, 22), |t, v| {
        let s = t.slice_cols(v, 2, 4);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
}

#[test]
fn grad_gather_rows_with_duplicates() {
    let idx = Rc::new(vec![0u32, 2, 2, 1]);
    check_unary(rand_t(3, 2, 23), move |t, v| {
        let g = t.gather_rows(v, Rc::clone(&idx));
        let sq = t.mul(g, g);
        t.sum_all(sq)
    });
}

#[test]
fn grad_spmm() {
    let adj = Rc::new(Csr::from_edges(
        3,
        4,
        &[
            (0, 0, 0.5),
            (0, 3, 0.5),
            (1, 1, 1.0),
            (2, 2, 0.3),
            (2, 0, 0.7),
        ],
    ));
    let adj_t = Rc::new(adj.transpose());
    check_unary(rand_t(4, 2, 24), move |t, v| {
        let y = t.spmm(Rc::clone(&adj), Rc::clone(&adj_t), v);
        let sq = t.mul(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_rowwise_dot_both_sides() {
    let a = rand_t(3, 4, 25);
    let b = rand_t(3, 4, 26);
    check_unary(a.clone(), |t, v| {
        let c = t.constant(b.clone());
        let d = t.rowwise_dot(v, c);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
    check_unary(b, |t, v| {
        let c = t.constant(a.clone());
        let d = t.rowwise_dot(c, v);
        let sq = t.mul(d, d);
        t.sum_all(sq)
    });
}

#[test]
fn grad_reductions() {
    check_unary(rand_t(2, 3, 27), |t, v| {
        let m = t.mean_all(v);
        let s = t.mul(m, m);
        t.sum_all(s)
    });
    check_unary(rand_t(2, 3, 28), |t, v| {
        let s = t.sum_axis_cols(v); // R x 1
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
    check_unary(rand_t(2, 3, 29), |t, v| t.sum_squares(v));
}

#[test]
fn grad_bce_with_logits() {
    let targets = Rc::new(Tensor::new(2, 3, vec![1., 0., 1., 0., 1., 0.]));
    check_unary(rand_t(2, 3, 30), move |t, v| {
        t.bce_with_logits_mean(v, Rc::clone(&targets))
    });
}

#[test]
fn grad_attend_rows_both_sides() {
    // 2 users x 3 candidates over a 4-row table, with a repeated id
    let idx = Rc::new(vec![3u32, 0, 3, 1, 2, 1]);
    let x = rand_t(2, 3, 31);
    let table = rand_t(4, 3, 32);
    let w = rand_t(2, 3, 33);
    check_unary(x.clone(), |t, v| {
        let tb = t.constant(table.clone());
        let a = t.attend_rows(v, tb, Rc::clone(&idx));
        let ww = t.constant(w.clone());
        let m = t.mul(a, ww);
        t.sum_all(m)
    });
    check_unary(table, |t, v| {
        let xc = t.constant(x.clone());
        let a = t.attend_rows(xc, v, Rc::clone(&idx));
        let ww = t.constant(w.clone());
        let m = t.mul(a, ww);
        t.sum_all(m)
    });
}

#[test]
fn grad_one_minus_gate_composition() {
    // The Eq. 10 fusion pattern: tanh((1-H) ⊙ a + H ⊙ b) with H = sigmoid(x)
    let a = rand_t(2, 3, 34);
    let b = rand_t(2, 3, 35);
    check_unary(rand_t(2, 3, 36), |t, v| {
        let h = t.sigmoid(v);
        let hm = t.one_minus(h);
        let ca = t.constant(a.clone());
        let cb = t.constant(b.clone());
        let l = t.mul(hm, ca);
        let r = t.mul(h, cb);
        let s = t.add(l, r);
        let y = t.tanh(s);
        t.sum_all(y)
    });
}

#[test]
fn grad_deep_composition_end_to_end() {
    // A miniature NMCDR-style block: spmm -> linear -> relu -> gate -> bce
    let adj = Rc::new(Csr::from_edges(
        3,
        3,
        &[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 2, 1.0)],
    ));
    let adj_t = Rc::new(adj.transpose());
    let w = rand_t(2, 2, 37);
    let targets = Rc::new(Tensor::new(3, 1, vec![1., 0., 1.]));
    check_unary(rand_t(3, 2, 38), move |t, v| {
        let agg = t.spmm(Rc::clone(&adj), Rc::clone(&adj_t), v);
        let cw = t.constant(w.clone());
        let lin = t.matmul(agg, cw);
        let act = t.relu(lin);
        let gate = t.sigmoid(act);
        let gated = t.mul(act, gate);
        let score = t.sum_axis_cols(gated);
        t.bce_with_logits_mean(score, Rc::clone(&targets))
    });
}
