//! Core layers: Linear, Embedding, MLP.

use crate::{Module, Param};
use nm_autograd::{Tape, Var};
use nm_tensor::{Tensor, TensorRng};
use std::rc::Rc;

/// Activation selector for [`Mlp`] hidden layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Tanh,
    Sigmoid,
    /// Identity (logits output).
    None,
}

impl Activation {
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::None => x,
        }
    }
}

/// Fully-connected layer `x W + b` (bias optional).
pub struct Linear {
    w: Param,
    b: Option<Param>,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new(name: &str, fan_in: usize, fan_out: usize, rng: &mut TensorRng) -> Self {
        Self {
            w: Param::new(
                format!("{name}.w"),
                Tensor::xavier_uniform(fan_in, fan_out, rng),
            ),
            b: Some(Param::new(format!("{name}.b"), Tensor::zeros(1, fan_out))),
        }
    }

    /// Without bias (the paper's Eq. 15 mixing matrices are bias-free).
    pub fn new_no_bias(name: &str, fan_in: usize, fan_out: usize, rng: &mut TensorRng) -> Self {
        Self {
            w: Param::new(
                format!("{name}.w"),
                Tensor::xavier_uniform(fan_in, fan_out, rng),
            ),
            b: None,
        }
    }

    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let w = self.w.bind(tape);
        let y = tape.matmul(x, w);
        match &self.b {
            Some(b) => {
                let b = b.bind(tape);
                tape.add(y, b)
            }
            None => y,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.shape().0
    }

    /// The weight parameter (for tests / inspection).
    pub fn weight(&self) -> &Param {
        &self.w
    }

    /// The bias parameter, if this layer has one (snapshot export).
    pub fn bias(&self) -> Option<&Param> {
        self.b.as_ref()
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.w];
        if let Some(b) = &self.b {
            v.push(b);
        }
        v
    }
}

/// A learnable `n x d` lookup table (Eq. 1's `E^Z`).
pub struct Embedding {
    table: Param,
}

impl Embedding {
    /// Normal(0, std)-initialized embedding table.
    pub fn new(name: &str, n: usize, dim: usize, std: f32, rng: &mut TensorRng) -> Self {
        Self {
            table: Param::new(name.to_string(), Tensor::randn(n, dim, std, rng)),
        }
    }

    /// Looks up a batch of row indices.
    pub fn lookup(&self, tape: &mut Tape, indices: Rc<Vec<u32>>) -> Var {
        let t = self.table.bind(tape);
        tape.gather_rows(t, indices)
    }

    /// Binds the full table (GNN encoders propagate over all rows).
    pub fn full(&self, tape: &mut Tape) -> Var {
        self.table.bind(tape)
    }

    pub fn n(&self) -> usize {
        self.table.shape().0
    }

    pub fn dim(&self) -> usize {
        self.table.shape().1
    }

    /// Raw table snapshot (evaluation-time scoring without a tape).
    pub fn table_value(&self) -> Tensor {
        self.table.value()
    }
}

impl Module for Embedding {
    fn params(&self) -> Vec<&Param> {
        vec![&self.table]
    }
}

/// Stacked fully-connected layers with a hidden activation and identity
/// output (logits) — Eq. 20's `MLPs`.
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
}

impl Mlp {
    /// `dims = [in, h1, ..., out]` gives `dims.len()-1` layers.
    pub fn new(name: &str, dims: &[usize], hidden_act: Activation, rng: &mut TensorRng) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, hidden_act }
    }

    pub fn forward(&self, tape: &mut Tape, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, x);
            if i < last {
                x = self.hidden_act.apply(tape, x);
            }
        }
        x
    }

    /// The `i`-th linear layer (weight inspection, stability analysis).
    pub fn layer(&self, i: usize) -> &Linear {
        &self.layers[i]
    }

    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The activation applied between hidden layers (snapshot export).
    pub fn hidden_act(&self) -> Activation {
        self.hidden_act
    }
}

impl Module for Mlp {
    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed_from(42)
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut r = rng();
        let lin = Linear::new("l", 3, 2, &mut r);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(4, 3));
        let y = lin.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (4, 2));
    }

    #[test]
    fn linear_trains_toward_target() {
        // one-step gradient sanity: loss decreases after an SGD-style update
        let mut r = rng();
        let lin = Linear::new("l", 2, 1, &mut r);
        let x = Tensor::new(4, 2, vec![1., 0., 0., 1., 1., 1., 0., 0.]);
        let target = Rc::new(Tensor::new(4, 1, vec![1., 0., 1., 0.]));

        let loss_at = |lin: &Linear| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = lin.forward(&mut tape, xv);
            let l = tape.bce_with_logits_mean(y, Rc::clone(&target));
            tape.value(l).item()
        };
        let before = loss_at(&lin);
        for _ in 0..50 {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = lin.forward(&mut tape, xv);
            let l = tape.bce_with_logits_mean(y, Rc::clone(&target));
            tape.backward(l);
            for p in lin.params() {
                p.absorb_grad(&tape);
                p.update(|v, g| v.axpy(-0.5, g));
                p.zero_grad();
            }
        }
        let after = loss_at(&lin);
        assert!(after < before * 0.5, "loss {before} -> {after}");
    }

    #[test]
    fn embedding_lookup_rows() {
        let mut r = rng();
        let emb = Embedding::new("e", 5, 3, 0.1, &mut r);
        let mut tape = Tape::new();
        let v = emb.lookup(&mut tape, Rc::new(vec![4, 0]));
        assert_eq!(tape.value(v).shape(), (2, 3));
        let table = emb.table_value();
        assert_eq!(tape.value(v).row_slice(0), table.row_slice(4));
        assert_eq!(tape.value(v).row_slice(1), table.row_slice(0));
    }

    #[test]
    fn embedding_only_touched_rows_get_grads() {
        let mut r = rng();
        let emb = Embedding::new("e", 4, 2, 0.1, &mut r);
        let mut tape = Tape::new();
        let v = emb.lookup(&mut tape, Rc::new(vec![1]));
        let l = tape.sum_all(v);
        tape.backward(l);
        nm_nn_absorb(&emb, &tape);
        let g = emb.params()[0].grad();
        assert_eq!(g.row_slice(0), &[0., 0.]);
        assert_eq!(g.row_slice(1), &[1., 1.]);
        assert_eq!(g.row_slice(2), &[0., 0.]);
    }

    fn nm_nn_absorb(m: &dyn Module, tape: &Tape) {
        for p in m.params() {
            p.absorb_grad(tape);
        }
    }

    #[test]
    fn mlp_stacks_and_param_count() {
        let mut r = rng();
        let mlp = Mlp::new("m", &[4, 8, 1], Activation::Relu, &mut r);
        // params: 4*8 + 8 + 8*1 + 1 = 49
        assert_eq!(mlp.param_count(), 49);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(2, 4));
        let y = mlp.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn mlp_requires_two_dims() {
        let mut r = rng();
        let _ = Mlp::new("m", &[4], Activation::Relu, &mut r);
    }
}
