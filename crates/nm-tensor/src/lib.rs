//! # nm-tensor
//!
//! Dense `f32` tensor engine underpinning the NMCDR reproduction.
//!
//! Every tensor is logically two-dimensional (`rows x cols`, row-major).
//! Vectors are represented as `1 x n` (row vector) or `n x 1` (column
//! vector); this restriction keeps shape semantics trivial and is all the
//! paper's math needs (embedding matrices, message matrices, gates).
//!
//! Design notes (following the workspace coding guides):
//! * Shape mismatches are programmer errors and **panic** with a message
//!   naming the op and both shapes — the same contract `ndarray` uses.
//! * Fallible *data-driven* constructors (`Tensor::from_vec`) return
//!   [`TensorError`] instead.
//! * Hot loops (`matmul`, elementwise kernels) are written over raw
//!   slices so the optimizer can vectorize; no `Rc`/indirection inside.

pub mod alloc;

mod activations;
mod error;
mod init;
pub mod lanes;
mod matmul;
mod ops;
mod reduce;
pub mod rng;
mod tensor;

pub use activations::{sigmoid_scalar, softmax_in_place, softplus_scalar};
pub use error::TensorError;
pub use init::TensorRng;
pub use matmul::matmul_from;
pub use ops::{classify_broadcast, try_classify_broadcast, Broadcast};
pub use reduce::Axis;
pub use tensor::Tensor;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::eye(2);
        let c = a.matmul(&b);
        assert_eq!(c.data(), a.data());
    }
}
