//! Activation functions and numerically-stable compound kernels.
//!
//! All functions return new tensors; gradients live in `nm-autograd`.
//! The scalar helpers (`sigmoid_scalar` etc.) are shared with the
//! backward passes so forward/backward can never drift apart.

use crate::Tensor;

/// Numerically-stable scalar sigmoid.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically-stable scalar softplus `ln(1 + e^x)`.
#[inline]
pub fn softplus_scalar(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Softmax of one row in place, with max-subtraction for stability.
///
/// This is Eq. 18's virtual-link-strength kernel, shared by
/// [`Tensor::softmax_rows`] and the tape's fused complementing op so
/// both round alike.
pub fn softmax_in_place(row: &mut [f32]) {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

impl Tensor {
    /// Elementwise ReLU.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Elementwise sigmoid (numerically stable).
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid_scalar)
    }

    /// Elementwise tanh.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Elementwise softplus (smooth ReLU; used in the paper's stability
    /// analysis §II-H).
    pub fn softplus(&self) -> Tensor {
        self.map(softplus_scalar)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural log of `max(x, eps)` — guarded so training
    /// never produces `-inf` on a zero probability.
    pub fn ln_guarded(&self, eps: f32) -> Tensor {
        self.map(|x| x.max(eps).ln())
    }

    /// Row-wise softmax with max-subtraction for stability: each row
    /// goes through [`softmax_in_place`].
    pub fn softmax_rows(&self) -> Tensor {
        let (r, c) = self.shape();
        let mut out = self.clone();
        for i in 0..r {
            softmax_in_place(&mut out.data_mut()[i * c..(i + 1) * c]);
        }
        out
    }

    /// Row-wise masked softmax: entries where `mask` is `false` get
    /// probability 0 and are excluded from normalization. A fully-masked
    /// row yields all zeros.
    pub fn softmax_rows_masked(&self, mask: &[bool]) -> Tensor {
        let (r, c) = self.shape();
        assert_eq!(
            mask.len(),
            r * c,
            "softmax_rows_masked: mask length {} != {} elements",
            mask.len(),
            r * c
        );
        let mut out = self.clone();
        for i in 0..r {
            let row = &mut out.data_mut()[i * c..(i + 1) * c];
            let mrow = &mask[i * c..(i + 1) * c];
            let m = row
                .iter()
                .zip(mrow)
                .filter(|(_, &keep)| keep)
                .map(|(&v, _)| v)
                .fold(f32::NEG_INFINITY, f32::max);
            if m == f32::NEG_INFINITY {
                for v in row.iter_mut() {
                    *v = 0.0;
                }
                continue;
            }
            let mut sum = 0.0;
            for (v, &keep) in row.iter_mut().zip(mrow) {
                if keep {
                    *v = (*v - m).exp();
                    sum += *v;
                } else {
                    *v = 0.0;
                }
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clips_negatives() {
        let t = Tensor::new(1, 3, vec![-1., 0., 2.]);
        assert_eq!(t.relu().data(), &[0., 0., 2.]);
    }

    #[test]
    fn sigmoid_extremes_stable() {
        let t = Tensor::new(1, 3, vec![-100., 0., 100.]);
        let s = t.sigmoid();
        assert!(s.all_finite());
        assert!((s.data()[0] - 0.0).abs() < 1e-6);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!((s.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softplus_matches_definition_midrange() {
        let x = 1.3f32;
        let expect = (1.0 + x.exp()).ln();
        assert!((softplus_scalar(x) - expect).abs() < 1e-6);
        // large-x asymptote
        assert!((softplus_scalar(50.0) - 50.0).abs() < 1e-4);
        assert!(softplus_scalar(-50.0) >= 0.0);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::new(2, 3, vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = t.softmax_rows();
        assert!(s.all_finite());
        for i in 0..2 {
            let sum: f32 = s.row_slice(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // monotone within row
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
        // uniform row
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn masked_softmax_excludes_masked() {
        let t = Tensor::new(1, 3, vec![5., 1., 1.]);
        let s = t.softmax_rows_masked(&[false, true, true]);
        assert_eq!(s.data()[0], 0.0);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!((s.data()[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn masked_softmax_all_masked_row_is_zero() {
        let t = Tensor::new(1, 2, vec![3., 4.]);
        let s = t.softmax_rows_masked(&[false, false]);
        assert_eq!(s.data(), &[0., 0.]);
    }

    #[test]
    fn ln_guarded_no_neg_inf() {
        let t = Tensor::new(1, 2, vec![0., 1.]);
        let l = t.ln_guarded(1e-12);
        assert!(l.all_finite());
        assert_eq!(l.data()[1], 0.0);
    }

    #[test]
    fn tanh_range() {
        let t = Tensor::new(1, 3, vec![-10., 0., 10.]);
        let h = t.tanh();
        assert!(h.data()[0] > -1.0 - 1e-6 && h.data()[0] < -0.99);
        assert_eq!(h.data()[1], 0.0);
        assert!(h.data()[2] > 0.99);
    }
}
