//! Dense matrix multiplication kernels.
//!
//! # Kernel contract
//!
//! Every kernel here computes each output element as one sum over `k`
//! ascending, and rounds each product before adding it: no `mul_add`
//! and no FMA contraction, which Rust never introduces on its own.
//! `matmul` and `matmul_tn` start each sum at `+0.0`. `matmul_nt` starts
//! at `-0.0`, which is where `Iterator::sum` on `f32` starts; so do
//! [`Tensor::rowwise_dot`] and [`vecmat_nt_blocked`], which use that
//! sum. Tiling and blocking split only the output's row and column
//! axes, so no element's accumulation is ever reordered: the results
//! are bit-identical to the plain reference loops below, and
//! checkpoints, snapshots and golden logs do not move when a kernel
//! changes.
//!
//! # Register tiles
//!
//! The three products and [`matmul_from`] share one kernel, [`Gemm`].
//! It keeps an `M x W`
//! block of outputs in a local array that LLVM holds in registers,
//! streams `k` through it, and writes the block once. Both x86-64 paths
//! have 16 vector registers, and [`lanes::dispatch`] picks the tile
//! heights for their width when the kernel runs:
//!
//! | path | 16 columns | 8 columns |
//! |------|------------|-----------|
//! | SSE2 baseline, 4 lanes | 2 x 16 | 4 x 8 |
//! | AVX2, 8 lanes | 4 x 16 | 8 x 8 |
//!
//! Each shape keeps eight registers of accumulators, enough independent
//! adds to cover the add latency, and leaves room for the right-hand
//! row and the broadcast left value. On the baseline a 4 x 16 tile
//! would need all 16 registers for its accumulators alone. Under AVX2
//! the baseline's 2 x 16 tile fills only four accumulators, half the
//! adds needed in flight, which is why building the whole program for
//! AVX2 made it slower than the SSE2 build. Narrow outputs (fewer than
//! 8 columns, such as a prediction head's single logit) take 8 rows per
//! tile on both paths, so eight row sums run side by side rather than
//! one serial chain.
//!
//! # Zero skip without a branch
//!
//! The reference loop of `matmul`, `matmul_tn` and `matmul_from` skips
//! a left element equal to `0.0`. The tile has no such branch: ReLU
//! outputs are about half zeros, so it would mispredict. An accumulator
//! starts at `+0.0`,
//! and round-to-nearest yields `-0.0` from an add only when both
//! addends are `-0.0`, so the accumulator is never `-0.0`; adding
//! `0 * b`, which is `±0.0` for finite `b`, leaves it unchanged. A
//! skipped product can only matter when `b` is infinite or NaN, and
//! then `0 * b` is NaN and so is the tile's sum. A tile result without
//! a NaN is therefore exact as it stands. When any output is NaN, the
//! reference loop recomputes the product over the same accessors. That
//! also keeps which NaN comes out identical, which IEEE 754 leaves open
//! when two NaNs meet in an add.
//!
//! # Start accessor
//!
//! [`Gemm`] reads where each sum starts through an accessor, [`Start`],
//! as it reads the left operand through `lhs(i, kk)`. The three
//! products pass their constant `±0.0`, which folds away, so their
//! tiles compile as before. [`matmul_from`] starts every output row at
//! a `1 x c` row of its caller's and reads the left operand through its
//! caller's `lhs`. The MLP head runs its first layer as two such
//! products: the user's prefix `u · W1[..du]` from a row of `+0.0`,
//! once per user, then the items' terms starting from that prefix.
//! Those are the additions, in the same order, of one product over the
//! concatenated rows `[u ‖ v]`, so the bits are the same. A prefix is
//! never `-0.0`, because it is itself a sum from `+0.0` (see above); so
//! the zero skip holds for the product that starts from it, as it does
//! from `+0.0`. The row start reads each tile's `W` values as one
//! slice: a bounds check per value keeps the accumulators out of
//! registers, and the tile runs several times slower.

use crate::lanes::{self, Lanes};
use crate::Tensor;

/// Where a [`Gemm`]'s sums start: one constant for every output, or a
/// `1 x c` row that every output row starts from.
trait Start: Copy {
    /// The starts of output columns `j..j + W`.
    fn at<const W: usize>(self, j: usize) -> [f32; W];
}

impl Start for f32 {
    #[inline(always)]
    fn at<const W: usize>(self, _: usize) -> [f32; W] {
        [self; W]
    }
}

impl Start for &[f32] {
    #[inline(always)]
    fn at<const W: usize>(self, j: usize) -> [f32; W] {
        let s = &self[j..j + W];
        std::array::from_fn(|w| s[w])
    }
}

/// The shared kernel: `out = start + lhs * rhs`, where `start` is where
/// the sums start, `lhs(i, kk)` reads element `(i, kk)` of the
/// `rows x k` left operand and `rhs` is a row-major `k x c` matrix. No
/// zero skip.
struct Gemm<'a, S, F> {
    start: S,
    lhs: F,
    rows: usize,
    rhs: &'a [f32],
    c: usize,
}

impl<S: Start, F: Fn(usize, usize) -> f32> Gemm<'_, S, F> {
    /// Fills `out` through [`Gemm::run`] and, when an output is NaN,
    /// again through [`Gemm::reference`].
    fn product<const BASE: bool>(&self, out: &mut [f32]) {
        if self.run::<BASE>(out) {
            self.reference(out);
        }
    }

    /// The reference loop over the same accessors: output `(i, j)`
    /// starts at column `j`'s start and adds `lhs(i, kk) * rhs[kk][j]`
    /// over `kk` ascending, skipping a left element equal to `0.0`.
    fn reference(&self, out: &mut [f32]) {
        for (i, orow) in out.chunks_exact_mut(self.c).enumerate() {
            for (j, o) in orow.iter_mut().enumerate() {
                *o = self.start.at::<1>(j)[0];
            }
            for (kk, brow) in self.rhs.chunks_exact(self.c).enumerate() {
                let av = (self.lhs)(i, kk);
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Fills the row-major `rows x c` output `out`; returns whether any
    /// output is NaN. Runs the tiles of the widest path this CPU has or,
    /// with `BASE`, which only the tests set, the baseline's on any CPU.
    fn run<const BASE: bool>(&self, out: &mut [f32]) -> bool {
        if BASE {
            return self.tiles::<2, 4>(out);
        }
        lanes::dispatch(
            #[inline(always)]
            |lanes| match lanes {
                Lanes::Avx2 => self.tiles::<4, 8>(out),
                Lanes::Base => self.tiles::<2, 4>(out),
            },
        )
    }

    /// [`Gemm::run`] with `M16` rows per 16-column tile and `M8` rows per
    /// 8-column tile.
    #[inline(always)]
    fn tiles<const M16: usize, const M8: usize>(&self, out: &mut [f32]) -> bool {
        let c = self.c;
        let mut nan = false;
        let mut j = 0;
        while j + 16 <= c {
            nan |= self.columns::<M16, 16>(j, out);
            j += 16;
        }
        if j + 8 <= c {
            nan |= self.columns::<M8, 8>(j, out);
            j += 8;
        }
        if j + 4 <= c {
            nan |= self.columns::<8, 4>(j, out);
            j += 4;
        }
        for j in j..c {
            nan |= self.columns::<8, 1>(j, out);
        }
        nan
    }

    /// Output columns `j..j + W` of every row, `M` rows per tile.
    #[inline(always)]
    fn columns<const M: usize, const W: usize>(&self, j: usize, out: &mut [f32]) -> bool {
        let mut nan = false;
        let mut i = 0;
        while i + M <= self.rows {
            nan |= self.tile::<M, W>(i, j, out);
            i += M;
        }
        for i in i..self.rows {
            nan |= self.tile::<1, W>(i, j, out);
        }
        nan
    }

    /// The `M x W` output block at `(i, j)`, accumulated in registers.
    #[inline(always)]
    fn tile<const M: usize, const W: usize>(&self, i: usize, j: usize, out: &mut [f32]) -> bool {
        let mut acc = [self.start.at::<W>(j); M];
        for (kk, brow) in self.rhs.chunks_exact(self.c).enumerate() {
            let b = &brow[j..j + W];
            for (m, row) in acc.iter_mut().enumerate() {
                let av = (self.lhs)(i + m, kk);
                for (o, &bv) in row.iter_mut().zip(b) {
                    *o += av * bv;
                }
            }
        }
        let mut nan = false;
        for (m, row) in acc.iter().enumerate() {
            let at = (i + m) * self.c + j;
            out[at..at + W].copy_from_slice(row);
            nan = row.iter().fold(nan, |n, v| n | v.is_nan());
        }
        nan
    }
}

/// Reference `matmul_nt` for an `a` of `r x k` and a `b` of `c x k`: one
/// serial dot per output element.
fn matmul_nt_reference(a: &[f32], b: &[f32], (r, k, c): (usize, usize, usize), o: &mut [f32]) {
    for i in 0..r {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut o[i * c..(i + 1) * c];
        for (j, ov) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            *ov = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
        }
    }
}

impl Tensor {
    /// `self (R x K) * rhs (K x C) -> R x C`.
    ///
    /// # Panics
    /// On inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.matmul_on::<false>(rhs)
    }

    /// [`Tensor::matmul`]; `BASE` as in [`Gemm::run`].
    fn matmul_on<const BASE: bool>(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul: inner dim mismatch {}x{} * {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (r, k) = self.shape();
        let c = rhs.cols();
        let mut out = Tensor::zeros(r, c);
        let a = self.data();
        Gemm {
            start: 0.0,
            lhs: |i, kk| a[i * k + kk],
            rows: r,
            rhs: rhs.data(),
            c,
        }
        .product::<BASE>(out.data_mut());
        out
    }

    /// `self^T * rhs` without materializing the transpose:
    /// `self (K x R), rhs (K x C) -> R x C`, i.e.
    /// `out[i][j] = sum_k self[k][i] * rhs[k][j]`.
    ///
    /// # Panics
    /// If the operands' row counts differ.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        self.matmul_tn_on::<false>(rhs)
    }

    /// [`Tensor::matmul_tn`]; `BASE` as in [`Gemm::run`].
    fn matmul_tn_on<const BASE: bool>(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "matmul_tn: dim mismatch {}x{} ^T * {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let r = self.cols();
        let c = rhs.cols();
        let mut out = Tensor::zeros(r, c);
        let a = self.data();
        Gemm {
            start: 0.0,
            lhs: |i, kk| a[kk * r + i],
            rows: r,
            rhs: rhs.data(),
            c,
        }
        .product::<BASE>(out.data_mut());
        out
    }

    /// `self * rhs^T`: `self (R x K), rhs (C x K) -> R x C`. `rhs` is
    /// copied transposed (a weight in the backward pass, so small) and
    /// the tile then runs across output columns, instead of one serial
    /// dot per output element.
    ///
    /// # Panics
    /// If the operands' column counts differ.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        self.matmul_nt_on::<false>(rhs)
    }

    /// [`Tensor::matmul_nt`]; `BASE` as in [`Gemm::run`].
    fn matmul_nt_on<const BASE: bool>(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_nt: dim mismatch {}x{} * {}x{} ^T",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (r, k) = self.shape();
        let c = rhs.rows();
        let mut out = Tensor::zeros(r, c);
        let bt = rhs.transpose();
        let a = self.data();
        let gemm = Gemm {
            start: -0.0,
            lhs: |i, kk| a[i * k + kk],
            rows: r,
            rhs: bt.data(),
            c,
        };
        if gemm.run::<BASE>(out.data_mut()) {
            matmul_nt_reference(self.data(), rhs.data(), (r, k, c), out.data_mut());
        }
        out
    }
}

/// `out (rows x c) = start + lhs * rhs`: output `(i, j)` starts at
/// `start[j]` and adds `lhs(i, kk) * rhs[kk][j]` over `kk` ascending,
/// where `lhs(i, kk)` reads the `rows x k` left operand and `rhs` is a
/// row-major `k x c` matrix. This is [`Tensor::matmul`]'s kernel, tiles
/// and NaN fallback, with the left operand read in place (by id, say)
/// and the sums continuing from an earlier product's (see the module
/// docs). The tiles equal the fallback only where no start is `-0.0`; a
/// row this function computes from a row of `+0.0` never holds one.
///
/// # Panics
/// If `out` or `rhs` is not a whole number of `start`-wide rows, and
/// wherever `lhs` panics.
pub fn matmul_from(start: &[f32], lhs: impl Fn(usize, usize) -> f32, rhs: &[f32], out: &mut [f32]) {
    let c = start.len();
    let rows = out.len().checked_div(c).unwrap_or(0);
    assert!(
        rows * c == out.len() && (c == 0 || rhs.len().is_multiple_of(c)),
        "matmul_from: out len {} or rhs len {} is not a multiple of {c} columns",
        out.len(),
        rhs.len()
    );
    Gemm {
        start,
        lhs,
        rows,
        rhs,
        c,
    }
    .product::<false>(out);
}

/// Row-block height for [`vecmat_nt_blocked`]: 64 rows per block, so
/// `x` stays resident while the block streams past it.
const VEC_BLOCK: usize = 64;

/// Blocked row-vector × matrix-transpose: dots `x (1 x k)` against each
/// of the `n_rows` length-`k` rows of `rows`, i.e. `x * rows^T`.
///
/// Per output element this is a plain sequential `k`-ascending dot with
/// no zero skip — the exact accumulation `Tensor::matmul_nt` and the
/// model layer's embedding dot-product scoring use — so serving scores
/// match offline scores bit for bit.
pub fn vecmat_nt_blocked(
    x: &[f32],
    rows: &[f32],
    n_rows: usize,
    k: usize,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    assert_eq!(x.len(), k, "vecmat_nt_blocked: x len {} != k {k}", x.len());
    assert_eq!(
        rows.len(),
        n_rows * k,
        "vecmat_nt_blocked: rows len {} != {n_rows}x{k}",
        rows.len()
    );
    let mut out = vec![0.0f32; n_rows];
    let mut i0 = 0;
    while i0 < n_rows {
        let i1 = (i0 + VEC_BLOCK).min(n_rows);
        for i in i0..i1 {
            let row = &rows[i * k..(i + 1) * k];
            out[i] = x.iter().zip(row).map(|(a, b)| a * b).sum();
        }
        i0 = i1;
    }
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            n_rows,
            "vecmat_nt_blocked: bias len {} != n_rows {n_rows}",
            b.len()
        );
        for (ov, &bv) in out.iter_mut().zip(b) {
            *ov += bv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::new(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::new(2, 2, vec![5., 6., 7., 8.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::new(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul(&Tensor::eye(3)).data(), a.data());
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::new(1, 3, vec![1., 2., 3.]);
        let b = Tensor::new(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        assert_eq!(a.matmul(&b).data(), &[4., 5.]);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::new(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new(3, 4, (0..12).map(|x| x as f32).collect());
        let expect = a.transpose().matmul(&b);
        let got = a.matmul_tn(&b);
        assert!(expect.max_abs_diff(&got) < 1e-6);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::new(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new(4, 3, (0..12).map(|x| x as f32).collect());
        let expect = a.matmul(&b.transpose());
        let got = a.matmul_nt(&b);
        assert!(expect.max_abs_diff(&got) < 1e-6);
    }

    #[test]
    fn vecmat_nt_blocked_bitwise_matches_matmul_nt() {
        let mut rng = TensorRng::seed_from(12);
        let k = 29;
        let n_rows = 200;
        let x = Tensor::randn(1, k, 1.0, &mut rng);
        let rows = Tensor::randn(n_rows, k, 1.0, &mut rng);
        let reference = x.matmul_nt(&rows);
        let got = vecmat_nt_blocked(x.data(), rows.data(), n_rows, k, None);
        assert_eq!(got.as_slice(), reference.data(), "must match bit for bit");
    }

    /// A seeded `r x c` operand of normal values, about a quarter of
    /// them replaced by one of `specials`.
    fn operand(r: usize, c: usize, specials: &[f32], rng: &mut TensorRng) -> Tensor {
        let mut t = Tensor::randn(r, c, 1.0, rng);
        for x in t.data_mut() {
            if rng.index(4) == 0 {
                *x = specials[rng.index(specials.len())];
            }
        }
        t
    }

    /// ReLU-style exact zeros, and negative zeros, for the left operand.
    const LHS_SPECIALS: [f32; 2] = [0.0, -0.0];
    /// Right-operand specials the tile must handle without a fallback.
    const RHS_FINITE: [f32; 4] = [-0.0, 0.0, 1e-40, -3e-39];
    /// Right-operand specials where a skipped `0 * b` is NaN and where
    /// two NaNs can meet in one sum: the reference loop must take over.
    const RHS_NON_FINITE: [f32; 5] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 1e-40];

    /// The plain `ikj` reference: output `(i, j)` starts at `start[j]`
    /// and adds `lhs(i, kk) * b[kk][j]` over `kk` ascending, skipping a
    /// left element equal to `0.0`. Each add is `out += product` over a
    /// row slice, the form of the kernel's fallback, so that when two
    /// NaNs meet the same one survives.
    fn reference_loop(
        start: &[f32],
        lhs: impl Fn(usize, usize) -> f32,
        rows: usize,
        b: &Tensor,
    ) -> Tensor {
        let mut out = Tensor::zeros(rows, b.cols());
        for i in 0..rows {
            let orow = out.row_slice_mut(i);
            orow.copy_from_slice(start);
            for kk in 0..b.rows() {
                let av = lhs(i, kk);
                if av == 0.0 {
                    continue;
                }
                for (ov, &bv) in orow.iter_mut().zip(b.row_slice(kk)) {
                    *ov += av * bv;
                }
            }
        }
        out
    }

    fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        reference_loop(&vec![0.0; b.cols()], |i, kk| a.get(i, kk), a.rows(), b)
    }

    fn reference_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        reference_loop(&vec![0.0; b.cols()], |i, kk| a.get(kk, i), a.cols(), b)
    }

    fn reference_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.rows());
        let dims = (a.rows(), a.cols(), b.rows());
        matmul_nt_reference(a.data(), b.data(), dims, out.data_mut());
        out
    }

    fn reference_rowwise_dot(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), 1);
        for i in 0..a.rows() {
            let dot = a.row_slice(i).iter().zip(b.row_slice(i));
            out.data_mut()[i] = dot.map(|(x, y)| x * y).sum();
        }
        out
    }

    fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (got, want) = (bits(got), bits(want));
        assert!(got == want, "{what}: {got:x?} != reference {want:x?}");
    }

    /// Checks a product's `[baseline, dispatched]` results against `want`.
    fn assert_both(what: &str, [base, dispatched]: [Tensor; 2], want: &Tensor) {
        assert_bits(&base, want, &format!("baseline {what}"));
        assert_bits(&dispatched, want, what);
    }

    #[test]
    fn tiled_kernels_bitwise_match_reference_loops() {
        // Each product runs twice: on the baseline tiles, which every CPU
        // runs, and on the dispatched path, which is AVX2 where the CPU
        // has it. Row counts straddle the tile heights 2, 4 and 8.
        let mut rng = TensorRng::seed_from(13);
        for r in [0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 863] {
            for k in [1, 8, 16, 17, 32] {
                let a = operand(r, k, &LHS_SPECIALS, &mut rng);
                for rhs_specials in [&RHS_FINITE[..], &RHS_NON_FINITE[..]] {
                    let shape = format!("r={r} k={k} rhs specials {rhs_specials:?}");
                    let d = operand(r, k, rhs_specials, &mut rng);
                    assert_bits(
                        &a.rowwise_dot(&d),
                        &reference_rowwise_dot(&a, &d),
                        &format!("rowwise_dot {shape}"),
                    );
                    let at = a.transpose();
                    for c in [1, 2, 8, 15, 16, 17, 24, 33] {
                        let shape = format!("{shape} c={c}");
                        let b = operand(k, c, rhs_specials, &mut rng);
                        assert_both(
                            &format!("matmul {shape}"),
                            [a.matmul_on::<true>(&b), a.matmul(&b)],
                            &reference_matmul(&a, &b),
                        );
                        assert_both(
                            &format!("matmul_tn {shape}"),
                            [at.matmul_tn_on::<true>(&b), at.matmul_tn(&b)],
                            &reference_matmul_tn(&at, &b),
                        );
                        let bt = operand(c, k, rhs_specials, &mut rng);
                        assert_both(
                            &format!("matmul_nt {shape}"),
                            [a.matmul_nt_on::<true>(&bt), a.matmul_nt(&bt)],
                            &reference_matmul_nt(&a, &bt),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn start_accessor_kernel_bitwise_matches_reference_loop() {
        // As the MLP head uses it: left rows read by id from a table, and
        // sums that start wherever an earlier product left them, ±inf
        // and NaN included. The left zeros meet infinite weights in the
        // non-finite runs: the tile's `0 * inf` is NaN and the fallback
        // must skip it.
        const START_FINITE: [f32; 3] = [0.0, 1e-40, -3e-39];
        const START_NON_FINITE: [f32; 4] = [0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut rng = TensorRng::seed_from(14);
        for rows in [0, 1, 2, 3, 4, 5, 8, 9, 17, 100] {
            for k in [1, 8, 16, 17] {
                for c in [1, 4, 8, 15, 16, 17, 33] {
                    for (rhs_specials, start_specials) in [
                        (&RHS_FINITE[..], &START_FINITE[..]),
                        (&RHS_NON_FINITE[..], &START_NON_FINITE[..]),
                    ] {
                        let table = operand(2 * rows + 1, k, &LHS_SPECIALS, &mut rng);
                        let ids: Vec<usize> = (0..rows).map(|_| rng.index(table.rows())).collect();
                        let start = operand(1, c, start_specials, &mut rng);
                        let b = operand(k, c, rhs_specials, &mut rng);
                        let lhs = |i: usize, kk: usize| table.get(ids[i], kk);
                        let mut base = Tensor::zeros(rows, c);
                        Gemm {
                            start: start.data(),
                            lhs,
                            rows,
                            rhs: b.data(),
                            c,
                        }
                        .product::<true>(base.data_mut());
                        let mut dispatched = Tensor::zeros(rows, c);
                        matmul_from(start.data(), lhs, b.data(), dispatched.data_mut());
                        assert_both(
                            &format!("matmul_from rows={rows} k={k} c={c} start {start:?}"),
                            [base, dispatched],
                            &reference_loop(start.data(), lhs, rows, &b),
                        );
                    }
                }
            }
        }
        // the skipped `0 * inf` by hand: 1 + 3 * 1 and 2 + 3 * 2
        let b = [f32::INFINITY, f32::NEG_INFINITY, 1.0, 2.0];
        let lhs = [0.0, 3.0];
        let mut out = [0.0; 2];
        matmul_from(&[1.0, 2.0], |_, kk| lhs[kk], &b, &mut out);
        assert_eq!(out, [4.0, 8.0]);
    }
}
