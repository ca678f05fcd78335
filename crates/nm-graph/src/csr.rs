//! Compressed sparse row matrices.

use nm_tensor::lanes;

/// A sparse `n_rows x n_cols` matrix in CSR form with `f32` values.
///
/// Invariants (checked by [`Csr::validate`], enforced by constructors):
/// * `indptr.len() == n_rows + 1`, `indptr[0] == 0`, non-decreasing;
/// * `indices.len() == values.len() == indptr[n_rows]`;
/// * every column index `< n_cols`.
///
/// Column indices within a row are sorted by construction
/// (`from_edges` sorts; the sampled bridges of [`crate::sampling`] sort
/// each row in place and build through `from_raw`), which makes
/// equality and tests deterministic; the kernels do not rely on it.
/// That direct build equals `from_edges` on the same edges only while
/// no row repeats a column, because `from_edges` merges repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds from an unordered edge list `(row, col, value)`.
    /// Duplicate `(row, col)` pairs have their values summed.
    pub fn from_edges(n_rows: usize, n_cols: usize, edges: &[(u32, u32, f32)]) -> Self {
        for &(r, c, _) in edges {
            assert!(
                (r as usize) < n_rows && (c as usize) < n_cols,
                "edge ({r},{c}) out of bounds for {n_rows}x{n_cols}"
            );
        }
        let mut sorted: Vec<(u32, u32, f32)> = edges.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // merge duplicates
        let mut merged: Vec<(u32, u32, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            if let Some(last) = merged.last_mut() {
                if last.0 == r && last.1 == c {
                    last.2 += v;
                    continue;
                }
            }
            merged.push((r, c, v));
        }
        let mut indptr = vec![0u32; n_rows + 1];
        for &(r, _, _) in &merged {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            indptr[i + 1] += indptr[i];
        }
        let indices = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        let out = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(out.validate().is_ok());
        out
    }

    /// Builds from raw CSR arrays, validating the invariants.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, String> {
        let c = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        c.validate()?;
        Ok(c)
    }

    /// Checks the CSR invariants; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.n_rows + 1 {
            return Err(format!(
                "indptr length {} != n_rows+1 {}",
                self.indptr.len(),
                self.n_rows + 1
            ));
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        for w in self.indptr.windows(2) {
            if w[0] > w[1] {
                return Err("indptr not non-decreasing".into());
            }
        }
        let nnz = self.indptr[self.n_rows] as usize;
        if self.indices.len() != nnz || self.values.len() != nnz {
            return Err(format!(
                "indices/values length {}/{} != nnz {}",
                self.indices.len(),
                self.values.len(),
                nnz
            ));
        }
        if let Some(&bad) = self.indices.iter().find(|&&c| c as usize >= self.n_cols) {
            return Err(format!("column index {} >= n_cols {}", bad, self.n_cols));
        }
        Ok(())
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Neighbour count of `row`.
    #[inline]
    pub fn degree(&self, row: usize) -> usize {
        (self.indptr[row + 1] - self.indptr[row]) as usize
    }

    /// Degrees of every row.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n_rows).map(|r| self.degree(r)).collect()
    }

    /// Column indices of `row`.
    #[inline]
    pub fn row_indices(&self, row: usize) -> &[u32] {
        let (s, e) = (self.indptr[row] as usize, self.indptr[row + 1] as usize);
        &self.indices[s..e]
    }

    /// Values of `row`.
    #[inline]
    pub fn row_values(&self, row: usize) -> &[f32] {
        let (s, e) = (self.indptr[row] as usize, self.indptr[row + 1] as usize);
        &self.values[s..e]
    }

    /// Iterates `(row, col, value)` over all stored entries.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Transposed matrix (`n_cols x n_rows`). Counting sort; O(nnz).
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0u32; self.n_cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr.clone();
        let nnz = self.nnz();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        for r in 0..self.n_rows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let pos = cursor[c as usize] as usize;
                indices[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
            values,
        }
    }

    /// Returns a copy with each row's values scaled by `1/degree` — the
    /// paper's graph Laplacian norm `1/|N_u|` (Eq. 3, 8, 13). Rows with
    /// zero degree are untouched.
    pub fn row_normalized(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..self.n_rows {
            let d = self.degree(r);
            if d == 0 {
                continue;
            }
            let inv = 1.0 / d as f32;
            let (s, e) = (out.indptr[r] as usize, out.indptr[r + 1] as usize);
            for v in &mut out.values[s..e] {
                *v *= inv;
            }
        }
        out
    }

    /// Dense SpMM: `self * dense` into a fresh buffer, where `dense` is
    /// row-major `n_cols x width` and the result is row-major
    /// `n_rows x width`.
    ///
    /// The hot kernel of every GNN layer in the workspace. Each 16-, 8-,
    /// 4- or 1-wide block of an output row stays in registers across all
    /// of that row's nonzeros and is stored once, on the widest path
    /// [`lanes::dispatch`] finds. Every output element still starts at
    /// `+0.0` and adds `v * d` in nonzero order, so its bits match a
    /// loop that loads and stores the row once per nonzero.
    ///
    /// # Panics
    /// If `dense.len() != n_cols * width`.
    pub fn spmm(&self, dense: &[f32], width: usize) -> Vec<f32> {
        assert_eq!(
            dense.len(),
            self.n_cols * width,
            "spmm: dense len {} != {}x{}",
            dense.len(),
            self.n_cols,
            width
        );
        let mut out = vec![0.0; self.n_rows * width];
        lanes::dispatch(
            #[inline(always)]
            |_| self.spmm_rows(dense, width, &mut out),
        );
        out
    }

    /// Writes every row of `self * dense` into `out`, block by block.
    #[inline(always)]
    fn spmm_rows(&self, dense: &[f32], width: usize, out: &mut [f32]) {
        for r in 0..self.n_rows {
            let orow = &mut out[r * width..(r + 1) * width];
            let mut j = 0;
            while j + 16 <= width {
                self.spmm_block::<16>(r, j, dense, width, orow);
                j += 16;
            }
            if j + 8 <= width {
                self.spmm_block::<8>(r, j, dense, width, orow);
                j += 8;
            }
            if j + 4 <= width {
                self.spmm_block::<4>(r, j, dense, width, orow);
                j += 4;
            }
            for j in j..width {
                self.spmm_block::<1>(r, j, dense, width, orow);
            }
        }
    }

    /// Columns `j..j + W` of output row `r`, summed in registers.
    #[inline(always)]
    fn spmm_block<const W: usize>(
        &self,
        r: usize,
        j: usize,
        dense: &[f32],
        width: usize,
        orow: &mut [f32],
    ) {
        let mut acc = [0.0f32; W];
        for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
            let d = &dense[c as usize * width + j..][..W];
            for (a, &x) in acc.iter_mut().zip(d) {
                *a += v * x;
            }
        }
        orow[j..j + W].copy_from_slice(&acc);
    }

    /// Converts to a dense row-major buffer (tests / tiny graphs only).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut d = vec![0.0; self.n_rows * self.n_cols];
        for (r, c, v) in self.iter_edges() {
            d[r as usize * self.n_cols + c as usize] += v;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_tensor::TensorRng;

    fn sample() -> Csr {
        // 3x4:
        // [1 0 2 0]
        // [0 0 0 0]
        // [0 3 0 4]
        Csr::from_edges(3, 4, &[(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 3, 4.0)])
    }

    #[test]
    fn from_edges_builds_valid_csr() {
        let c = sample();
        assert!(c.validate().is_ok());
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(1), 0);
        assert_eq!(c.row_indices(2), &[1, 3]);
        assert_eq!(c.row_values(2), &[3.0, 4.0]);
    }

    #[test]
    fn duplicate_edges_sum() {
        let c = Csr::from_edges(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.row_values(0), &[3.5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_out_of_bounds() {
        let _ = Csr::from_edges(2, 2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn transpose_matches_dense() {
        let c = sample();
        let t = c.transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        // dense transpose comparison
        let d = c.to_dense();
        let dt = t.to_dense();
        for r in 0..3 {
            for cc in 0..4 {
                assert_eq!(d[r * 4 + cc], dt[cc * 3 + r]);
            }
        }
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let c = Csr::from_edges(2, 3, &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]);
        let n = c.row_normalized();
        assert!((n.row_values(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((n.row_values(1).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let c = sample();
        // dense 4x2
        let dense: Vec<f32> = vec![1., 2., 3., 4., 5., 6., 7., 8.];
        let out = c.spmm(&dense, 2);
        // row0 = 1*[1,2] + 2*[5,6] = [11,14]; row1 = 0; row2 = 3*[3,4]+4*[7,8]=[37,44]
        assert_eq!(out, vec![11., 14., 0., 0., 37., 44.]);
    }

    /// Reference SpMM: load, add and store the output row once per
    /// nonzero, starting from a zeroed buffer.
    fn spmm_reference(m: &Csr, dense: &[f32], width: usize) -> Vec<f32> {
        let mut out = vec![0.0; m.n_rows() * width];
        for r in 0..m.n_rows() {
            let orow = &mut out[r * width..(r + 1) * width];
            for (&c, &v) in m.row_indices(r).iter().zip(m.row_values(r)) {
                let drow = &dense[c as usize * width..(c as usize + 1) * width];
                for (o, &d) in orow.iter_mut().zip(drow) {
                    *o += v * d;
                }
            }
        }
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn spmm_bitwise_matches_per_nonzero_loop() {
        // Signed zeros and subnormals, then infinities and NaN, which
        // make `inf * 0` and `NaN + NaN` meet in one sum.
        let finite = [0.0, -0.0, 1e-40, -3e-39];
        let non_finite = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 1e-40];
        let mut rng = TensorRng::seed_from(19);
        for specials in [&finite[..], &non_finite[..]] {
            let mut draw = |n: usize| -> Vec<f32> {
                let mut xs = Vec::with_capacity(n);
                for _ in 0..n {
                    xs.push(if rng.index(6) == 0 {
                        specials[rng.index(specials.len())]
                    } else {
                        rng.normal()
                    });
                }
                xs
            };
            // 6 x 5: rows 1 and 4 are empty, rows 0, 3 and 5 repeat
            // column ids.
            let indptr = vec![0, 4, 4, 7, 10, 10, 14];
            let indices = vec![1, 3, 1, 1, 0, 4, 2, 2, 4, 2, 4, 0, 4, 4];
            let m = Csr::from_raw(6, 5, indptr, indices, draw(14)).unwrap();
            for width in [1, 2, 3, 4, 7, 8, 15, 16, 17, 33] {
                let dense = draw(5 * width);
                let want = bits(&spmm_reference(&m, &dense, width));
                let mut base = vec![0.0; 6 * width];
                m.spmm_rows(&dense, width, &mut base);
                assert_eq!(bits(&base), want, "baseline, width {width}");
                let got = bits(&m.spmm(&dense, width));
                assert_eq!(got, want, "dispatched, width {width}");
            }
        }
    }

    #[test]
    fn from_raw_validation_catches_bad_indptr() {
        let r = Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn iter_edges_round_trips() {
        let c = sample();
        let edges: Vec<_> = c.iter_edges().collect();
        let c2 = Csr::from_edges(3, 4, &edges);
        assert_eq!(c, c2);
    }

    #[test]
    fn empty_rows_are_fine() {
        let c = Csr::from_edges(3, 3, &[]);
        assert_eq!(c.nnz(), 0);
        let out = c.spmm(&[1.0; 9], 3);
        assert_eq!(out, vec![0.0; 9]);
    }
}
