use crate::{alloc, TensorError};

/// A dense, row-major `rows x cols` matrix of `f32`.
///
/// The single tensor type of the workspace. Vectors are `1 x n` or
/// `n x 1`; scalars are `1 x 1`.
#[derive(PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self::built(self.rows, self.cols, self.data.clone())
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        alloc::on_free(self.data.len() * 4);
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        } else {
            write!(f, " [{:?}, ...]", &self.data[..8])?;
        }
        Ok(())
    }
}

impl Tensor {
    /// The single construction funnel: every fresh tensor buffer is
    /// accounted here so `alloc` sees all allocation traffic.
    #[inline]
    pub(crate) fn built(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        alloc::on_alloc(data.len() * 4);
        Self { rows, cols, data }
    }

    /// Builds a tensor from row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Self::built(rows, cols, data))
    }

    /// Builds a tensor from row-major data, panicking on length mismatch.
    ///
    /// For literals in tests and internal code where the length is static.
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self::from_vec(rows, cols, data).expect("Tensor::new: data length must match shape")
    }

    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::built(rows, cols, vec![0.0; rows * cols])
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self::built(rows, cols, vec![value; rows * cols])
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::new(1, 1, vec![value])
    }

    /// A `1 x n` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::new(1, n, data)
    }

    /// An `n x 1` column vector.
    pub fn col(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::new(n, 1, data)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer. The buffer leaves the
    /// accounting domain (counted as freed here; re-wrapping it via
    /// [`Tensor::from_vec`] counts as a fresh allocation).
    pub fn into_vec(mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        alloc::on_free(data.len() * 4);
        data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// If the tensor is not `1 x 1`.
    pub fn item(&self) -> f32 {
        assert!(
            self.rows == 1 && self.cols == 1,
            "Tensor::item: expected 1x1, got {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Returns a copy with a new shape holding the same elements.
    pub fn reshape(&self, rows: usize, cols: usize) -> Result<Self, TensorError> {
        if rows * cols != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: (self.rows, self.cols),
                to: (rows, cols),
            });
        }
        Ok(Self::built(rows, cols, self.data.clone()))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// If row counts differ.
    pub fn concat_cols(&self, other: &Tensor) -> Self {
        assert_eq!(
            self.rows, other.rows,
            "concat_cols: row mismatch {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row_slice(r));
            data.extend_from_slice(other.row_slice(r));
        }
        Self::built(self.rows, cols, data)
    }

    /// Vertical concatenation (stack rows).
    ///
    /// # Panics
    /// If column counts differ.
    pub fn concat_rows(&self, other: &Tensor) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "concat_rows: col mismatch {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Self::built(self.rows + other.rows, self.cols, data)
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols: range {}..{} out of bounds ({} cols)",
            start,
            end,
            self.cols
        );
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row_slice(r)[start..end]);
        }
        Self::built(self.rows, cols, data)
    }

    /// Row gather: `out[i] = self[indices[i]]`.
    ///
    /// The core of embedding lookups.
    ///
    /// # Panics
    /// If any index is out of bounds.
    pub fn gather_rows(&self, indices: &[u32]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &ix in indices {
            let ix = ix as usize;
            assert!(
                ix < self.rows,
                "gather_rows: index {} out of bounds ({} rows)",
                ix,
                self.rows
            );
            data.extend_from_slice(self.row_slice(ix));
        }
        Self::built(indices.len(), self.cols, data)
    }

    /// Row scatter-add: `self[indices[i]] += src[i]` — the adjoint of
    /// [`Tensor::gather_rows`]. Duplicate indices accumulate.
    ///
    /// # Panics
    /// If shapes disagree or any index is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[u32], src: &Tensor) {
        assert_eq!(
            indices.len(),
            src.rows,
            "scatter_add_rows: {} indices vs {} src rows",
            indices.len(),
            src.rows
        );
        assert_eq!(
            self.cols, src.cols,
            "scatter_add_rows: col mismatch {} vs {}",
            self.cols, src.cols
        );
        for (i, &ix) in indices.iter().enumerate() {
            let ix = ix as usize;
            assert!(
                ix < self.rows,
                "scatter_add_rows: index {} out of bounds ({} rows)",
                ix,
                self.rows
            );
            let dst = &mut self.data[ix * self.cols..(ix + 1) * self.cols];
            let s = src.row_slice(i);
            for (d, v) in dst.iter_mut().zip(s) {
                *d += v;
            }
        }
    }

    /// True if every element is finite (no NaN/inf). Used by training
    /// assertions and tests.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// # Panics
    /// If shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn eye_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::new(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transpose().transpose();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose_values() {
        let t = Tensor::new(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let tr = t.transpose();
        assert_eq!(tr.shape(), (3, 2));
        assert_eq!(tr.get(0, 1), 4.0);
        assert_eq!(tr.get(2, 0), 3.0);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::new(2, 1, vec![1., 2.]);
        let b = Tensor::new(2, 2, vec![3., 4., 5., 6.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.data(), &[1., 3., 4., 2., 5., 6.]);
    }

    #[test]
    fn concat_rows_layout() {
        let a = Tensor::new(1, 2, vec![1., 2.]);
        let b = Tensor::new(2, 2, vec![3., 4., 5., 6.]);
        let c = a.concat_rows(&b);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "concat_cols")]
    fn concat_cols_mismatch_panics() {
        let a = Tensor::zeros(2, 1);
        let b = Tensor::zeros(3, 1);
        let _ = a.concat_cols(&b);
    }

    #[test]
    fn slice_cols_copies_the_column_range() {
        let t = Tensor::new(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let c = t.slice_cols(1, 2);
        assert_eq!(c.data(), &[2., 4., 6.]);
    }

    #[test]
    fn gather_then_scatter_add_is_adjoint_shapewise() {
        let table = Tensor::new(3, 2, vec![1., 1., 2., 2., 3., 3.]);
        let g = table.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[3., 3., 1., 1., 3., 3.]);
        let mut acc = Tensor::zeros(3, 2);
        acc.scatter_add_rows(&[2, 0, 2], &g);
        // row 2 accumulated twice
        assert_eq!(acc.row_slice(2), &[6., 6.]);
        assert_eq!(acc.row_slice(0), &[1., 1.]);
        assert_eq!(acc.row_slice(1), &[0., 0.]);
    }

    #[test]
    fn reshape_checks_count() {
        let t = Tensor::zeros(2, 3);
        assert!(t.reshape(3, 2).is_ok());
        assert!(t.reshape(4, 2).is_err());
    }

    #[test]
    fn item_scalar() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    #[should_panic(expected = "expected 1x1")]
    fn item_non_scalar_panics() {
        let _ = Tensor::zeros(2, 1).item();
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros(1, 2);
        assert!(t.all_finite());
        t.set(0, 1, f32::NAN);
        assert!(!t.all_finite());
    }
}
