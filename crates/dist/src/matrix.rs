//! The flat row-major distance matrix and its f32 mirror.

use std::fmt;

/// Side length of the square tiles used by the cache-blocked fill helpers.
///
/// A 32×32 f64 tile is 8 KiB — two tiles (the fill target plus the source geometry)
/// stay resident in a 32 KiB L1d while the generator walks the tile.
const BLOCK: usize = 32;

/// Errors produced when constructing a [`DistanceMatrix`] from untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// The row lengths do not form a square matrix.
    NotSquare {
        /// Number of rows supplied.
        rows: usize,
        /// Length of the first offending row.
        row_len: usize,
    },
    /// The flat buffer length is not `n * n`.
    BadLength {
        /// Declared matrix side.
        n: usize,
        /// Actual buffer length.
        len: usize,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NotSquare { rows, row_len } => write!(
                f,
                "distance matrix must be square: {rows} rows but a row of length {row_len}"
            ),
            DistError::BadLength { n, len } => {
                write!(
                    f,
                    "flat buffer of length {len} cannot hold a {n}×{n} matrix"
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

/// A square distance matrix stored as one contiguous row-major `Vec<f64>`.
///
/// Row `i` is the slice `data[i * n .. (i + 1) * n]`, so walking a row is a linear scan
/// over one allocation — no per-row pointer chasing. The buffer is reusable:
/// [`reset`](Self::reset) re-sizes in place, keeping capacity, so a matrix that has held
/// the largest sub-problem of a stream never re-allocates.
///
/// # Example
///
/// ```
/// use taxi_dist::DistanceMatrix;
///
/// let d = DistanceMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs());
/// assert_eq!(d.n(), 3);
/// assert_eq!(d.get(0, 2), 2.0);
/// assert_eq!(d.row(1), &[1.0, 0.0, 1.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Creates an `n × n` matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds an `n × n` matrix by evaluating `f(i, j)` for every cell.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n);
        m.fill_with(&mut f);
        m
    }

    /// Validates and copies a ragged row representation.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NotSquare`] unless every row has length `rows.len()`.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, DistError> {
        let n = rows.len();
        if let Some(bad) = rows.iter().find(|row| row.len() != n) {
            return Err(DistError::NotSquare {
                rows: n,
                row_len: bad.len(),
            });
        }
        let mut data = Vec::with_capacity(n * n);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Self { n, data })
    }

    /// Wraps an existing flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::BadLength`] if `data.len() != n * n`.
    pub fn from_flat(n: usize, data: Vec<f64>) -> Result<Self, DistError> {
        if data.len() != n * n {
            return Err(DistError::BadLength { n, len: data.len() });
        }
        Ok(Self { n, data })
    }

    /// Re-sizes the matrix in place to `n × n`, reusing the allocation. All cells are
    /// reset to zero.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
    }

    /// Matrix side length (number of cities).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `true` for the empty (0 × 0) matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance from `i` to `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Sets the distance from `i` to `j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] = value;
    }

    /// Row `i` as one contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The whole matrix as one flat row-major slice.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Iterator over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.n.max(1))
    }

    /// Fills every cell with `f(i, j)`, walking the matrix in cache-friendly
    /// 32×32 tiles: the generator's working set (two coordinate ranges per
    /// tile) stays L1-resident instead of streaming the full geometry once per row.
    pub fn fill_with(&mut self, f: &mut impl FnMut(usize, usize) -> f64) {
        let n = self.n;
        for bi in (0..n).step_by(BLOCK) {
            let i_end = (bi + BLOCK).min(n);
            for bj in (0..n).step_by(BLOCK) {
                let j_end = (bj + BLOCK).min(n);
                for i in bi..i_end {
                    let row = &mut self.data[i * n..(i + 1) * n];
                    for j in bj..j_end {
                        row[j] = f(i, j);
                    }
                }
            }
        }
    }

    /// Resets to `n × n` and fills with `f` in one pass (the streaming entry point used
    /// by the solve pipeline's reusable buffer).
    pub fn fill_from_fn(&mut self, n: usize, mut f: impl FnMut(usize, usize) -> f64) {
        self.reset(n);
        self.fill_with(&mut f);
    }

    /// The largest finite cell value, or 0.0 for an empty matrix.
    pub fn max_finite(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0f64, f64::max)
    }
}

/// Single-precision mirror of a [`DistanceMatrix`] for bandwidth-bound fast paths.
///
/// Half the bytes per cell doubles the effective cache footprint of a sub-problem, and
/// f32 lanes pack 8-wide instead of 4-wide. The mirror is strictly opt-in: move
/// *selection* may read it, but acceptance arithmetic and reported lengths always use
/// the f64 source so default results stay bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistanceMatrixF32 {
    n: usize,
    data: Vec<f32>,
}

impl DistanceMatrixF32 {
    /// Builds the mirror by narrowing every cell of `source`.
    pub fn from_f64(source: &DistanceMatrix) -> Self {
        let mut m = Self::default();
        m.mirror(source);
        m
    }

    /// Re-fills the mirror in place from `source`, reusing the allocation.
    pub fn mirror(&mut self, source: &DistanceMatrix) {
        self.n = source.n();
        self.data.clear();
        self.data.extend(source.as_flat().iter().map(|&d| d as f32));
    }

    /// Matrix side length.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The narrowed distance from `i` to `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Row `i` as one contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.n..(i + 1) * self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_rejects_ragged_input() {
        let ragged = vec![vec![0.0, 1.0], vec![1.0]];
        assert!(matches!(
            DistanceMatrix::from_rows(&ragged),
            Err(DistError::NotSquare {
                rows: 2,
                row_len: 1
            })
        ));
    }

    #[test]
    fn from_flat_rejects_bad_length() {
        assert!(DistanceMatrix::from_flat(2, vec![0.0; 3]).is_err());
        assert!(DistanceMatrix::from_flat(2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn roundtrip_through_rows_is_lossless() {
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..5).map(|j| (i * 7 + j) as f64 * 0.25).collect())
            .collect();
        let d = DistanceMatrix::from_rows(&rows).unwrap();
        for (i, row) in rows.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                assert_eq!(d.get(i, j).to_bits(), value.to_bits());
            }
        }
    }

    #[test]
    fn blocked_fill_matches_direct_indexing_beyond_one_block() {
        let n = BLOCK * 2 + 7; // force partial edge tiles
        let f = |i: usize, j: usize| (i as f64).mul_add(1e-3, j as f64);
        let d = DistanceMatrix::from_fn(n, f);
        let mut refilled = DistanceMatrix::from_fn(n + 3, |_, _| 9.0);
        refilled.fill_from_fn(n, f);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(d.get(i, j).to_bits(), f(i, j).to_bits());
                assert_eq!(refilled.get(i, j).to_bits(), f(i, j).to_bits());
            }
        }
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut d = DistanceMatrix::from_fn(8, |_, _| 9.0);
        let cap = d.data.capacity();
        d.reset(4);
        assert_eq!(d.n(), 4);
        assert!(d.as_flat().iter().all(|&v| v == 0.0));
        assert_eq!(d.data.capacity(), cap);
    }

    #[test]
    fn empty_matrix_is_representable() {
        let d = DistanceMatrix::default();
        assert!(d.is_empty());
        assert_eq!(d.rows().count(), 0);
        assert_eq!(d.max_finite(), 0.0);
    }

    #[test]
    fn f32_mirror_narrows_every_cell() {
        let d = DistanceMatrix::from_fn(6, |i, j| (i + j) as f64 / 3.0);
        let m = DistanceMatrixF32::from_f64(&d);
        assert_eq!(m.n(), 6);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(m.get(i, j), d.get(i, j) as f32);
            }
        }
        assert_eq!(m.row(2).len(), 6);
    }

    #[test]
    fn max_finite_ignores_infinities_and_nan() {
        let d =
            DistanceMatrix::from_rows(&[vec![0.0, f64::INFINITY], vec![f64::NAN, 3.0]]).unwrap();
        assert_eq!(d.max_finite(), 3.0);
    }
}
