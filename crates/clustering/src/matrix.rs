//! A minimal dense row-major matrix, the observation container for every
//! clusterer in this crate.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Dense row-major `f64` matrix. Rows are observations (for TD-AC: one
/// attribute truth vector per row), columns are dimensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} ≠ {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: n,
            cols,
            data,
        }
    }

    /// Wraps an existing flat buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows (observations).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (dimensions).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The flat backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{}", self.rows, self.cols)?;
        for i in 0..self.rows {
            let cells: Vec<String> = self.row(i).iter().map(|v| format!("{v:.3}")).collect();
            writeln!(f, "  [{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn row_mut_modifies_in_place() {
        let mut m = Matrix::zeros(1, 2);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::from_rows(&[]);
        assert!(m.is_empty());
        assert_eq!(m.n_cols(), 0);
        assert_eq!(m.iter_rows().count(), 0);
    }

    #[test]
    fn display_formats_rows() {
        let m = Matrix::from_rows(&[vec![1.0]]);
        let s = m.to_string();
        assert!(s.contains("1×1"));
        assert!(s.contains("1.000"));
    }
}
