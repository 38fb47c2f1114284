use crate::{MathError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major real matrix.
///
/// Used by the Gaussian-process regression in the Bayesian-optimization
/// baseline (`artisan-opt`): kernel Gram matrices, their Cholesky factors,
/// and the associated triangular solves all operate on `DMatrix`.
///
/// # Example
///
/// ```
/// use artisan_math::DMatrix;
///
/// let m = DMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(m[(1, 0)], 3.0);
/// # Ok::<(), artisan_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for k in 0..n {
            m[(k, k)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch(format!(
                "{} entries cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(DMatrix {
            rows,
            cols,
            data: data.to_vec(),
        })
    }

    /// Builds a square matrix from a symmetric generator `f(i, j)` —
    /// the usual way kernel Gram matrices are assembled.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns true for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(MathError::DimensionMismatch(format!(
                "matrix has {} cols but vector has {}",
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .zip(x)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect())
    }

    /// Adds `value` to the diagonal — the GP's noise-jitter operation.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, value: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for k in 0..self.rows {
            self[(k, k)] += value;
        }
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert!(!m.is_square());
    }

    #[test]
    fn from_fn_builds_gram_like_matrix() {
        let m = DMatrix::from_fn(3, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
    }

    #[test]
    fn mul_vec_identity_is_noop() {
        let i = DMatrix::identity(3);
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(i.mul_vec(&x).unwrap(), x);
    }

    #[test]
    fn mul_vec_checks_dims() {
        let m = DMatrix::zeros(2, 2);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn add_diagonal_jitters() {
        let mut m = DMatrix::zeros(2, 2);
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn add_diagonal_panics_on_rectangular() {
        DMatrix::zeros(2, 3).add_diagonal(1.0);
    }

    #[test]
    fn from_rows_rejects_wrong_length() {
        assert!(DMatrix::from_rows(2, 2, &[1.0]).is_err());
    }
}
