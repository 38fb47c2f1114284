//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The Gaussian-process surrogate at the core of the BOBO baseline needs
//! `K⁻¹y`, `K⁻¹k*`, and `log det K` for its posterior and marginal
//! likelihood; all three come from one Cholesky factorization of the kernel
//! Gram matrix.

use crate::{DMatrix, MathError, Result};

/// A lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Example
///
/// ```
/// use artisan_math::{DMatrix, cholesky::Cholesky};
///
/// # fn main() -> artisan_math::Result<()> {
/// let a = DMatrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[2.0, 1.0])?;
/// // A·x should equal b
/// let ax = a.mul_vec(&x)?;
/// assert!((ax[0] - 2.0).abs() < 1e-12 && (ax[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so callers may fill just
    /// half of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// - [`MathError::DimensionMismatch`] if `a` is not square.
    /// - [`MathError::NotPositiveDefinite`] if a diagonal pivot is
    ///   non-positive, reporting the failing minor.
    pub fn new(a: &DMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::DimensionMismatch(format!(
                "Cholesky requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut l = DMatrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        // Right-looking: once column j is final, its outer product is
        // subtracted from the trailing lower triangle, one contiguous row
        // segment at a time. Entry (i, m) still subtracts L_ik·L_mk in
        // ascending k, the order of the dot-product form, so the factor
        // is bit-identical to it; only the inner loop now vectorizes.
        let mut col = vec![0.0; n];
        for j in 0..n {
            let diag = l[(j, j)];
            if diag <= 0.0 || !diag.is_finite() {
                return Err(MathError::NotPositiveDefinite(j));
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                l[(i, j)] /= ljj;
                col[i] = l[(i, j)];
            }
            for i in (j + 1)..n {
                let lij = col[i];
                for (v, &lmj) in l.row_mut(i)[j + 1..=i].iter_mut().zip(&col[j + 1..=i]) {
                    *v -= lij * lmj;
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor.
    pub fn factor(&self) -> &DMatrix {
        &self.l
    }

    /// Row `r` of `L` up to and including the diagonal: `L[r][0..=r]`.
    /// Triangular solves walk these slices instead of indexing `(r, c)`
    /// element by element.
    ///
    /// # Panics
    ///
    /// Panics if `r >= dim()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.l.row(r)[..=r]
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Solves `L·y = b` (forward substitution). Exposed because the GP
    /// posterior variance needs `L⁻¹ k*` on its own.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(MathError::DimensionMismatch(format!(
                "rhs has {} entries for a {n}-dim system",
                b.len()
            )));
        }
        let mut y = b.to_vec();
        for r in 0..n {
            let (solved, rest) = y.split_at_mut(r);
            let (off_diag, diag) = self.row(r).split_at(r);
            let mut acc = rest[0];
            for (l, s) in off_diag.iter().zip(solved.iter()) {
                acc -= l * s;
            }
            rest[0] = acc / diag[0];
        }
        Ok(y)
    }

    /// Solves `Lᵀ·x = y` (back substitution).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when `y.len() != dim()`.
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if y.len() != n {
            return Err(MathError::DimensionMismatch(format!(
                "rhs has {} entries for a {n}-dim system",
                y.len()
            )));
        }
        let mut x = y.to_vec();
        for r in (0..n).rev() {
            for c in (r + 1)..n {
                let t = self.l[(c, r)] * x[c];
                x[r] -= t;
            }
            x[r] /= self.l[(r, r)];
        }
        Ok(x)
    }

    /// `log det A = 2·Σ log L_kk`, used by the GP marginal likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|k| self.l[(k, k)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spd_matrix(n: usize, rng: &mut StdRng) -> DMatrix {
        // A = B·Bᵀ + n·I is SPD for random B.
        let b = DMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = acc;
            }
        }
        a.add_diagonal(n as f64);
        a
    }

    /// The dot-product (left-looking) factorization, element by element.
    fn reference_factor(a: &DMatrix) -> std::result::Result<DMatrix, usize> {
        let n = a.rows();
        let mut l = DMatrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(j);
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(l)
    }

    #[test]
    fn factor_is_bit_identical_to_the_dot_product_form() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1usize, 2, 3, 5, 8, 17, 40, 161] {
            let mut a = spd_matrix(n, &mut rng);
            // Garbage above the diagonal must not be read.
            for i in 0..n {
                for j in (i + 1)..n {
                    a[(i, j)] = f64::NAN;
                }
            }
            let want = reference_factor(&a).unwrap();
            let got = Cholesky::new(&a).unwrap();
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(
                        got.factor()[(r, c)].to_bits(),
                        want[(r, c)].to_bits(),
                        "n={n} ({r},{c})"
                    );
                }
            }
        }
        // A near-singular Gram matrix fails at the same minor.
        let pts: Vec<f64> = (0..30).map(|k| k as f64 * 1e-4).collect();
        let k = DMatrix::from_fn(30, 30, |i, j| (-(pts[i] - pts[j]).powi(2)).exp());
        let idx = match Cholesky::new(&k) {
            Err(MathError::NotPositiveDefinite(idx)) => idx,
            other => panic!("expected breakdown, got {:?}", other.map(|_| ())),
        };
        assert_eq!(reference_factor(&k).map(|_| ()), Err(idx));
    }

    #[test]
    fn factor_of_known_matrix() {
        let a = DMatrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-14);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-14);
        assert!((l[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-14);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn solve_recovers_solution_for_random_spd() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 4, 8, 16] {
            let a = spd_matrix(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = a.mul_vec(&x_true).unwrap();
            let ch = Cholesky::new(&a).unwrap();
            let x = ch.solve(&b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-8, "n={n}: {xs} vs {xt}");
            }
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det([[4,2],[2,3]]) = 8
        let a = DMatrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - 8.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = DMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a).map(|_| ()),
            Err(MathError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DMatrix::zeros(2, 3);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn row_slices_hold_the_lower_triangle() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = spd_matrix(5, &mut rng);
        let ch = Cholesky::new(&a).unwrap();
        for r in 0..5 {
            let row = ch.row(r);
            assert_eq!(row.len(), r + 1);
            for (c, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), ch.factor()[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn forward_solve_inverts_the_factor() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = spd_matrix(6, &mut rng);
        let ch = Cholesky::new(&a).unwrap();
        let b: Vec<f64> = (0..6).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let y = ch.solve_lower(&b).unwrap();
        let ly = ch.factor().mul_vec(&y).unwrap();
        for (got, want) in ly.iter().zip(&b) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn triangular_solves_check_lengths() {
        let a = DMatrix::identity(3);
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_lower(&[1.0]).is_err());
        assert!(ch.solve_upper(&[1.0]).is_err());
    }
}
