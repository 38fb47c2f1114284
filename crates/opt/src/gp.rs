//! Gaussian-process regression with an RBF kernel.
//!
//! The surrogate model inside the BOBO baseline: fit on
//! (embedding, objective) pairs, predict posterior mean/variance for
//! expected-improvement acquisition. Solves come from the Cholesky
//! factorization in `artisan-math`.
//!
//! Prediction is batched: [`GaussianProcess::predict_batch`] scores a
//! whole candidate pool structure-of-arrays, candidate index innermost,
//! so the forward substitution `L·V = K*` runs across candidates and
//! vectorizes instead of walking one serial dependency chain per
//! candidate. Every candidate still sees exactly the floating-point
//! operations, in exactly the order, of a one-at-a-time posterior, so
//! batching never changes a bit of the result.

use artisan_math::{cholesky::Cholesky, DMatrix, MathError};

/// Candidates per pass of the batched posterior. Bounds the `n × CHUNK`
/// solve block (≈ 80 KiB at the 161-point BOBO window) so it stays in
/// cache and peak memory does not grow with the pool.
const CHUNK: usize = 64;

/// The identity `Iterator::sum` folds `f64`s from. Starting the batched
/// accumulators here reproduces the scalar sums bit for bit, down to the
/// sign of an all-negative-zero sum.
const SUM_ZERO: f64 = -0.0;

/// GP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpHyperParams {
    /// RBF lengthscale (shared across dimensions).
    pub lengthscale: f64,
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Observation noise variance σ_n².
    pub noise_variance: f64,
}

impl Default for GpHyperParams {
    fn default() -> Self {
        GpHyperParams {
            lengthscale: 0.3,
            signal_variance: 1.0,
            noise_variance: 1e-4,
        }
    }
}

/// A fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    hp: GpHyperParams,
    dim: usize,
    /// Training inputs, row-major `n × dim`.
    x: Vec<f64>,
    /// α = K⁻¹·(y − mean), for the posterior mean.
    alpha: Vec<f64>,
    chol: Cholesky,
    y_mean: f64,
    y_scale: f64,
}

/// Caller-owned scratch for [`GaussianProcess::predict_batch`]: the
/// transposed query chunk, the `n × chunk` block that holds `K*` and is
/// solved in place to `L⁻¹K*`, and the per-candidate accumulators.
///
/// Buffers grow to the largest window and chunk seen and are then reused
/// without allocating, the caller-owned `MemStack` discipline the sparse
/// LU's scratch follows. One scratch serves any number of GPs, one call
/// at a time.
#[derive(Debug, Clone, Default)]
pub struct PosteriorScratch {
    /// Query chunk, `dim × w`, candidate innermost.
    q: Vec<f64>,
    /// `K*` rows, then `L⁻¹K*` rows, `n × w`, candidate innermost.
    v: Vec<f64>,
    /// Per-candidate `k*·α`.
    mean: Vec<f64>,
    /// Per-candidate `‖L⁻¹k*‖²`.
    explained: Vec<f64>,
}

/// The RBF kernel at squared distance `d2`.
#[inline]
fn kernel(d2: f64, hp: &GpHyperParams) -> f64 {
    hp.signal_variance * (-0.5 * d2 / (hp.lengthscale * hp.lengthscale)).exp()
}

/// Squared distance term of the RBF kernel.
#[inline(always)]
fn sq_diff(p: f64, q: f64) -> f64 {
    (p - q) * (p - q)
}

/// `acc[j] += term(coef[k], cols[k·stride + j])` for `k` ascending.
///
/// Columns are consumed four per pass so `acc[j]` stays in a register
/// across them, while the loop over `j` vectorizes. Each `acc[j]` still
/// adds its terms one at a time in `k` order, so every sum is
/// bit-identical to the plain `for k` loop.
#[inline(always)]
fn accumulate(
    acc: &mut [f64],
    coef: &[f64],
    cols: &[f64],
    stride: usize,
    term: impl Fn(f64, f64) -> f64,
) {
    let mut ks = coef.chunks_exact(4);
    let mut blocks = cols.chunks_exact(4 * stride);
    for (k, block) in (&mut ks).zip(&mut blocks) {
        let (c0, rest) = block.split_at(stride);
        let (c1, rest) = rest.split_at(stride);
        let (c2, c3) = rest.split_at(stride);
        for ((((a, &x0), &x1), &x2), &x3) in acc.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
            *a = *a + term(k[0], x0) + term(k[1], x1) + term(k[2], x2) + term(k[3], x3);
        }
    }
    for (&k, col) in ks.remainder().iter().zip(blocks.remainder().chunks(stride)) {
        for (a, &x) in acc.iter_mut().zip(col) {
            *a += term(k, x);
        }
    }
}

/// Writes the `m` row-major points of `points` (`m × dim`)
/// dimension-major into `out` (`dim × m`), reusing its allocation.
fn transpose_into(out: &mut Vec<f64>, points: &[f64], m: usize, dim: usize) {
    reset(out, dim * m, 0.0);
    for j in 0..m {
        for d in 0..dim {
            out[d * m + j] = points[j * dim + d];
        }
    }
}

/// Resizes `buf` to `len` copies of `value`, reusing its allocation.
fn reset(buf: &mut Vec<f64>, len: usize, value: f64) {
    buf.clear();
    buf.resize(len, value);
}

impl GaussianProcess {
    /// Fits the GP on observations `(x, y)`. Targets are internally
    /// standardized for conditioning.
    ///
    /// # Errors
    ///
    /// - [`MathError::DimensionMismatch`] for empty data or ragged rows.
    /// - [`MathError::DegenerateInput`] when an input coordinate or a
    ///   target is NaN or infinite: such a posterior would be NaN
    ///   everywhere and silently rank no candidate.
    /// - [`MathError::NotPositiveDefinite`] if the kernel matrix cannot
    ///   be factorized even after jitter (pathological duplicates).
    pub fn fit(x: &[Vec<f64>], y: &[f64], hp: GpHyperParams) -> Result<Self, MathError> {
        if x.is_empty() || x.len() != y.len() {
            return Err(MathError::DimensionMismatch(format!(
                "{} inputs vs {} targets",
                x.len(),
                y.len()
            )));
        }
        let dim = x[0].len();
        if x.iter().any(|r| r.len() != dim) {
            return Err(MathError::DimensionMismatch(
                "ragged input rows".to_string(),
            ));
        }
        if x.iter().flatten().chain(y).any(|v| !v.is_finite()) {
            return Err(MathError::DegenerateInput("non-finite GP training data"));
        }
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_scale = {
            let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
            var.sqrt().max(1e-9)
        };
        let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

        // Lower triangle only: the factorization never reads the rest.
        // Row i's squared distances accumulate across j ≤ i at once from
        // the dimension-major copy of the inputs.
        let x_flat = x.concat();
        let mut xt = Vec::new();
        transpose_into(&mut xt, &x_flat, n, dim);
        let mut k = DMatrix::zeros(n, n);
        for (i, xi) in x.iter().enumerate() {
            let row = &mut k.row_mut(i)[..=i];
            row.fill(SUM_ZERO);
            accumulate(row, xi, &xt, n, sq_diff);
            for v in row {
                *v = kernel(*v, &hp);
            }
        }
        k.add_diagonal(hp.noise_variance.max(1e-10));
        // Progressive jitter on factorization failure.
        let chol = match Cholesky::new(&k) {
            Ok(c) => c,
            Err(_) => {
                k.add_diagonal(1e-6);
                Cholesky::new(&k)?
            }
        };
        let alpha = chol.solve(&yn)?;
        Ok(GaussianProcess {
            hp,
            dim,
            x: x_flat,
            alpha,
            chol,
            y_mean,
            y_scale,
        })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// True when fitted on no points (cannot happen through [`Self::fit`]).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Posterior mean and variance at a query point: the batched
    /// posterior with a pool of one.
    ///
    /// # Panics
    ///
    /// Panics when `query.len()` differs from the training inputs'
    /// dimension.
    pub fn predict(&self, query: &[f64]) -> (f64, f64) {
        let (mut mean, mut var) = ([0.0], [0.0]);
        #[allow(clippy::expect_used)] // documented panic on a wrong-length query
        self.predict_batch(query, &mut mean, &mut var, &mut PosteriorScratch::default())
            .expect("query length matches the training dimension");
        (mean[0], var[0])
    }

    /// Posterior means and variances of a pool of queries, written to
    /// `mean[i]` and `var[i]` for the query at
    /// `queries[i·dim..(i+1)·dim]`. Each result is bit-identical to
    /// [`Self::predict`] on that query alone.
    ///
    /// # Errors
    ///
    /// [`MathError::DimensionMismatch`] unless `mean` and `var` have one
    /// slot per query and `queries.len()` is `mean.len()` times the
    /// training inputs' dimension.
    pub fn predict_batch(
        &self,
        queries: &[f64],
        mean: &mut [f64],
        var: &mut [f64],
        scratch: &mut PosteriorScratch,
    ) -> Result<(), MathError> {
        let m = mean.len();
        if var.len() != m || queries.len() != m * self.dim {
            return Err(MathError::DimensionMismatch(format!(
                "{} query values, {} mean and {} variance slots for dim {}",
                queries.len(),
                m,
                var.len(),
                self.dim
            )));
        }
        for start in (0..m).step_by(CHUNK) {
            let end = (start + CHUNK).min(m);
            self.posterior_chunk(
                &queries[start * self.dim..end * self.dim],
                &mut mean[start..end],
                &mut var[start..end],
                scratch,
            );
        }
        Ok(())
    }

    /// One chunk of [`Self::predict_batch`]. Per candidate this performs
    /// the scalar posterior's operations in its order: squared distance
    /// summed over dimensions, `k*·α` summed over training points, the
    /// forward substitution `y_r = (k*_r − Σ_{c<r} L_rc·y_c) / L_rr` with
    /// `c` ascending, and `‖y‖²` summed over `r`. Only the interleaving
    /// across candidates differs.
    fn posterior_chunk(
        &self,
        queries: &[f64],
        mean: &mut [f64],
        var: &mut [f64],
        s: &mut PosteriorScratch,
    ) {
        let (n, dim, w) = (self.len(), self.dim, mean.len());
        transpose_into(&mut s.q, queries, w, dim);
        reset(&mut s.v, n * w, SUM_ZERO);
        reset(&mut s.mean, w, SUM_ZERO);
        reset(&mut s.explained, w, SUM_ZERO);

        // Row r of the block only needs rows 0..r already solved, so
        // building K*_r, folding it into the mean and solving it happen
        // in one pass over the training points.
        for r in 0..n {
            let (solved, rest) = s.v.split_at_mut(r * w);
            let row = &mut rest[..w];
            accumulate(row, &self.x[r * dim..(r + 1) * dim], &s.q, w, sq_diff);
            let a = self.alpha[r];
            for (k, m) in row.iter_mut().zip(s.mean.iter_mut()) {
                *k = kernel(*k, &self.hp);
                *m += *k * a;
            }
            // y − l·v computed as y + (−(l·v)): IEEE subtraction is
            // exactly addition of the negation.
            let (off_diag, diag) = self.chol.row(r).split_at(r);
            accumulate(row, off_diag, solved, w, |l, v| -(l * v));
            for (y, e) in row.iter_mut().zip(s.explained.iter_mut()) {
                *y /= diag[0];
                *e += *y * *y;
            }
        }

        for ((out_m, out_v), (&m, &e)) in mean
            .iter_mut()
            .zip(var.iter_mut())
            .zip(s.mean.iter().zip(&s.explained))
        {
            let var_n = (self.hp.signal_variance - e).max(1e-12);
            *out_m = m * self.y_scale + self.y_mean;
            *out_v = var_n * self.y_scale * self.y_scale;
        }
    }
}

/// The one-candidate-at-a-time posterior the batched path replaced,
/// kept verbatim as the oracle [`GaussianProcess::predict_batch`] must
/// match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The RBF kernel between two points.
    pub(crate) fn rbf(a: &[f64], b: &[f64], hp: &GpHyperParams) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
        kernel(d2, hp)
    }

    /// Forward substitution `L·y = b`, element by element.
    fn solve_lower(l: &DMatrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut y = b.to_vec();
        for r in 0..n {
            for c in 0..r {
                let t = l[(r, c)] * y[c];
                y[r] -= t;
            }
            y[r] /= l[(r, r)];
        }
        y
    }

    /// Scalar posterior mean and variance at one query.
    pub(crate) fn predict(gp: &GaussianProcess, query: &[f64]) -> (f64, f64) {
        let kstar: Vec<f64> =
            gp.x.chunks_exact(gp.dim)
                .map(|xi| rbf(xi, query, &gp.hp))
                .collect();
        let mean_n: f64 = kstar.iter().zip(&gp.alpha).map(|(a, b)| a * b).sum();
        // var = k(x,x) − ‖L⁻¹k*‖²
        let v = solve_lower(gp.chol.factor(), &kstar);
        let explained: f64 = v.iter().map(|t| t * t).sum();
        let var_n = (gp.hp.signal_variance - explained).max(1e-12);
        (
            mean_n * gp.y_scale + gp.y_mean,
            var_n * gp.y_scale * gp.y_scale,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::reference::rbf;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|k| vec![k as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin()).collect();
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, v) = gp.predict(xi);
            assert!((m - yi).abs() < 0.05, "{m} vs {yi}");
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1]];
        let y = vec![0.0, 0.1];
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (_, v_near) = gp.predict(&[0.05]);
        let (_, v_far) = gp.predict(&[2.0]);
        assert!(v_far > 10.0 * v_near, "near {v_near} far {v_far}");
    }

    #[test]
    fn prediction_between_points_is_smooth() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.55]);
        assert!((m - 0.3025).abs() < 0.05, "{m}");
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(GaussianProcess::fit(&[], &[], GpHyperParams::default()).is_err());
        assert!(GaussianProcess::fit(&[vec![0.0]], &[1.0, 2.0], GpHyperParams::default()).is_err());
        assert!(GaussianProcess::fit(
            &[vec![0.0], vec![0.0, 1.0]],
            &[1.0, 2.0],
            GpHyperParams::default()
        )
        .is_err());
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        let y = vec![1.0, 1.1, 0.9];
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.1);
    }

    #[test]
    fn standardization_handles_large_targets() {
        let x = grid_1d(5);
        let y: Vec<f64> = x.iter().map(|p| 1e6 + 1e5 * p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y, GpHyperParams::default()).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.05e6).abs() / 1.05e6 < 0.02, "{m}");
    }

    /// BOBO's surrogate hyperparameters.
    fn bobo_hp() -> GpHyperParams {
        GpHyperParams {
            lengthscale: 0.45,
            signal_variance: 1.0,
            noise_variance: 1e-3,
        }
    }

    /// A random training window in `[0,1]^dim`; about one point in six
    /// duplicates an earlier one, as BOBO's incumbent re-entry does.
    fn window(rng: &mut StdRng, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        for _ in 0..n {
            let x = if !xs.is_empty() && rng.gen_range(0..6) == 0 {
                xs[rng.gen_range(0..xs.len())].clone()
            } else {
                (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect()
            };
            xs.push(x);
        }
        let ys = xs
            .iter()
            .map(|x| x.iter().map(|v| (3.0 * v).sin()).sum::<f64>() + rng.gen_range(-0.1..0.1))
            .collect();
        (xs, ys)
    }

    /// A flat pool of `m` queries; every fifth repeats a training point.
    fn pool(rng: &mut StdRng, m: usize, xs: &[Vec<f64>]) -> Vec<f64> {
        let dim = xs[0].len();
        let mut q = Vec::with_capacity(m * dim);
        for i in 0..m {
            if i % 5 == 4 {
                q.extend_from_slice(&xs[rng.gen_range(0..xs.len())]);
            } else {
                q.extend((0..dim).map(|_| rng.gen_range(-0.2..1.2)));
            }
        }
        q
    }

    /// Scores `queries` with one batched call (through `scratch`) and
    /// checks every candidate's mean and variance bits against the
    /// scalar reference and against the one-query `predict`.
    fn assert_batch_matches_reference(
        gp: &GaussianProcess,
        queries: &[f64],
        scratch: &mut PosteriorScratch,
    ) {
        let m = queries.len() / gp.dim;
        let (mut mean, mut var) = (vec![f64::NAN; m], vec![f64::NAN; m]);
        gp.predict_batch(queries, &mut mean, &mut var, scratch)
            .unwrap();
        for (i, q) in queries.chunks_exact(gp.dim).enumerate() {
            let (rm, rv) = reference::predict(gp, q);
            assert_eq!(
                mean[i].to_bits(),
                rm.to_bits(),
                "mean {i}: {} vs {rm}",
                mean[i]
            );
            assert_eq!(
                var[i].to_bits(),
                rv.to_bits(),
                "var {i}: {} vs {rv}",
                var[i]
            );
            let (pm, pv) = gp.predict(q);
            assert_eq!((pm.to_bits(), pv.to_bits()), (rm.to_bits(), rv.to_bits()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random windows, dimensions and pool sizes: the batched
        /// posterior reproduces the scalar one bit for bit, with one
        /// scratch reused across differently shaped calls.
        #[test]
        fn batched_posterior_is_bit_identical_to_the_scalar_one(
            n in 2usize..162,
            dim in 1usize..35,
            m in 0usize..200,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (xs, ys) = window(&mut rng, n, dim);
            let gp = GaussianProcess::fit(&xs, &ys, bobo_hp()).unwrap();
            let queries = pool(&mut rng, m, &xs);
            let mut scratch = PosteriorScratch::default();
            assert_batch_matches_reference(&gp, &queries, &mut scratch);
            // Reuse after a differently sized call.
            let small = pool(&mut rng, 3, &xs);
            assert_batch_matches_reference(&gp, &small, &mut scratch);
        }
    }

    #[test]
    fn pool_sizes_around_the_chunk_boundary_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(21);
        let (xs, ys) = window(&mut rng, 161, 34);
        let gp = GaussianProcess::fit(&xs, &ys, bobo_hp()).unwrap();
        let mut scratch = PosteriorScratch::default();
        for m in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, 400] {
            let queries = pool(&mut rng, m, &xs);
            assert_batch_matches_reference(&gp, &queries, &mut scratch);
        }
    }

    #[test]
    fn jitter_refit_posterior_is_bit_identical() {
        // Exact duplicates under a large signal variance: the noise is
        // below half an ulp of the diagonal, so the first factorization
        // meets a zero pivot and the fit takes the jitter path.
        let hp = GpHyperParams {
            lengthscale: 0.5,
            signal_variance: 1e6,
            noise_variance: 1e-10,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let (mut xs, mut ys) = window(&mut rng, 20, 3);
        for k in 0..10 {
            xs.push(xs[k].clone());
            ys.push(ys[k] + 0.01);
        }
        let mut raw = DMatrix::zeros(xs.len(), xs.len());
        for i in 0..xs.len() {
            for j in 0..=i {
                raw[(i, j)] = rbf(&xs[i], &xs[j], &hp);
            }
        }
        raw.add_diagonal(hp.noise_variance);
        assert!(
            Cholesky::new(&raw).is_err(),
            "the test must force the jitter refit"
        );

        let gp = GaussianProcess::fit(&xs, &ys, hp).unwrap();
        let queries = pool(&mut rng, 70, &xs);
        assert_batch_matches_reference(&gp, &queries, &mut PosteriorScratch::default());
    }

    #[test]
    fn lower_triangle_fill_factors_like_the_full_gram() {
        let mut rng = StdRng::seed_from_u64(8);
        let (xs, ys) = window(&mut rng, 90, 34);
        let hp = bobo_hp();
        let gp = GaussianProcess::fit(&xs, &ys, hp).unwrap();

        let n = xs.len();
        let mut full = DMatrix::from_fn(n, n, |i, j| rbf(&xs[i], &xs[j], &hp));
        full.add_diagonal(hp.noise_variance);
        let chol = Cholesky::new(&full).unwrap();
        for r in 0..n {
            let got: Vec<u64> = gp.chol.row(r).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = chol.row(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {r}");
        }
    }

    #[test]
    fn rejects_non_finite_training_data() {
        let x = grid_1d(4);
        let hp = GpHyperParams::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let y = vec![0.0, 1.0, bad, 0.5];
            assert!(matches!(
                GaussianProcess::fit(&x, &y, hp),
                Err(MathError::DegenerateInput(_))
            ));
            let mut bad_x = x.clone();
            bad_x[1][0] = bad;
            assert!(matches!(
                GaussianProcess::fit(&bad_x, &[0.0, 1.0, 2.0, 0.5], hp),
                Err(MathError::DegenerateInput(_))
            ));
        }
    }

    #[test]
    fn predict_batch_checks_lengths() {
        let gp = GaussianProcess::fit(&grid_1d(4), &[0.0, 1.0, 0.0, 1.0], GpHyperParams::default())
            .unwrap();
        let mut scratch = PosteriorScratch::default();
        let (mut mean, mut var) = ([0.0; 2], [0.0; 2]);
        assert!(gp
            .predict_batch(&[0.5], &mut mean, &mut var, &mut scratch)
            .is_err());
        assert!(gp
            .predict_batch(&[0.5, 0.6], &mut mean, &mut var[..1], &mut scratch)
            .is_err());
        assert!(gp
            .predict_batch(&[0.5, 0.6], &mut mean, &mut var, &mut scratch)
            .is_ok());
    }
}
