//! Expected-improvement Bayesian optimization over the unit hypercube.

use crate::gp::{GaussianProcess, GpHyperParams, PosteriorScratch};
use rand::Rng;

/// Standard normal PDF.
fn phi(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ≈ 1.5e-7 — far below acquisition noise).
fn big_phi(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x >= 0.0 { erf } else { -erf };
    0.5 * (1.0 + erf)
}

/// Expected improvement of a maximization problem at posterior
/// `(mean, variance)` over the incumbent `best`.
pub fn expected_improvement(mean: f64, variance: f64, best: f64) -> f64 {
    let sd = variance.sqrt().max(1e-12);
    let z = (mean - best) / sd;
    (mean - best) * big_phi(z) + sd * phi(z)
}

/// Reusable buffers for [`propose_with`]: the drawn candidate pool,
/// its posterior means and variances, and the GP's batched-posterior
/// scratch. Keep one per optimization loop so proposals after the first
/// allocate nothing for scoring.
#[derive(Debug, Clone, Default)]
pub struct ProposeScratch {
    /// Candidate pool, row-major `pool × dim`.
    pool: Vec<f64>,
    mean: Vec<f64>,
    var: Vec<f64>,
    posterior: PosteriorScratch,
}

/// One BO proposal step: fit a GP on the history and return the
/// candidate (from a random pool of `pool` points in `[0,1]^dim`) with
/// maximal expected improvement. Falls back to a random point when the
/// GP cannot be fitted (e.g. a single observation, or non-finite data).
pub fn propose<R: Rng + ?Sized>(
    history_x: &[Vec<f64>],
    history_y: &[f64],
    dim: usize,
    pool: usize,
    hp: GpHyperParams,
    rng: &mut R,
) -> Vec<f64> {
    propose_with(
        &mut ProposeScratch::default(),
        history_x,
        history_y,
        dim,
        pool,
        hp,
        rng,
    )
}

/// [`propose`] scoring the pool in `scratch`'s reused buffers.
///
/// The fallback point is drawn first, then the whole pool, in the order
/// a draw-then-score loop would draw them; the posterior never touches
/// the RNG. The pool is scored in one [`GaussianProcess::predict_batch`]
/// and the first candidate with strictly greatest expected improvement
/// wins; if none beats `-inf` the fallback point is returned.
pub fn propose_with<R: Rng + ?Sized>(
    scratch: &mut ProposeScratch,
    history_x: &[Vec<f64>],
    history_y: &[f64],
    dim: usize,
    pool: usize,
    hp: GpHyperParams,
    rng: &mut R,
) -> Vec<f64> {
    let random_point =
        |rng: &mut R| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect() };

    if history_x.len() < 2 {
        return random_point(rng);
    }
    let Ok(gp) = GaussianProcess::fit(history_x, history_y, hp) else {
        return random_point(rng);
    };
    let best = history_y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let fallback = random_point(rng);
    let ProposeScratch {
        pool: candidates,
        mean,
        var,
        posterior,
    } = scratch;
    candidates.clear();
    candidates.extend((0..pool * dim).map(|_| rng.gen_range(0.0..1.0)));
    mean.resize(pool, 0.0);
    var.resize(pool, 0.0);
    if gp.predict_batch(candidates, mean, var, posterior).is_err() {
        // The history's dimension differs from `dim`.
        return fallback;
    }
    let mut best_idx = None;
    let mut best_ei = f64::NEG_INFINITY;
    for (i, (&m, &v)) in mean.iter().zip(var.iter()).enumerate() {
        let ei = expected_improvement(m, v, best);
        if ei > best_ei {
            best_ei = ei;
            best_idx = Some(i);
        }
    }
    match best_idx {
        Some(i) => candidates[i * dim..(i + 1) * dim].to_vec(),
        None => fallback,
    }
}

/// The draw-one-score-one proposal loop the batched scoring replaced,
/// kept verbatim (on the scalar reference posterior) as the oracle
/// [`propose`] must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::gp::reference::predict;

    pub(crate) fn propose<R: Rng + ?Sized>(
        history_x: &[Vec<f64>],
        history_y: &[f64],
        dim: usize,
        pool: usize,
        hp: GpHyperParams,
        rng: &mut R,
    ) -> Vec<f64> {
        let random_point =
            |rng: &mut R| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect() };

        if history_x.len() < 2 {
            return random_point(rng);
        }
        let Ok(gp) = GaussianProcess::fit(history_x, history_y, hp) else {
            return random_point(rng);
        };
        let best = history_y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut best_candidate = random_point(rng);
        let mut best_ei = f64::NEG_INFINITY;
        for _ in 0..pool {
            let c = random_point(rng);
            let (m, v) = predict(&gp, &c);
            let ei = expected_improvement(m, v, best);
            if ei > best_ei {
                best_ei = ei;
                best_candidate = c;
            }
        }
        best_candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn normal_cdf_sanity() {
        assert!((big_phi(0.0) - 0.5).abs() < 1e-7);
        assert!((big_phi(1.96) - 0.975).abs() < 1e-3);
        assert!((big_phi(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn ei_is_positive_and_monotone_in_mean() {
        let lo = expected_improvement(0.0, 1.0, 1.0);
        let hi = expected_improvement(2.0, 1.0, 1.0);
        assert!(lo > 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn ei_vanishes_with_certainty_below_best() {
        let ei = expected_improvement(0.0, 1e-18, 1.0);
        assert!(ei < 1e-9);
    }

    #[test]
    fn bo_finds_the_peak_of_a_smooth_function() {
        // Maximize f(x) = −(x−0.7)² on [0,1].
        let f = |x: &[f64]| -(x[0] - 0.7) * (x[0] - 0.7);
        let mut rng = StdRng::seed_from_u64(1);
        let mut xs: Vec<Vec<f64>> = vec![vec![0.1], vec![0.9]];
        let mut ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        for _ in 0..25 {
            let c = propose(&xs, &ys, 1, 200, GpHyperParams::default(), &mut rng);
            ys.push(f(&c));
            xs.push(c);
        }
        let best_x = xs[ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0][0];
        assert!((best_x - 0.7).abs() < 0.08, "best {best_x}");
    }

    #[test]
    fn proposals_stay_in_unit_cube() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs = vec![vec![0.2, 0.3], vec![0.8, 0.1], vec![0.5, 0.9]];
        let ys = vec![0.1, 0.5, 0.2];
        for _ in 0..20 {
            let c = propose(&xs, &ys, 2, 50, GpHyperParams::default(), &mut rng);
            assert_eq!(c.len(), 2);
            assert!(c.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn insufficient_history_falls_back_to_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = propose(&[], &[], 3, 10, GpHyperParams::default(), &mut rng);
        assert_eq!(c.len(), 3);
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn propose_matches_the_per_candidate_loop() {
        let hp = crate::bobo::BoboConfig::default().gp;
        let mut data = StdRng::seed_from_u64(40);
        for (seed, (n, pool)) in [
            (2, 400),
            (17, 0),
            (64, 1),
            (100, 65),
            (161, 400),
            (161, 127),
        ]
        .into_iter()
        .enumerate()
        {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..34).map(|_| data.gen_range(0.0..1.0)).collect())
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| x[0] - x[1] * x[2]).collect();
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut ref_rng = StdRng::seed_from_u64(seed as u64);
            let got = propose(&xs, &ys, 34, pool, hp, &mut rng);
            let want = reference::propose(&xs, &ys, 34, pool, hp, &mut ref_rng);
            assert_eq!(bits(&got), bits(&want), "n={n} pool={pool}");
            // Both consumed the same RNG stream.
            assert_eq!(rng.next_u64(), ref_rng.next_u64(), "n={n} pool={pool}");
        }
    }

    #[test]
    fn non_finite_history_takes_the_random_fallback() {
        let xs = vec![vec![0.2, 0.3], vec![0.8, 0.1], vec![0.5, 0.9]];
        for bad in [f64::NAN, f64::INFINITY] {
            let ys = vec![0.1, bad, 0.2];
            let mut rng = StdRng::seed_from_u64(9);
            let c = propose(&xs, &ys, 2, 50, GpHyperParams::default(), &mut rng);
            let mut fresh = StdRng::seed_from_u64(9);
            let first: Vec<f64> = (0..2).map(|_| fresh.gen_range(0.0..1.0)).collect();
            assert_eq!(bits(&c), bits(&first));
            // Only the fallback point was drawn, not a pool.
            assert_eq!(rng.next_u64(), fresh.next_u64());
        }
    }
}
