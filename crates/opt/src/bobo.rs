//! BOBO [12]: Bayesian optimization of opamp topology in continuous
//! space via the graph embedding of [`crate::embedding`].
//!
//! The loop: an initial random design of experiments, then GP-fit +
//! expected-improvement proposals until the simulation budget is
//! exhausted. Every candidate costs one (Spectre-equivalent) simulation
//! and one optimizer step — which is exactly why Table 3 charges BOBO
//! hours where Artisan needs minutes.

use crate::bo::{propose_with, ProposeScratch};
use crate::embedding::{decode, DIM};
use crate::gp::GpHyperParams;
use crate::objective::{evaluate_batch, Evaluation, Objective, OptResult};
use artisan_circuit::sample::SampleRanges;
use artisan_circuit::Topology;
use artisan_sim::{SimBackend, Spec};
use rand::Rng;

/// BOBO configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoboConfig {
    /// Total simulation budget per trial (the paper's runs imply
    /// several hundred).
    pub budget: usize,
    /// Random initial samples before the GP takes over.
    pub initial_samples: usize,
    /// Acquisition candidate-pool size.
    pub pool: usize,
    /// GP hyperparameters.
    pub gp: GpHyperParams,
    /// Sliding-window cap on the GP training set: the Cholesky fit is
    /// O(n³), so the surrogate sees the most recent `gp_window` points
    /// plus the incumbent best — standard large-budget BO practice.
    pub gp_window: usize,
}

impl Default for BoboConfig {
    fn default() -> Self {
        BoboConfig {
            budget: 450,
            initial_samples: 50,
            pool: 400,
            gp: GpHyperParams {
                lengthscale: 0.45,
                signal_variance: 1.0,
                noise_variance: 1e-3,
            },
            gp_window: 160,
        }
    }
}

/// The BOBO optimizer.
#[derive(Debug, Clone)]
pub struct Bobo {
    config: BoboConfig,
    ranges: SampleRanges,
}

impl Bobo {
    /// Creates the optimizer.
    pub fn new(config: BoboConfig) -> Self {
        Bobo {
            config,
            ranges: SampleRanges::default(),
        }
    }

    /// Runs one optimization trial against any simulation backend.
    pub fn run<B: SimBackend + ?Sized, R: Rng + ?Sized>(
        &self,
        spec: &Spec,
        sim: &mut B,
        rng: &mut R,
    ) -> OptResult {
        // One scratch for the whole trial: every proposal reuses it.
        let mut scratch = ProposeScratch::default();
        let BoboConfig { pool, gp, .. } = self.config;
        self.run_with(spec, sim, rng, |wx, wy, rng| {
            propose_with(&mut scratch, wx, wy, DIM, pool, gp, rng)
        })
    }

    /// The trial loop, with the proposal step `propose(window_x,
    /// window_y, rng)` supplied by the caller.
    fn run_with<B: SimBackend + ?Sized, R: Rng + ?Sized>(
        &self,
        spec: &Spec,
        sim: &mut B,
        rng: &mut R,
        mut propose: impl FnMut(&[Vec<f64>], &[f64], &mut R) -> Vec<f64>,
    ) -> OptResult {
        let cl = spec.cl.value();
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut best: Option<(f64, Topology, Evaluation)> = None;

        // Absorbs one evaluated candidate exactly as the serial loop
        // did: squash the GP target, track the incumbent, then record
        // the point.
        let absorb = |x: Vec<f64>,
                      topo: Topology,
                      eval: Evaluation,
                      xs: &mut Vec<Vec<f64>>,
                      ys: &mut Vec<f64>,
                      best: &mut Option<(f64, Topology, Evaluation)>| {
            // GP targets: squash feasible FoM into a bounded scale so a
            // single huge FoM does not flatten the surrogate.
            let y = if eval.score > 0.0 {
                1.0 + eval.score.ln_1p() * 0.1
            } else {
                eval.score.max(-10.0) / 10.0
            };
            if best.as_ref().is_none_or(|(s, _, _)| eval.score > *s) {
                *best = Some((eval.score, topo, eval));
            }
            xs.push(x);
            ys.push(y);
        };

        // Phase 1 — initial design of experiments. The draws are
        // independent of any evaluation, so the whole DoE can be drawn
        // up front (identical RNG stream) and fanned out through one
        // `analyze_batch` call; absorbing in index order reproduces the
        // serial trajectory bit for bit.
        let doe = self.config.initial_samples.min(self.config.budget);
        let doe_xs: Vec<Vec<f64>> = (0..doe)
            .map(|_| (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let doe_topos: Vec<Topology> = doe_xs.iter().map(|x| decode(x, cl, &self.ranges)).collect();
        let evals = evaluate_batch(&doe_topos, spec, sim);
        for ((x, topo), eval) in doe_xs.into_iter().zip(doe_topos).zip(evals) {
            absorb(x, topo, eval, &mut xs, &mut ys, &mut best);
        }

        // Phase 2 — GP proposals, inherently sequential: each proposal
        // conditions on every previous observation.
        for _ in doe..self.config.budget {
            sim.ledger_mut().record_optimizer_step();
            // Sliding window: recent points plus the incumbent best.
            let window = self.config.gp_window.max(2);
            let start = xs.len().saturating_sub(window);
            let mut wx: Vec<Vec<f64>> = xs[start..].to_vec();
            let mut wy: Vec<f64> = ys[start..].to_vec();
            if let Some(best_idx) = ys
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
            {
                if best_idx < start {
                    wx.push(xs[best_idx].clone());
                    wy.push(ys[best_idx]);
                }
            }
            let x = propose(&wx, &wy, rng);
            let topo = decode(&x, cl, &self.ranges);
            let eval = evaluate_batch(std::slice::from_ref(&topo), spec, sim)
                .pop()
                .unwrap_or_else(|| Evaluation {
                    score: -10.0,
                    performance: None,
                    feasible: false,
                });
            absorb(x, topo, eval, &mut xs, &mut ys, &mut best);
        }

        match best {
            Some((_, topology, eval)) => OptResult {
                success: eval.feasible,
                performance: eval.performance,
                topology: Some(topology),
                evaluations: self.config.budget,
            },
            None => OptResult {
                success: false,
                topology: None,
                performance: None,
                evaluations: self.config.budget,
            },
        }
    }
}

impl Objective for Bobo {
    fn optimize(
        &mut self,
        spec: &Spec,
        sim: &mut dyn SimBackend,
        rng: &mut dyn rand::RngCore,
    ) -> OptResult {
        self.run(spec, sim, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artisan_sim::Simulator;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn tiny() -> BoboConfig {
        BoboConfig {
            budget: 40,
            initial_samples: 15,
            pool: 60,
            ..BoboConfig::default()
        }
    }

    #[test]
    fn respects_budget_and_bills_simulations() {
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(0);
        let r = Bobo::new(tiny()).run(&Spec::g1(), &mut sim, &mut rng);
        assert_eq!(r.evaluations, 40);
        assert_eq!(sim.ledger().simulations(), 40);
        assert!(sim.ledger().optimizer_steps() > 0);
    }

    #[test]
    fn returns_the_best_seen_candidate() {
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(1);
        let r = Bobo::new(tiny()).run(&Spec::g1(), &mut sim, &mut rng);
        assert!(r.topology.is_some());
        // Success is not guaranteed at this budget, but the result must
        // be internally consistent.
        if r.success {
            assert!(r.performance.is_some());
        }
    }

    #[test]
    fn is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = Simulator::new();
            let mut rng = StdRng::seed_from_u64(seed);
            Bobo::new(tiny())
                .run(&Spec::g1(), &mut sim, &mut rng)
                .success
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn batched_doe_matches_the_serial_loop() {
        use crate::objective::evaluate;
        // Pure-DoE config: every candidate goes through the one
        // analyze_batch fan-out. The result must equal a hand-written
        // serial loop drawing the same RNG stream.
        let config = BoboConfig {
            budget: 12,
            initial_samples: 12,
            ..tiny()
        };
        let spec = Spec::g1();
        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(3);
        let r = Bobo::new(config).run(&spec, &mut sim, &mut rng);

        let ranges = SampleRanges::default();
        let mut ref_sim = Simulator::new();
        let mut ref_rng = StdRng::seed_from_u64(3);
        let mut best: Option<(f64, crate::objective::Evaluation)> = None;
        for _ in 0..12 {
            let x: Vec<f64> = (0..DIM).map(|_| ref_rng.gen_range(0.0..1.0)).collect();
            let topo = decode(&x, spec.cl.value(), &ranges);
            let eval = evaluate(&topo, &spec, &mut ref_sim);
            if best.as_ref().is_none_or(|(s, _)| eval.score > *s) {
                best = Some((eval.score, eval));
            }
        }
        let (_, expected) = best.unwrap_or_else(|| panic!("reference loop evaluated"));
        assert_eq!(r.performance, expected.performance);
        assert_eq!(r.success, expected.feasible);
        assert_eq!(
            sim.ledger().simulations(),
            ref_sim.ledger().simulations(),
            "batching must not change billed simulations"
        );
        assert_eq!(sim.ledger().batched_solves(), 12);
    }

    #[test]
    fn tiny_budget_rarely_succeeds_on_g4() {
        // The shape behind Table 3: the low-power corner defeats random
        // exploration.
        let mut successes = 0;
        for seed in 0..5 {
            let mut sim = Simulator::new();
            let mut rng = StdRng::seed_from_u64(seed);
            if Bobo::new(tiny())
                .run(&Spec::g4(), &mut sim, &mut rng)
                .success
            {
                successes += 1;
            }
        }
        assert!(successes <= 1, "G-4 succeeded {successes}/5 at tiny budget");
    }

    #[test]
    fn run_past_the_window_cap_matches_the_reference_proposals() {
        // Default pool and window; the DoE nearly fills the window, so
        // the proposals cross the 160-point cap and then slide with the
        // incumbent appended.
        let config = BoboConfig {
            budget: 172,
            initial_samples: 155,
            ..BoboConfig::default()
        };
        let spec = Spec::g5();
        let bobo = Bobo::new(config);

        let mut sim = Simulator::new();
        let mut rng = StdRng::seed_from_u64(11);
        let got = bobo.run(&spec, &mut sim, &mut rng);

        let mut ref_sim = Simulator::new();
        let mut ref_rng = StdRng::seed_from_u64(11);
        let want = bobo.run_with(&spec, &mut ref_sim, &mut ref_rng, |wx, wy, rng| {
            crate::bo::reference::propose(wx, wy, DIM, config.pool, config.gp, rng)
        });

        let perf_bits = |r: &OptResult| {
            r.performance.map(|p| {
                [
                    p.gain.value(),
                    p.gbw.value(),
                    p.pm.value(),
                    p.power.value(),
                    p.fom,
                ]
                .map(f64::to_bits)
            })
        };
        assert!(got.topology.is_some());
        assert_eq!(perf_bits(&got), perf_bits(&want));
        assert_eq!(got.topology, want.topology);
        assert_eq!(got.success, want.success);
        assert_eq!(got.evaluations, want.evaluations);
        assert_eq!(sim.ledger(), ref_sim.ledger());
        assert_eq!(
            format!("{:?}", sim.ledger()),
            format!("{:?}", ref_sim.ledger())
        );
        assert_eq!(rng.next_u64(), ref_rng.next_u64());
    }
}
