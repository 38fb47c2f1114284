//! `table3-slice`: every Table 3 cell (five methods × five Table 2
//! groups) through `artisan_core::experiment::run_cell`, with the BOBO
//! and RLBO budgets cut so one pass fits the run while BOBO's GP window
//! still reaches its 160-point cap. Bound by the `opt` GP-EI surrogate.

use crate::report::{median, percentile, ratio, same_perf, Digest, RunReport};
use crate::trace::{self, Timed, Tracer};
use crate::{nproc, training, Size};
use artisan::circuit::Topology;
use artisan::core::{run_cell, Artisan, ExperimentConfig, GroupResult, Method, TrialRecord};
use artisan::dataset::DatasetConfig;
use artisan::opt::gp::GaussianProcess;
use artisan::opt::objective::Objective;
use artisan::opt::{bo, embedding, Bobo, BoboConfig, Gpt4Baseline, Llama2Baseline, OptResult};
use artisan::opt::{Rlbo, RlboConfig};
use artisan::sim::{Performance, SimBackend, Simulator, Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

struct Params {
    trials: usize,
    bobo_budget: usize,
    rlbo_budget: usize,
    setups: usize,
    /// Passes every run completes, whatever its length, so the column
    /// percentiles rest on at least ten columns.
    min_passes: u64,
    dataset: DatasetConfig,
    gp_reps: usize,
}

impl Params {
    fn new(size: Size) -> Params {
        match size {
            Size::Full => Params {
                trials: nproc(),
                bobo_budget: 180,
                rlbo_budget: 200,
                setups: 3,
                min_passes: 2,
                dataset: DatasetConfig::default(),
                gp_reps: 15,
            },
            Size::Tiny => Params {
                trials: 1,
                bobo_budget: 60,
                rlbo_budget: 40,
                setups: 1,
                min_passes: 1,
                dataset: DatasetConfig::tiny(),
                gp_reps: 2,
            },
        }
    }

    /// Pass `pass`'s experiment configuration: the paper's BOBO pool,
    /// GP window and hyperparameters with a cut budget.
    fn config(&self, seed: u64, pass: u64) -> ExperimentConfig {
        ExperimentConfig {
            trials: self.trials,
            seed: crate::mix(seed, pass),
            bobo: BoboConfig {
                budget: self.bobo_budget,
                ..BoboConfig::default()
            },
            rlbo: RlboConfig {
                budget: self.rlbo_budget,
                ..RlboConfig::default()
            },
            artisan: training::options(self.dataset),
            ..ExperimentConfig::default()
        }
    }
}

/// The per-trial seed `run_cell` derives for trial `k` of a cell.
fn trial_seed(config: &ExperimentConfig, method: Method, group: &str, k: usize) -> u64 {
    config
        .seed
        .wrapping_mul(1_000_003)
        .wrapping_add(k as u64 * 7919)
        ^ (group.len() as u64)
        ^ ((method as u64) << 32)
}

/// One trial's deterministic outputs.
struct TrialOut {
    success: bool,
    performance: Option<Performance>,
    topology: Option<Topology>,
    testbed_seconds: f64,
}

impl TrialOut {
    fn digest(&self, digest: &mut Digest) {
        digest.bool(self.success);
        digest.performance(self.performance.as_ref());
        digest.f64(self.testbed_seconds);
    }

    fn same_as(&self, other: &TrialOut) -> bool {
        self.success == other.success
            && same_perf(self.performance.as_ref(), other.performance.as_ref())
            && self.topology == other.topology
            && self.testbed_seconds.to_bits() == other.testbed_seconds.to_bits()
    }
}

/// Runs one trial outside `run_cell`, exactly as it runs a trial of an
/// unsupervised, uncached experiment, against `sim`.
fn direct_trial(
    method: Method,
    spec: &Spec,
    config: &ExperimentConfig,
    artisan: &mut Artisan,
    seed: u64,
    sim: &mut dyn SimBackend,
) -> TrialOut {
    if method == Method::Artisan {
        let outcome = artisan.design_with(spec, sim, seed);
        return TrialOut {
            success: outcome.design.success,
            performance: outcome.design.report.map(|r| r.performance),
            topology: Some(outcome.design.topology),
            testbed_seconds: outcome.testbed_seconds,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let result: OptResult = match method {
        Method::Bobo => Bobo::new(config.bobo).run(spec, sim, &mut rng),
        Method::Rlbo => Rlbo::new(config.rlbo).run(spec, sim, &mut rng),
        Method::Gpt4 => Gpt4Baseline.optimize(spec, sim, &mut rng),
        Method::Llama2 => Llama2Baseline.optimize(spec, sim, &mut rng),
        Method::Artisan => unreachable!("handled above"),
    };
    TrialOut {
        success: result.success,
        performance: result.performance,
        topology: result.topology,
        testbed_seconds: sim.ledger().testbed_seconds(&config.cost_model),
    }
}

/// Checks a trial that reported success: re-running it reproduces the
/// recorded outputs bit for bit, and its design re-analyzes on a fresh
/// simulator to the same performance and meets the spec.
fn check_success(
    method: Method,
    spec: &Spec,
    config: &ExperimentConfig,
    artisan: &mut Artisan,
    seed: u64,
    recorded: &TrialRecord,
) -> Result<(), String> {
    let rerun = direct_trial(method, spec, config, artisan, seed, &mut Simulator::new());
    if rerun.success != recorded.success
        || !same_perf(rerun.performance.as_ref(), recorded.performance.as_ref())
        || rerun.testbed_seconds.to_bits() != recorded.testbed_seconds.to_bits()
    {
        return Err("re-run differs from the recorded trial".into());
    }
    let topo = rerun
        .topology
        .ok_or("successful trial produced no design")?;
    let report = Simulator::new()
        .analyze_topology(&topo)
        .map_err(|e| format!("design does not re-analyze: {e}"))?;
    if !same_perf(Some(&report.performance), recorded.performance.as_ref()) {
        return Err("fresh re-analysis differs from the recorded performance".into());
    }
    if !spec.check(&report.performance).success() {
        return Err("re-analyzed design misses the spec".into());
    }
    Ok(())
}

/// Builds the trained Artisan `setups` times and returns the last one
/// with the median build time.
fn setup(params: &Params, seed: u64) -> (Artisan, f64) {
    let mut times = Vec::new();
    let mut build = || {
        let t0 = Instant::now();
        let mut artisan = Artisan::new(training::options(params.dataset));
        warm_up(&mut artisan, params, seed);
        times.push(t0.elapsed().as_secs_f64());
        artisan
    };
    let mut artisan = build();
    for _ in 1..params.setups {
        artisan = build();
    }
    (artisan, median(&times))
}

/// One cheap cell per method on a seed the timed passes never use.
fn warm_up(artisan: &mut Artisan, params: &Params, seed: u64) {
    let mut config = ExperimentConfig::smoke(1);
    config.seed = crate::mix(seed, u64::MAX);
    config.artisan = training::options(params.dataset);
    let (group, spec) = Spec::table2()[0];
    for method in Method::ALL {
        std::hint::black_box(run_cell(method, group, &spec, &config, artisan));
    }
}

/// One op is a Table 3 column: all five methods, `nproc` trials each,
/// on one Table 2 group. A single trial is not the op because three of
/// the five rows (GPT-4, Llama2, Artisan) finish in under a
/// millisecond: the median trial would be one of them, timing thread
/// wake-ups more than work.
pub fn run(seed: u64, seconds: f64, size: Size) -> RunReport {
    let params = Params::new(size);
    let (mut artisan, setup_s) = setup(&params, seed);
    let mut report = RunReport::default();
    let mut latencies_ms = Vec::new();
    let mut columns = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        let config = params.config(seed, pass);
        for (group, spec) in Spec::table2() {
            let t0 = Instant::now();
            let cells: Vec<GroupResult> = Method::ALL
                .iter()
                .map(|&method| run_cell(method, group, &spec, &config, &mut artisan))
                .collect();
            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            columns.push((pass, spec, cells));
        }
        pass += 1;
        if pass >= params.min_passes && start.elapsed() >= deadline {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // Checks and the digest of pass 0, outside the timed phase.
    let mut digest = Digest::default();
    for (pass, spec, cells) in &columns {
        let config = params.config(seed, *pass);
        report.attempted += 1;
        let mut column_ok = true;
        for cell in cells {
            for (k, trial) in cell.trials.iter().enumerate() {
                if *pass == 0 {
                    digest.bool(trial.success);
                    digest.performance(trial.performance.as_ref());
                    digest.f64(trial.testbed_seconds);
                }
                if !trial.success {
                    continue;
                }
                let tseed = trial_seed(&config, cell.method, cell.group, k);
                if let Err(why) =
                    check_success(cell.method, spec, &config, &mut artisan, tseed, trial)
                {
                    column_ok = false;
                    report.fail(format!(
                        "{} {} pass {pass} trial {k}: {why}",
                        cell.method.name(),
                        cell.group
                    ));
                }
            }
        }
        if !column_ok {
            report.failed += 1;
        }
    }
    report.digest = Some(digest);
    report.set("setup_s", setup_s);
    report.set("ops_per_s", ratio(latencies_ms.len() as f64, wall));
    report.set("op_p50_ms", percentile(&latencies_ms, 0.5));
    report.set("op_p90_ms", percentile(&latencies_ms, 0.9));
    report
}

/// The traced pass. Dataset build and LM training are timed apart;
/// every trial of pass 0 runs directly twice, on a plain simulator and
/// on a timed one (alternating which goes first), and must give the same
/// outputs; then direct GP calls on a full 161×34 window with a
/// 400-point pool.
pub fn run_traced(seed: u64, size: Size) -> RunReport {
    let params = Params::new(size);
    let mut report = RunReport::default();
    let (build_s, train_s) = training::time_training(&params.dataset, params.setups);
    report.set("dataset.build_s", build_s);
    report.set("llm.train_s", train_s);
    let mut artisan = Artisan::new(training::options(params.dataset));
    warm_up(&mut artisan, &params, seed);

    let config = params.config(seed, 0);
    let tracer = Tracer::new(Instant::now());
    let mut digest = Digest::default();
    let mut bobo_ops = Vec::new();
    let mut opt_ops = Vec::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut op = 0u32;
    for (group, spec) in Spec::table2() {
        for method in Method::ALL {
            for k in 0..config.trials {
                let tseed = trial_seed(&config, method, group, k);
                let mut run_plain = |artisan: &mut Artisan| {
                    let t0 = Instant::now();
                    let out = direct_trial(
                        method,
                        &spec,
                        &config,
                        artisan,
                        tseed,
                        &mut Simulator::new(),
                    );
                    plain_s += t0.elapsed().as_secs_f64();
                    out
                };
                tracer.set_op(op);
                let mut run_traced = |artisan: &mut Artisan| {
                    let t0 = Instant::now();
                    let mut sim = Timed::new(Simulator::new(), &tracer, "sim");
                    let out = tracer.span("op", || {
                        direct_trial(method, &spec, &config, artisan, tseed, &mut sim)
                    });
                    traced_s += t0.elapsed().as_secs_f64();
                    out
                };
                let (plain, traced) = if op.is_multiple_of(2) {
                    let p = run_plain(&mut artisan);
                    (p, run_traced(&mut artisan))
                } else {
                    let t = run_traced(&mut artisan);
                    (run_plain(&mut artisan), t)
                };
                report.attempted += 1;
                plain.digest(&mut digest);
                if !plain.same_as(&traced) {
                    report.failed += 1;
                    report.fail(format!(
                        "{} {group} trial {k}: timed simulator changed the trial",
                        method.name()
                    ));
                }
                if method == Method::Bobo {
                    bobo_ops.push(op);
                }
                if matches!(method, Method::Bobo | Method::Rlbo) {
                    opt_ops.push(op);
                }
                op += 1;
            }
        }
    }
    report.digest = Some(digest);
    tracer.set_op(u32::MAX);
    gp_layer(&mut report, &tracer, seed, params.gp_reps);
    let spans = tracer.take();
    let selfs = trace::self_ns(&spans);

    // Optimizer steps: the gaps between consecutive backend calls of a
    // BOBO trial.
    let mut steps_ms = Vec::new();
    for &op in &bobo_ops {
        let mut calls: Vec<_> = spans
            .iter()
            .filter(|s| s.op == op && s.name == "sim")
            .collect();
        calls.sort_by_key(|s| s.start_ns);
        for pair in calls.windows(2) {
            steps_ms.push(pair[1].start_ns.saturating_sub(pair[0].end_ns) as f64 / 1e6);
        }
    }
    // The optimizer's share: BOBO and RLBO trial time outside the
    // simulator.
    let opt_op_ns: u64 = spans
        .iter()
        .filter(|s| opt_ops.contains(&s.op) && s.name == "op")
        .map(trace::Span::ns)
        .sum();
    let opt_self_ns: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| opt_ops.contains(&s.op) && s.name == "op")
        .map(|(_, t)| *t)
        .sum();
    let op_ns = trace::total_ns(&spans, "op") as f64;
    let sim_ns = trace::total_ns(&spans, "sim") as f64;
    let ops = f64::from(op);
    report.set(
        "opt.steps",
        ratio(steps_ms.len() as f64, bobo_ops.len() as f64),
    );
    report.set("opt.step_ms_p50", percentile(&steps_ms, 0.5));
    report.set("opt.step_ms_p90", percentile(&steps_ms, 0.9));
    report.set("opt.self_frac", ratio(opt_self_ns as f64, opt_op_ns as f64));
    report.set(
        "sim.calls",
        ratio(spans.iter().filter(|s| s.name == "sim").count() as f64, ops),
    );
    report.set(
        "sim.call_us_p50",
        median(&trace::durations_us(&spans, "sim")),
    );
    report.set("sim.busy_frac", ratio(sim_ns, op_ns));
    report.set("trace.overhead_frac", ratio(traced_s, plain_s) - 1.0);
    report.set(
        "trace.unattributed_frac",
        1.0 - ratio(op_ns / 1e9, traced_s),
    );
    report.spans = spans;
    report
}

/// Direct GP calls at BOBO's steady-state shape: a 160-point window
/// plus the incumbent (161 × 34) and a 400-candidate pool.
fn gp_layer(report: &mut RunReport, tracer: &Tracer, seed: u64, reps: usize) {
    let defaults = BoboConfig::default();
    let n = defaults.gp_window + 1;
    let mut rng = StdRng::seed_from_u64(crate::mix(seed, 0x6770));
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..embedding::DIM)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (v * (i + 1) as f64).sin())
                .sum()
        })
        .collect();
    let pool: Vec<Vec<f64>> = (0..defaults.pool)
        .map(|_| {
            (0..embedding::DIM)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        })
        .collect();

    let mut fit_ms = Vec::new();
    let mut predict_us = Vec::new();
    let mut propose_ms = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let gp = tracer.span("opt.gp_fit", || GaussianProcess::fit(&xs, &ys, defaults.gp));
        fit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Ok(gp) = gp else {
            report.failed += 1;
            report.fail("GP fit failed on the benchmark window".into());
            return;
        };
        let t1 = Instant::now();
        tracer.span("opt.gp_predict", || {
            for q in &pool {
                std::hint::black_box(gp.predict(std::hint::black_box(q)));
            }
        });
        predict_us.push(t1.elapsed().as_secs_f64() * 1e6 / pool.len() as f64);
        let t2 = Instant::now();
        std::hint::black_box(tracer.span("opt.propose", || {
            bo::propose(
                &xs,
                &ys,
                embedding::DIM,
                defaults.pool,
                defaults.gp,
                &mut rng,
            )
        }));
        propose_ms.push(t2.elapsed().as_secs_f64() * 1e3);
    }
    report.set("opt.gp_fit_ms", median(&fit_ms));
    report.set("opt.gp_predict_us", median(&predict_us));
    report.set("opt.propose_ms", median(&propose_ms));
}
