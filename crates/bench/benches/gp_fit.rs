//! Gaussian-process kernels — the BOBO inner loop's cost drivers: fit
//! (Cholesky), posterior prediction, and one whole proposal step (fit
//! plus the batched posterior over the candidate pool) at the sizes the
//! sliding window produces.

use artisan_opt::bo;
use artisan_opt::bobo::BoboConfig;
use artisan_opt::gp::{GaussianProcess, GpHyperParams};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn make_data(n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().map(|v| (4.0 * v).sin()).sum::<f64>())
        .collect();
    (xs, ys)
}

fn bench_gp(c: &mut Criterion) {
    for n in [50usize, 160] {
        let (xs, ys) = make_data(n, 34);
        c.bench_function(&format!("gp/fit_n{n}_d34"), |b| {
            b.iter(|| {
                black_box(
                    GaussianProcess::fit(black_box(&xs), black_box(&ys), GpHyperParams::default())
                        .expect("fits"),
                )
            })
        });
        let gp = GaussianProcess::fit(&xs, &ys, GpHyperParams::default()).expect("fits");
        let query = vec![0.5; 34];
        c.bench_function(&format!("gp/predict_n{n}_d34"), |b| {
            b.iter(|| black_box(gp.predict(black_box(&query))))
        });
    }
    // One BOBO proposal at the capped window: 161 points (160 recent plus
    // the incumbent), the default 400-candidate pool, 34 dimensions.
    let (xs, ys) = make_data(161, 34);
    let config = BoboConfig::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    c.bench_function("gp/propose_n161_pool400_d34", |b| {
        b.iter(|| {
            black_box(bo::propose(
                black_box(&xs),
                black_box(&ys),
                34,
                config.pool,
                config.gp,
                &mut rng,
            ))
        })
    });
}

criterion_group!(benches, bench_gp);
criterion_main!(benches);
