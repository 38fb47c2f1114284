//! The trained `Artisan` that `table3-slice` and `design-corners` build
//! in set-up: the paper's options with the training seed of its Table 3
//! rows.

use crate::report::median;
use artisan::agents::{AgentConfig, ArtisanAgent};
use artisan::core::ArtisanOptions;
use artisan::dataset::{DatasetConfig, OpampDataset};
use std::time::Instant;

/// The training seed of the paper's Artisan rows (`Table3::run`).
const TRAIN_SEED: u64 = 2024;

/// The paper's Artisan options over `dataset`.
pub fn options(dataset: DatasetConfig) -> ArtisanOptions {
    ArtisanOptions {
        dataset: Some(dataset),
        train_seed: TRAIN_SEED,
        ..ArtisanOptions::paper_default()
    }
}

/// Median dataset-build and LM-training times over `reps` builds: the
/// two halves of `Artisan::new`, timed apart.
pub fn time_training(dataset: &DatasetConfig, reps: usize) -> (f64, f64) {
    let mut build = Vec::new();
    let mut train = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let data = OpampDataset::build(dataset, TRAIN_SEED);
        build.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        std::hint::black_box(ArtisanAgent::trained(&data, AgentConfig::paper_default()));
        train.push(t1.elapsed().as_secs_f64());
    }
    (median(&build), median(&train))
}
