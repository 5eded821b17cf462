//! `train_rollout`: train the serving-width model offline, predict the
//! test split, then roll the trained weights out to a running server
//! and time publish-to-first-new-answer.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_ckpt::TrainCheckpoint;
use stwa_core::{ForecastModel, StwaModel, TrainConfig, TrainReport, Trainer};
use stwa_traffic::TrafficDataset;

use crate::layers::{begin_phase, end_phase, Phase};
use crate::outcome::Outcome;
use crate::serve_loads::Sample;
use crate::setup::{
    build_model, forecast_target, version_tag, Deployment, Frames, Oracle, Seeds, HISTORY, HORIZON,
    MODEL_NAME,
};
use crate::stats::{find, median};

/// Fixed by the workload, never read from `STWA_SHARDS` or the host.
pub const EPOCHS: usize = 1;
pub const SHARDS: usize = 2;
/// `Trainer::predict` calls over the test split; the rate is their median.
const PREDICT_REPS: usize = 3;
/// Rollouts per run, at least; more while the run is shorter than its
/// measuring time.
pub const MIN_ROLLOUTS: usize = 30;
/// Forecast reads allowed per rollout before it counts as failed.
const MAX_POLLS: usize = 10_000;
/// Registry versions kept between rollouts, so long runs stay small on
/// disk.
const KEEP_VERSIONS: usize = 2;

pub fn trainer(seeds: &Seeds) -> Trainer {
    Trainer::new(TrainConfig {
        epochs: EPOCHS,
        shards: SHARDS,
        seed: seeds.train,
        ..TrainConfig::default()
    })
}

/// What one pass of training and offline prediction measured.
pub struct TrainPass {
    pub model: StwaModel,
    pub report: TrainReport,
    pub train_s: f64,
    /// Training windows x epochs / `Trainer::train` wall time.
    pub samples_per_s: f64,
    pub train_windows: usize,
    /// Test windows / median `Trainer::predict` wall time.
    pub predict_rows_per_s: f64,
    /// Spans and counters of `Trainer::train` alone, when recording.
    pub phase: Option<Phase>,
}

pub fn train_and_predict(
    dataset: &TrafficDataset,
    seeds: &Seeds,
    out: &mut Outcome,
) -> Result<TrainPass, String> {
    let model = build_model(dataset.num_sensors(), seeds.model);
    let trainer = trainer(seeds);
    let t0 = Instant::now();
    let report = trainer
        .train(&model, dataset, HISTORY, HORIZON)
        .map_err(|e| format!("train: {e}"))?;
    let train_s = t0.elapsed().as_secs_f64();
    out.attempt(1);
    // With recording on, training closes its own phase: prediction runs
    // the no-grad executor under the same `forward` span names.
    let phase = stwa_observe::enabled().then(|| {
        let phase = end_phase();
        begin_phase();
        phase
    });
    let cfg = &trainer.config;
    let train_windows = dataset
        .train(HISTORY, HORIZON, cfg.train_stride)
        .map_err(|e| e.to_string())?
        .x
        .shape()[0];
    let test = dataset
        .test(HISTORY, HORIZON, cfg.eval_stride)
        .map_err(|e| e.to_string())?;
    let scaler = dataset.scaler();
    let mut times = Vec::with_capacity(PREDICT_REPS);
    let mut first: Option<Vec<f32>> = None;
    for _ in 0..PREDICT_REPS {
        let mut rng = StdRng::seed_from_u64(seeds.train);
        let t0 = Instant::now();
        let pred = trainer
            .predict(&model, &test.x, &scaler, &mut rng)
            .map_err(|e| format!("predict: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        let same = first.get_or_insert_with(|| pred.data().to_vec()) == pred.data();
        out.check(same, || "Trainer::predict is not repeatable".to_string());
    }
    out.check(report.test.mae.is_finite(), || {
        "test MAE is not finite".to_string()
    });
    let test_windows = test.x.shape()[0];
    Ok(TrainPass {
        model,
        samples_per_s: (train_windows * EPOCHS) as f64 / train_s,
        predict_rows_per_s: test_windows as f64 / median(&times),
        report,
        train_s,
        train_windows,
        phase,
    })
}

/// What the rollouts measured.
#[derive(Default)]
pub struct Rollouts {
    pub rollout_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub swap_ms: Vec<f64>,
    pub samples: Vec<Sample>,
}

/// Roll `trained` out again and again: publish it, `POST /admin/swap`,
/// then read forecasts until one is stamped with the new version.
pub fn rollouts(
    dep: &mut Deployment,
    trained: &StwaModel,
    trained_id: usize,
    oracle: &mut Oracle,
    until: Instant,
    out: &mut Outcome,
) -> Result<Rollouts, String> {
    let mut result = Rollouts::default();
    let checkpoint = TrainCheckpoint::params_only(MODEL_NAME, trained.store());
    let sensors = dep.server.dims().sensors as u32;
    for r in 0.. {
        if r >= MIN_ROLLOUTS && Instant::now() >= until {
            break;
        }
        let t0 = Instant::now();
        let version = dep
            .registry
            .publish(MODEL_NAME, &checkpoint)
            .map_err(|e| format!("publish: {e}"))? as u64;
        result.publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        oracle.map_version(version, trained_id);
        let swap = dep
            .control
            .post("/admin/swap", b"")
            .map_err(|e| format!("swap: {e}"))?;
        out.check(swap.status == 200, || {
            format!("swap answered {}", swap.status)
        });
        let tag = version_tag(version);
        let sensor = (r as u32 * 7) % sensors;
        let target = forecast_target(sensor, HORIZON as u32);
        let mut answered = None;
        for _ in 0..MAX_POLLS {
            let resp = dep
                .control
                .get(&target)
                .map_err(|e| format!("forecast: {e}"))?;
            out.attempt(1);
            if resp.status != 200 {
                out.fail(format!("rollout read answered {}", resp.status));
                break;
            }
            if find(&resp.body, &tag).is_some() {
                answered = Some(resp.body);
                break;
            }
        }
        let Some(body) = answered else {
            out.fail(format!("version {version} never answered"));
            continue;
        };
        result.rollout_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        dep.version = version;
        result.swap_ms.push(dep.stats()?.swap_ms);
        dep.registry
            .prune(MODEL_NAME, KEEP_VERSIONS)
            .map_err(|e| format!("prune: {e}"))?;
        result.samples.push(Sample {
            body,
            sensor,
            horizon: HORIZON as u32,
        });
    }
    Ok(result)
}

/// Start a server on the untrained seed weights with its window
/// filled with real frames, ready for rollouts.
pub fn rollout_server(
    root: &std::path::Path,
    frames: &Frames,
    seeds: &Seeds,
) -> Result<Deployment, String> {
    let mut dep = Deployment::start(root, frames.sensors(), frames.features(), seeds.model, None)?;
    dep.fill(frames)?;
    Ok(dep)
}
