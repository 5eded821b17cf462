//! Training and evaluation harness shared by every model in the
//! workspace (ST-WA, its ablations, and all baselines).
//!
//! Optimizes the paper's Eq. 20 objective — Huber prediction loss plus
//! an optional (already `alpha`-weighted) regularizer the model returns —
//! with Adam, early stopping on validation MAE, epoch timing (Table VIII,
//! Fig. 10) and peak-memory tracking (Tables VI, VIII).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;
use stwa_autograd::{Graph, Var};
use stwa_ckpt::checkpoint::capture_params;
use stwa_ckpt::{CkptError, NamedTensor, Registry, TrainCheckpoint};
use stwa_observe::{EpochRecord, RunManifest};
use stwa_nn::batch::prefetched_shuffled;
use stwa_nn::loss::huber;
use stwa_nn::optim::{Adam, AdamState, Optimizer};
use stwa_nn::ParamStore;
use stwa_tensor::{memory, Result, Tensor};
use stwa_traffic::{Metrics, Scaler, SplitTensors, TrafficDataset};

/// What a model forward pass returns.
pub struct ForwardOutput {
    /// Normalized-scale predictions `[B, N, U, F]`.
    pub pred: Var,
    /// Optional extra loss term (e.g. `alpha * KL`), already weighted.
    pub regularizer: Option<Var>,
}

impl ForwardOutput {
    /// Output with no extra loss term — what every non-variational model
    /// returns.
    pub fn plain(pred: Var) -> ForwardOutput {
        ForwardOutput {
            pred,
            regularizer: None,
        }
    }
}

/// A deferred model constructor that can cross a thread boundary.
///
/// The data-parallel trainer ships one of these to each shard worker;
/// the replica is built *on* the worker thread (tensors and tapes are
/// thread-confined, so the model itself can never be sent). Replica
/// initialization values are irrelevant — every shard step overwrites
/// them from a [`stwa_nn::ParamSnapshot`] of the live store — but the
/// replica must register parameters in the same order and shapes as the
/// original, i.e. be built from the same config.
pub type ReplicaFactory = Box<dyn FnOnce() -> Result<Box<dyn ForecastModel>> + Send>;

/// A per-pass eval executor from [`ForecastModel::evaluator`]: normalized
/// input batch in, normalized predictions out.
pub type Evaluator<'a> = Box<dyn Fn(&Tensor) -> Result<Tensor> + 'a>;

/// Anything the [`Trainer`] can optimize.
pub trait ForecastModel {
    /// Display name for tables.
    fn name(&self) -> String;
    /// The model's parameters.
    fn store(&self) -> &ParamStore;
    /// One forward pass over a normalized batch `[B, N, H, F]`.
    ///
    /// `training` distinguishes the stochastic training pass (latents
    /// sampled via reparameterization) from evaluation (posterior means,
    /// the standard variational-inference prediction rule). Models
    /// without stochastic parts ignore it.
    fn forward(
        &self,
        graph: &Graph,
        x: &Var,
        rng: &mut StdRng,
        training: bool,
    ) -> Result<ForwardOutput>;

    /// The eval-mode forward for one whole `predict`/`evaluate` pass:
    /// called once per pass, and the returned closure maps each
    /// normalized batch `[B, N, H, F]` to normalized predictions
    /// `[B, N, U, F]`.
    ///
    /// The default runs the graph path with `training == false` and
    /// discards the tape. Evaluation never samples latents (posterior
    /// means), so the RNG is not consulted and the fixed seed below is
    /// inert. `StwaModel` overrides it with the frozen executor (one
    /// freeze per pass, then `InferSession::run` per batch); overrides
    /// must stay bitwise identical to the graph path, which remains the
    /// oracle.
    fn evaluator(&self) -> Result<Evaluator<'_>> {
        Ok(Box::new(|x| {
            let graph = Graph::new();
            let xv = graph.constant(x.clone());
            let mut rng = StdRng::seed_from_u64(0);
            let out = self.forward(&graph, &xv, &mut rng, false)?;
            Ok(out.pred.value().as_ref().clone())
        }))
    }

    /// A factory that rebuilds this model's architecture on another
    /// thread, enabling data-parallel training (`STWA_SHARDS > 1`).
    ///
    /// The default is `None`: the trainer falls back to the sequential
    /// step and behaves exactly as before. Models opting in return a
    /// fresh factory per call (the trainer requests one per worker).
    fn replica_builder(&self) -> Option<ReplicaFactory> {
        None
    }
}

/// Training hyperparameters (paper Section V-A defaults, scaled down in
/// epoch count for the synthetic reruns).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub grad_clip: Option<f32>,
    /// Early-stopping patience in epochs (paper: 15).
    pub patience: usize,
    pub huber_delta: f32,
    pub seed: u64,
    /// Window-origin stride when building training samples (1 = paper
    /// protocol; larger = faster reruns).
    pub train_stride: usize,
    /// Stride for validation/test samples.
    pub eval_stride: usize,
    /// Print progress lines.
    pub verbose: bool,
    /// When set, write the JSON run manifest (config, per-epoch
    /// trajectory, span tree, counters) to this path after training.
    /// The manifest is always built and returned on [`TrainReport`];
    /// this only controls the on-disk copy.
    pub manifest_path: Option<PathBuf>,
    /// Data-parallel shard count. `1` trains sequentially (the exact
    /// pre-existing code path, bit for bit); `k > 1` splits each
    /// mini-batch across `k` worker threads with their own tapes and
    /// reduces gradients in fixed shard order (see [`crate::sharded`]).
    /// Defaults to `STWA_SHARDS` when set, else the configured pool
    /// size (`STWA_THREADS` / available parallelism, read once at
    /// startup — deliberately *not* the live pool cap, which tests
    /// retune mid-process). Models without a
    /// [`ForecastModel::replica_builder`] always train sequentially.
    pub shards: usize,
    /// Publish a checkpoint to the registry every `save_every` epochs
    /// (`0` disables checkpointing). Requires `registry_root`.
    pub save_every: usize,
    /// Root directory of the model registry checkpoints are published
    /// to.
    pub registry_root: Option<PathBuf>,
    /// Registry model name to publish under; defaults to
    /// [`ForecastModel::name`].
    pub registry_name: Option<String>,
    /// Resume from this checkpoint version directory (e.g.
    /// `Registry::latest_dir`). The checkpoint's seed and config
    /// fingerprint must match this run; the resumed run is **bitwise
    /// identical** to one that was never interrupted.
    pub resume_from: Option<PathBuf>,
    /// After each publish, prune old versions keeping the newest this
    /// many (`0` keeps everything).
    pub keep_checkpoints: usize,
}

/// Default for [`TrainConfig::shards`]: `STWA_SHARDS` env override,
/// else the startup pool size.
// Shard count sizes data parallelism to the host, like `STWA_THREADS`.
#[allow(clippy::disallowed_methods)]
fn default_shards() -> usize {
    match std::env::var("STWA_SHARDS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => stwa_pool::configured_threads(),
        },
        Err(_) => stwa_pool::configured_threads(),
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            lr: 1e-3,
            grad_clip: Some(5.0),
            patience: 15,
            huber_delta: 1.0,
            seed: 1,
            train_stride: 3,
            eval_stride: 3,
            verbose: false,
            manifest_path: None,
            shards: default_shards(),
            save_every: 0,
            registry_root: None,
            registry_name: None,
            resume_from: None,
            keep_checkpoints: 0,
        }
    }
}

/// Map a checkpoint-layer error into the trainer's error type without
/// losing the typed detail (it stays in the message).
fn ckpt_invalid(e: CkptError) -> stwa_tensor::TensorError {
    stwa_tensor::TensorError::Invalid(format!("trainer checkpoint: {e}"))
}

/// Fingerprint of every configuration knob that shapes the training
/// trajectory bit for bit. Resume refuses a checkpoint whose fingerprint
/// disagrees — silently continuing under a different batch size or shard
/// count would *run*, but the "bitwise identical to uninterrupted"
/// contract would be broken without any signal. `epochs` is deliberately
/// excluded: extending a finished run is a legitimate resume.
fn config_fingerprint(cfg: &TrainConfig, shards: usize, h: usize, u: usize) -> u64 {
    let clip = match cfg.grad_clip {
        Some(c) => format!("{:08x}", c.to_bits()),
        None => "none".to_string(),
    };
    let canon = format!(
        "bs={};lr={:08x};clip={clip};delta={:08x};patience={};ts={};es={};shards={shards};h={h};u={u}",
        cfg.batch_size,
        cfg.lr.to_bits(),
        cfg.huber_delta.to_bits(),
        cfg.patience,
        cfg.train_stride,
        cfg.eval_stride,
    );
    stwa_ckpt::fnv1a64(canon.as_bytes())
}

/// Everything a paper table needs about one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub model: String,
    pub dataset: String,
    pub epochs_run: usize,
    /// Mean wall-clock seconds per training epoch.
    pub epoch_seconds: f64,
    /// Peak live tensor bytes observed during training.
    pub peak_bytes: usize,
    /// Total scalar parameter count.
    pub param_count: usize,
    /// Best validation MAE seen (early-stopping criterion).
    pub best_val_mae: f32,
    /// Test metrics at the best validation epoch.
    pub test: Metrics,
    /// `(train_loss, val_mae)` per epoch.
    pub history: Vec<(f32, f32)>,
    /// The run manifest: config, seed, per-epoch trajectory, and —
    /// when `stwa_observe` recording was enabled — the span tree and
    /// counter/gauge snapshot.
    pub manifest: RunManifest,
}

/// Model-agnostic trainer.
pub struct Trainer {
    pub config: TrainConfig,
}

impl Trainer {
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config }
    }

    /// Train `model` on `dataset` for horizon `(h, u)` and report the
    /// paper's measurements.
    pub fn train(
        &self,
        model: &dyn ForecastModel,
        dataset: &TrafficDataset,
        h: usize,
        u: usize,
    ) -> Result<TrainReport> {
        let cfg = &self.config;
        let trainer_span = stwa_observe::span!("trainer");
        let train = dataset.train(h, u, cfg.train_stride)?;
        let val = dataset.val(h, u, cfg.eval_stride)?;
        let test = dataset.test(h, u, cfg.eval_stride)?;
        let scaler = dataset.scaler();

        let mut manifest = RunManifest::new(model.name(), cfg.seed);
        manifest
            .config_str("model", &model.name())
            .config_str("dataset", &dataset.config().name)
            .config_num("epochs", cfg.epochs as f64)
            .config_num("batch_size", cfg.batch_size as f64)
            .config_num("lr", cfg.lr as f64)
            .config_num("huber_delta", cfg.huber_delta as f64)
            .config_num("h", h as f64)
            .config_num("u", u as f64)
            .config_num("train_stride", cfg.train_stride as f64)
            .config_num("eval_stride", cfg.eval_stride as f64);

        // Data-parallel engine: only built when the config asks for more
        // than one shard AND the model can replicate itself onto worker
        // threads. When `engine` is `None` every batch goes through the
        // unchanged sequential `train_step`.
        let engine = crate::sharded::ShardEngine::new(model, cfg.shards);
        manifest.config_num(
            "shards",
            engine.as_ref().map_or(1, |e| e.shards()) as f64,
        );

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut opt = Adam::new(model.store(), cfg.lr);
        if let Some(clip) = cfg.grad_clip {
            opt = opt.with_clip(clip);
        }

        // --- Checkpointing & resume ------------------------------------
        let config_hash =
            config_fingerprint(cfg, engine.as_ref().map_or(1, |e| e.shards()), h, u);
        let registry = match (&cfg.registry_root, cfg.save_every > 0) {
            (Some(root), true) => Some(Registry::open(root).map_err(ckpt_invalid)?),
            (None, true) => {
                return Err(stwa_tensor::TensorError::Invalid(
                    "trainer: save_every > 0 requires registry_root".into(),
                ))
            }
            _ => None,
        };
        let registry_name = cfg
            .registry_name
            .clone()
            .unwrap_or_else(|| model.name());

        memory::reset_peak();
        let mut best_val = f32::INFINITY;
        let mut best_params: Option<Vec<Tensor>> = None;
        let mut since_best = 0usize;
        let mut history = Vec::with_capacity(cfg.epochs);
        let mut start_epoch = 0usize;

        if let Some(dir) = &cfg.resume_from {
            let ckpt = TrainCheckpoint::load_dir(dir).map_err(ckpt_invalid)?;
            if ckpt.seed != cfg.seed {
                return Err(stwa_tensor::TensorError::Invalid(format!(
                    "trainer resume: checkpoint seed {} != configured seed {}",
                    ckpt.seed, cfg.seed
                )));
            }
            if ckpt.config_hash != config_hash {
                return Err(stwa_tensor::TensorError::Invalid(format!(
                    "trainer resume: config fingerprint {:#018x} != checkpoint's {:#018x} \
                     (a different batch size/lr/stride/shard count would break the \
                     bitwise-resume contract)",
                    config_hash, ckpt.config_hash
                )));
            }
            if !ckpt.has_optimizer() {
                return Err(stwa_tensor::TensorError::Invalid(
                    "trainer resume: checkpoint carries no optimizer state \
                     (params-only publishes are for serving, not resuming)"
                        .into(),
                ));
            }
            if ckpt.rng == [0; 4] {
                return Err(stwa_tensor::TensorError::Invalid(
                    "trainer resume: checkpoint RNG state is all-zero (corrupt or \
                     params-only)"
                        .into(),
                ));
            }
            ckpt.load_params_into(model.store()).map_err(ckpt_invalid)?;
            let moments = |v: &[NamedTensor]| -> Result<Vec<(String, Tensor)>> {
                v.iter()
                    .map(|t| Ok((t.name.clone(), Tensor::from_vec(t.data.clone(), &t.shape)?)))
                    .collect()
            };
            opt.import_state(AdamState {
                t: ckpt.step,
                m: moments(&ckpt.opt_m)?,
                v: moments(&ckpt.opt_v)?,
            })?;
            rng = StdRng::from_state(ckpt.rng);
            best_val = ckpt.best_val;
            since_best = ckpt.since_best;
            history = ckpt.history.clone();
            start_epoch = ckpt.epoch;
            if !ckpt.best_params.is_empty() {
                let restored = model
                    .store()
                    .params()
                    .iter()
                    .map(|p| {
                        let t = ckpt
                            .best_params
                            .iter()
                            .find(|t| t.name == p.name())
                            .ok_or_else(|| {
                                stwa_tensor::TensorError::Invalid(format!(
                                    "trainer resume: best-params blob has no '{}'",
                                    p.name()
                                ))
                            })?;
                        Tensor::from_vec(t.data.clone(), &t.shape)
                    })
                    .collect::<Result<Vec<Tensor>>>()?;
                best_params = Some(restored);
            }
            if cfg.verbose {
                eprintln!(
                    "[{}] resumed from {} at epoch {start_epoch} (step {})",
                    model.name(),
                    dir.display(),
                    ckpt.step
                );
            }
        }
        let mut epoch_times = Vec::with_capacity(cfg.epochs);
        let mut epochs_run = start_epoch;

        for epoch in start_epoch..cfg.epochs {
            let epoch_span = stwa_observe::span!("epoch");
            let started = Instant::now();
            let mut epoch_loss = 0.0f64;
            let mut epoch_kl = 0.0f64;
            let mut kl_batches = 0usize;
            let mut batches = 0usize;
            let mut shuffle_rng = StdRng::seed_from_u64(cfg.seed ^ (epoch as u64 + 1));
            let step = |bx: Tensor, by: Tensor| -> Result<()> {
                let (loss_val, kl_val) = match &engine {
                    Some(engine) => {
                        // One RNG draw per batch seeds every shard's
                        // stream (see `sharded::shard_seed`), keeping
                        // the whole run a pure function of (seed, k).
                        let batch_seed = rng.next_u64();
                        self.sharded_train_step(
                            model, engine, &mut opt, &scaler, bx, by, batch_seed,
                        )?
                    }
                    None => self.train_step(model, &mut opt, &scaler, bx, by, &mut rng)?,
                };
                epoch_loss += loss_val as f64;
                if let Some(kl) = kl_val {
                    epoch_kl += kl as f64;
                    kl_batches += 1;
                }
                batches += 1;
                Ok(())
            };
            // Batch `t+1` is cut on a background thread while batch `t`
            // trains. Same batches, same bits as `BatchIter::shuffled`:
            // the gather copies the rows `index_select` would and the
            // epoch RNG advances identically (see `prefetched_batches_
            // match_batchiter_bitwise` and `sharded_training.rs`).
            prefetched_shuffled(&train.x, &train.y, cfg.batch_size, &mut shuffle_rng, step)?;
            let wall = started.elapsed().as_secs_f64();
            epoch_times.push(wall);
            epochs_run = epoch + 1;
            drop(epoch_span);

            let eval_span = stwa_observe::span!("evaluate");
            let val_metrics = self.evaluate(model, &val, &scaler, &mut rng)?;
            drop(eval_span);
            let train_loss = (epoch_loss / batches.max(1) as f64) as f32;
            history.push((train_loss, val_metrics.mae));
            stwa_observe::gauge!("trainer.lr").set(cfg.lr as f64);
            stwa_observe::gauge!("trainer.train_loss").set(train_loss as f64);
            stwa_observe::gauge!("trainer.val_mae").set(val_metrics.mae as f64);
            manifest.epochs.push(EpochRecord {
                epoch,
                train_loss: train_loss as f64,
                val_metric: Some(val_metrics.mae as f64),
                kl: (kl_batches > 0).then(|| epoch_kl / kl_batches as f64),
                lr: cfg.lr as f64,
                wall_seconds: wall,
            });
            if cfg.verbose {
                eprintln!(
                    "[{}] epoch {epoch}: train loss {train_loss:.4}, val {val_metrics}",
                    model.name()
                );
            }
            if val_metrics.mae < best_val {
                best_val = val_metrics.mae;
                best_params = Some(model.store().params().iter().map(|p| p.value()).collect());
                since_best = 0;
            } else {
                since_best += 1;
            }
            let stop = since_best > 0 && since_best >= cfg.patience;

            // Publish a checkpoint at the epoch boundary. Everything a
            // bitwise resume needs is captured *after* the evaluation
            // (which never draws from `rng`, so this state is exactly
            // what the next epoch would start from).
            if let Some(reg) = &registry {
                if (epoch + 1) % cfg.save_every == 0 {
                    let state = opt.export_state();
                    let to_named = |v: Vec<(String, Tensor)>| -> Vec<NamedTensor> {
                        v.into_iter()
                            .map(|(name, t)| NamedTensor {
                                name,
                                shape: t.shape().to_vec(),
                                data: t.into_vec(),
                            })
                            .collect()
                    };
                    let best_named: Vec<NamedTensor> = match &best_params {
                        Some(ts) => model
                            .store()
                            .params()
                            .iter()
                            .zip(ts)
                            .map(|(p, t)| NamedTensor {
                                name: p.name().to_string(),
                                shape: t.shape().to_vec(),
                                data: t.data().to_vec(),
                            })
                            .collect(),
                        None => Vec::new(),
                    };
                    let ckpt = TrainCheckpoint {
                        model: model.name(),
                        seed: cfg.seed,
                        config_hash,
                        epoch: epoch + 1,
                        step: state.t,
                        rng: rng.state(),
                        best_val,
                        since_best,
                        history: history.clone(),
                        params: capture_params(model.store()),
                        opt_m: to_named(state.m),
                        opt_v: to_named(state.v),
                        best_params: best_named,
                    };
                    let version =
                        reg.publish(&registry_name, &ckpt).map_err(ckpt_invalid)?;
                    if cfg.keep_checkpoints > 0 {
                        reg.prune(&registry_name, cfg.keep_checkpoints)
                            .map_err(ckpt_invalid)?;
                    }
                    stwa_observe::counter!("train.checkpoints").incr();
                    if cfg.verbose {
                        eprintln!(
                            "[{}] epoch {epoch}: published checkpoint '{registry_name}' v{version}",
                            model.name()
                        );
                    }
                }
            }
            if stop {
                break;
            }
        }

        // Restore the best-validation weights before the test pass.
        if let Some(best) = best_params {
            for (p, v) in model.store().params().iter().zip(best) {
                p.set_value(v);
            }
        }
        let peak = memory::peak_bytes();
        let test_metrics = self.evaluate(model, &test, &scaler, &mut rng)?;

        // Close the trainer span before snapshotting so its own timing
        // (not just a synthesized zero-count parent) lands in the tree.
        drop(trainer_span);
        manifest.capture_runtime();
        if let Some(path) = &cfg.manifest_path {
            manifest
                .write_to(path)
                .map_err(|e| stwa_tensor::TensorError::Invalid(format!(
                    "trainer: failed to write manifest to {}: {e}",
                    path.display()
                )))?;
        }

        Ok(TrainReport {
            model: model.name(),
            dataset: dataset.config().name.clone(),
            epochs_run,
            epoch_seconds: epoch_times.iter().sum::<f64>() / epoch_times.len().max(1) as f64,
            peak_bytes: peak,
            param_count: model.store().num_scalars(),
            best_val_mae: best_val,
            test: test_metrics,
            history,
            manifest,
        })
    }

    fn train_step(
        &self,
        model: &dyn ForecastModel,
        opt: &mut Adam,
        scaler: &Scaler,
        bx: Tensor,
        by: Tensor,
        rng: &mut StdRng,
    ) -> Result<(f32, Option<f32>)> {
        let _span = stwa_observe::span!("train_step");
        let graph = Graph::new();
        let x = graph.constant(bx);
        let out = model.forward(&graph, &x, rng, true)?;
        // De-normalize predictions so the Huber loss lives in the raw
        // flow scale, like the paper's reported metrics.
        let pred_raw = out.pred.mul_scalar(scaler.std).add_scalar(scaler.mean);
        let target = graph.constant(by);
        let mut loss = huber(&pred_raw, &target, self.config.huber_delta)?;
        let kl_val = match out.regularizer {
            Some(reg) => {
                let kl = reg.value().item()?;
                loss = loss.add(&reg)?;
                Some(kl)
            }
            None => None,
        };
        let loss_val = loss.value().item()?;
        graph.backward(&loss)?;
        let opt_span = stwa_observe::span!("optimizer");
        opt.step();
        opt.finish_step();
        drop(opt_span);
        Ok((loss_val, kl_val))
    }

    /// One data-parallel step: the engine shards the batch, reduces
    /// gradients in fixed order into the live parameters, and this
    /// method runs the same optimizer sequence as the sequential step.
    #[allow(clippy::too_many_arguments)]
    fn sharded_train_step(
        &self,
        model: &dyn ForecastModel,
        engine: &crate::sharded::ShardEngine,
        opt: &mut Adam,
        scaler: &Scaler,
        bx: Tensor,
        by: Tensor,
        batch_seed: u64,
    ) -> Result<(f32, Option<f32>)> {
        let _span = stwa_observe::span!("train_step");
        let (loss_val, kl_val) = engine.train_batch(
            model,
            bx,
            by,
            batch_seed,
            self.config.huber_delta,
            scaler.mean,
            scaler.std,
        )?;
        let opt_span = stwa_observe::span!("optimizer");
        opt.step();
        opt.finish_step();
        drop(opt_span);
        Ok((loss_val, kl_val))
    }

    /// Evaluate on a split: batched forward passes, de-normalized
    /// predictions vs. raw targets.
    pub fn evaluate(
        &self,
        model: &dyn ForecastModel,
        split: &SplitTensors,
        scaler: &Scaler,
        rng: &mut StdRng,
    ) -> Result<Metrics> {
        let preds = self.predict(model, &split.x, scaler, rng)?;
        Ok(Metrics::compute(&preds, &split.y))
    }

    /// Monte-Carlo predictive distribution from a stochastic model:
    /// run `samples` sampling forward passes (training-mode latents) and
    /// return the per-element mean and standard deviation of the
    /// raw-scale predictions.
    ///
    /// For deterministic models every draw coincides, so the returned
    /// std is ~0 — callers can use that as a capability probe. This is a
    /// capability the paper's stochastic design enables but never
    /// exercises: the latent `Theta_t^(i)` induces a distribution over
    /// model parameters and therefore over forecasts.
    pub fn predict_with_uncertainty(
        &self,
        model: &dyn ForecastModel,
        x: &Tensor,
        scaler: &Scaler,
        rng: &mut StdRng,
        samples: usize,
    ) -> Result<(Tensor, Tensor)> {
        if samples == 0 {
            return Err(stwa_tensor::TensorError::Invalid(
                "predict_with_uncertainty: need at least one sample".into(),
            ));
        }
        let mut sum: Option<Tensor> = None;
        let mut sum_sq: Option<Tensor> = None;
        for _ in 0..samples {
            // training = true: latents are *sampled*, which is the whole
            // point here.
            let draw = self.batched_forward(model, x, scaler, rng, true)?;
            sum = Some(match sum {
                None => draw.clone(),
                Some(acc) => acc.add(&draw)?,
            });
            let sq = draw.square();
            sum_sq = Some(match sum_sq {
                None => sq,
                Some(acc) => acc.add(&sq)?,
            });
        }
        let mean = sum.expect("samples >= 1").mul_scalar(1.0 / samples as f32);
        // Var = E[x^2] - E[x]^2, floored at 0 against float cancellation.
        let var = sum_sq
            .expect("samples >= 1")
            .mul_scalar(1.0 / samples as f32)
            .sub(&mean.square())?
            .relu();
        Ok((mean, var.sqrt()))
    }

    /// Raw-scale predictions for a whole normalized input tensor.
    pub fn predict(
        &self,
        model: &dyn ForecastModel,
        x: &Tensor,
        scaler: &Scaler,
        rng: &mut StdRng,
    ) -> Result<Tensor> {
        self.batched_forward(model, x, scaler, rng, false)
    }

    /// One full pass over `x` in batches of `batch_size`, de-normalized
    /// into a single preallocated output — the shared engine of
    /// [`Trainer::predict`] and [`Trainer::predict_with_uncertainty`].
    ///
    /// Batch axis 0 is contiguous in row-major layout, so each chunk's
    /// prediction lands at `start * row_len` by a straight
    /// `copy_from_slice`; the result is bitwise identical to the old
    /// collect-then-`concat` formulation while skipping the
    /// per-chunk `Vec<Tensor>` and the final concatenation copy.
    fn batched_forward(
        &self,
        model: &dyn ForecastModel,
        x: &Tensor,
        scaler: &Scaler,
        rng: &mut StdRng,
        training: bool,
    ) -> Result<Tensor> {
        let num = x.shape()[0];
        let bs = self.config.batch_size;
        if num == 0 {
            return Err(stwa_tensor::TensorError::Invalid(
                "batched_forward: empty input".into(),
            ));
        }
        // Evaluation builds its executor once for the whole pass; the
        // sampling passes of `predict_with_uncertainty` run the graph.
        let eval = (!training).then(|| model.evaluator()).transpose()?;
        // Output geometry is only known after the first forward pass.
        let mut out: Vec<f32> = Vec::new();
        let mut out_shape: Vec<usize> = Vec::new();
        let mut row_len = 0usize;
        let mut start = 0;
        while start < num {
            let take = bs.min(num - start);
            let bx = x.narrow(0, start, take)?;
            let pred = match &eval {
                Some(eval) => eval(&bx)?,
                None => {
                    let graph = Graph::new();
                    let xv = graph.constant(bx);
                    let out = model.forward(&graph, &xv, rng, training)?;
                    out.pred.value().as_ref().clone()
                }
            };
            let raw = scaler.inverse(&pred);
            if out_shape.is_empty() {
                out_shape = raw.shape().to_vec();
                out_shape[0] = num;
                row_len = raw.data().len() / take;
                out = vec![0f32; num * row_len];
            } else if raw.shape()[1..] != out_shape[1..] {
                return Err(stwa_tensor::TensorError::Invalid(format!(
                    "batched_forward: chunk shape {:?} disagrees with {:?}",
                    raw.shape(),
                    out_shape
                )));
            }
            out[start * row_len..start * row_len + raw.data().len()]
                .copy_from_slice(raw.data());
            start += take;
        }
        Tensor::from_vec(out, &out_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StwaConfig, StwaModel};
    use stwa_traffic::DatasetConfig;

    fn quick_trainer(epochs: usize) -> Trainer {
        Trainer::new(TrainConfig {
            epochs,
            batch_size: 16,
            train_stride: 6,
            eval_stride: 6,
            ..TrainConfig::default()
        })
    }

    #[test]
    fn training_reduces_loss_and_reports() {
        let dataset = TrafficDataset::generate(DatasetConfig::small());
        let n = dataset.num_sensors();
        let mut rng = StdRng::seed_from_u64(0);
        let model = StwaModel::new(StwaConfig::wa(n, 12, 3), &mut rng).unwrap();
        let report = quick_trainer(4).train(&model, &dataset, 12, 3).unwrap();
        assert_eq!(report.model, "WA");
        assert_eq!(report.dataset, "SMALL");
        assert!(report.epochs_run >= 1 && report.epochs_run <= 4);
        assert!(report.epoch_seconds > 0.0);
        assert!(report.param_count > 0);
        assert!(report.peak_bytes > 0);
        let first = report.history.first().unwrap().0;
        let last = report.history.last().unwrap().0;
        assert!(last < first, "training loss should fall: {first} -> {last}");
        assert!(report.test.mae.is_finite() && report.test.mae > 0.0);
    }

    #[test]
    fn st_wa_trains_end_to_end() {
        let dataset = TrafficDataset::generate(DatasetConfig::small());
        let n = dataset.num_sensors();
        let mut rng = StdRng::seed_from_u64(1);
        let model = StwaModel::new(StwaConfig::st_wa(n, 12, 3), &mut rng).unwrap();
        let report = quick_trainer(3).train(&model, &dataset, 12, 3).unwrap();
        assert!(report.test.mae.is_finite());
        assert!(report
            .history
            .iter()
            .all(|(l, v)| l.is_finite() && v.is_finite()));
    }

    #[test]
    fn predictions_beat_naive_zero_after_training() {
        // A trained model must at least outperform predicting 0 flow.
        let dataset = TrafficDataset::generate(DatasetConfig::small());
        let n = dataset.num_sensors();
        let mut rng = StdRng::seed_from_u64(2);
        let model = StwaModel::new(StwaConfig::wa(n, 12, 3), &mut rng).unwrap();
        let trainer = quick_trainer(5);
        let report = trainer.train(&model, &dataset, 12, 3).unwrap();
        let test = dataset.test(12, 3, 6).unwrap();
        let zero = Tensor::zeros(test.y.shape());
        let zero_mae = stwa_traffic::mae(&zero, &test.y);
        assert!(
            report.test.mae < zero_mae * 0.6,
            "model MAE {} vs zero-predictor {zero_mae}",
            report.test.mae
        );
    }

    #[test]
    fn uncertainty_zero_for_deterministic_positive_for_stochastic() {
        let dataset = TrafficDataset::generate(DatasetConfig::small());
        let n = dataset.num_sensors();
        let trainer = quick_trainer(1);
        let split = dataset.test(12, 3, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);

        let det = StwaModel::new(StwaConfig::deterministic(n, 12, 3), &mut rng).unwrap();
        let (mean_d, std_d) = trainer
            .predict_with_uncertainty(&det, &split.x, &dataset.scaler(), &mut rng, 4)
            .unwrap();
        assert_eq!(mean_d.shape(), split.y.shape());
        assert!(
            std_d.max_all() < 1e-3,
            "deterministic spread {}",
            std_d.max_all()
        );

        let sto = StwaModel::new(StwaConfig::st_wa(n, 12, 3), &mut rng).unwrap();
        let (_, std_s) = trainer
            .predict_with_uncertainty(&sto, &split.x, &dataset.scaler(), &mut rng, 4)
            .unwrap();
        assert!(
            std_s.max_all() > 1e-3,
            "stochastic spread {}",
            std_s.max_all()
        );
        assert!(!std_s.has_non_finite());
        // Zero samples rejected.
        assert!(trainer
            .predict_with_uncertainty(&sto, &split.x, &dataset.scaler(), &mut rng, 0)
            .is_err());
    }

    /// Graph-path eval reference: one fresh tape per batch of `bs`,
    /// de-normalized and concatenated.
    fn graph_predict(model: &StwaModel, x: &Tensor, scaler: &Scaler, bs: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(0);
        let num = x.shape()[0];
        let mut chunks: Vec<Tensor> = Vec::new();
        let mut start = 0;
        while start < num {
            let take = bs.min(num - start);
            let graph = Graph::new();
            let xv = graph.constant(x.narrow(0, start, take).unwrap());
            let out = model.forward(&graph, &xv, &mut rng, false).unwrap();
            chunks.push(scaler.inverse(&out.pred.value()));
            start += take;
        }
        let refs: Vec<&Tensor> = chunks.iter().collect();
        stwa_tensor::manip::concat(&refs, 0).unwrap()
    }

    #[test]
    fn evaluate_uses_nograd_path_with_bitwise_identical_metrics() {
        // Evaluation runs the model's eval hook (for ST-WA the frozen
        // executor), and must not move a single bit of the predictions
        // or metrics against graph-path eval — for every variant the
        // frozen engine serves, over a split whose last batch is ragged
        // (two batch plans per pass).
        use crate::generator::AwarenessFlags;
        use std::sync::Arc;
        use stwa_tensor::SensorGraph;

        let dataset = TrafficDataset::generate(DatasetConfig::small());
        let n = dataset.num_sensors();
        let corridor: Vec<Vec<usize>> = (0..n)
            .map(|i| (i.saturating_sub(1)..(i + 2).min(n)).collect())
            .collect();
        let configs = [
            StwaConfig::st_wa(n, 12, 3),
            StwaConfig::s_wa(n, 12, 3),
            StwaConfig {
                awareness: Some(AwarenessFlags::t_aware()),
                ..StwaConfig::st_wa(n, 12, 3)
            },
            StwaConfig::wa(n, 12, 3),
            StwaConfig::deterministic(n, 12, 3),
            StwaConfig::st_wa(n, 12, 3).with_mean_aggregator(),
            StwaConfig::st_wa(n, 12, 3).with_flow(2),
            StwaConfig::s_wa(n, 12, 3).with_flow(2),
            StwaConfig::st_wa(n, 12, 3).with_generated_sca(),
            StwaConfig::s_wa(n, 12, 3).with_generated_sca(),
            StwaConfig {
                sensor_attention: false,
                ..StwaConfig::st_wa(n, 12, 3)
            },
            StwaConfig::wa_1(n, 12, 3),
            StwaConfig::st_wa(n, 12, 3).with_sensor_graph(Arc::new(SensorGraph::complete(n))),
            StwaConfig::st_wa(n, 12, 3).with_sensor_graph(Arc::new(
                SensorGraph::from_neighbor_lists(n, &corridor).unwrap(),
            )),
        ];
        let trainer = quick_trainer(1);
        let split = dataset.test(12, 3, 6).unwrap();
        let scaler = dataset.scaler();
        let bs = trainer.config.batch_size;
        assert!(
            !split.x.shape()[0].is_multiple_of(bs),
            "want a ragged tail batch"
        );

        for (i, cfg) in configs.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(9 + i as u64);
            let model = StwaModel::new(cfg, &mut rng).unwrap();
            let want = graph_predict(&model, &split.x, &scaler, bs);

            let got = trainer.predict(&model, &split.x, &scaler, &mut rng).unwrap();
            assert_eq!(got.shape(), want.shape(), "variant {i}");
            assert_eq!(got.data(), want.data(), "variant {i}: predict diverged");

            let via_eval = trainer.evaluate(&model, &split, &scaler, &mut rng).unwrap();
            let via_graph = Metrics::compute(&want, &split.y);
            assert_eq!(via_eval.mae.to_bits(), via_graph.mae.to_bits(), "variant {i}");
            assert_eq!(via_eval.rmse.to_bits(), via_graph.rmse.to_bits(), "variant {i}");
            assert_eq!(via_eval.mape.to_bits(), via_graph.mape.to_bits(), "variant {i}");
        }
    }

    #[test]
    fn predict_writes_in_place_bitwise_equal_to_concat() {
        // The preallocated batched_forward must reproduce the
        // collect-then-concat output bit for bit, including on a split
        // whose last batch is ragged.
        let dataset = TrafficDataset::generate(DatasetConfig::small());
        let n = dataset.num_sensors();
        let mut rng = StdRng::seed_from_u64(13);
        let model = StwaModel::new(StwaConfig::st_wa(n, 12, 3), &mut rng).unwrap();
        let trainer = quick_trainer(1);
        let split = dataset.test(12, 3, 6).unwrap();
        let scaler = dataset.scaler();
        let num = split.x.shape()[0];
        let bs = trainer.config.batch_size;
        assert!(
            !num.is_multiple_of(bs),
            "want a ragged tail batch, got {num} % {bs}"
        );

        let in_place = trainer
            .predict(&model, &split.x, &scaler, &mut rng)
            .unwrap();
        let concatenated = graph_predict(&model, &split.x, &scaler, bs);

        assert_eq!(in_place.shape(), concatenated.shape());
        for (a, b) in in_place.data().iter().zip(concatenated.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Empty inputs are rejected instead of producing a 0-row tensor.
        let empty = Tensor::zeros(&[0, n, 12, 1]);
        assert!(trainer.predict(&model, &empty, &scaler, &mut rng).is_err());
    }

    #[test]
    fn predict_covers_all_samples() {
        let dataset = TrafficDataset::generate(DatasetConfig::small());
        let n = dataset.num_sensors();
        let mut rng = StdRng::seed_from_u64(3);
        let model = StwaModel::new(StwaConfig::wa(n, 12, 3), &mut rng).unwrap();
        let trainer = quick_trainer(1);
        let split = dataset.test(12, 3, 6).unwrap();
        let preds = trainer
            .predict(&model, &split.x, &dataset.scaler(), &mut rng)
            .unwrap();
        assert_eq!(preds.shape(), split.y.shape());
    }
}
