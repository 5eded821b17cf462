//! # stwa-core
//!
//! The paper's contribution: **S**patio-**T**emporal aware **W**indow
//! **A**ttention (ST-WA) for traffic time series forecasting, plus the
//! model-agnostic spatio-temporal aware parameter generation framework.
//!
//! Components map 1:1 onto the paper's Section IV:
//!
//! - [`latent`] — the spatial-aware stochastic variable `z^(i)`
//!   (Eq. 5) and the variational temporal encoder producing `z_t^(i)`
//!   (Eq. 6–7), combined into `Theta_t^(i) = z^(i) + z_t^(i)` (Eq. 4);
//! - [`generator`] — the decoder `D_omega` turning `Theta_t^(i)` into
//!   per-sensor, per-time model parameters (Eq. 8), with the analytic KL
//!   regularizer of Eq. 20;
//! - [`window_attention`] — the linear-complexity proxy window attention
//!   (Eq. 10–14) with the learned proxy aggregator (Eq. 12–13) and
//!   cross-window information flow (Eq. 14);
//! - [`sensor_attention`] — the embedded-Gaussian sensor correlation
//!   attention (Eq. 15–16);
//! - [`model`] — the stacked full model with skip connections and the
//!   2-layer predictor (Eq. 17–19), plus every ablation variant from
//!   the paper's Tables VIII–XIV;
//! - [`trainer`] — end-to-end optimization (Eq. 20: Huber + alpha * KL),
//!   early stopping, epoch timing, and the [`ForecastModel`] trait that
//!   the baseline crate also implements so every experiment binary can
//!   train any model through one code path;
//! - [`frozen`], [`packed`], [`session`] — the frozen executor: the
//!   eval-mode forward with latents at their posterior means, weights
//!   packed into GEMM panels, and no autograd tape. It is the only
//!   no-grad executor: [`StwaModel`]'s eval hook runs it for
//!   [`Trainer::evaluate`]/[`Trainer::predict`], and `stwa-infer` serves
//!   it. The autograd graph stays the training path and the oracle the
//!   frozen path is pinned to bitwise.

pub mod flow;
pub mod frozen;
pub mod generator;
pub mod latent;
pub mod model;
pub mod packed;
pub mod sensor_attention;
pub mod session;
pub mod sharded;
pub mod trainer;
pub mod window_attention;

pub use flow::{flow_kl, FlowStack};
pub use frozen::{BatchPlan, FrozenStwa};
pub use generator::{
    combine_theta, combined_kl, combined_moments, AwarenessFlags, GeneratedProjections,
    ParamDecoder, StGenerator,
};
pub use latent::{GaussianSample, LatentMode, SpatialLatent, TemporalEncoder};
pub use model::{AggregatorKind, StwaConfig, StwaModel};
pub use packed::{PackedDense, PackedMlp, PackedWeight};
pub use sensor_attention::{SensorCorrelationAttention, SparsityMode};
pub use session::InferSession;
pub use sharded::{fold_shard_grads, shard_seed, ShardEngine};
pub use trainer::{
    Evaluator, ForecastModel, ForwardOutput, ReplicaFactory, TrainConfig, TrainReport, Trainer,
};
pub use window_attention::WindowAttentionLayer;
