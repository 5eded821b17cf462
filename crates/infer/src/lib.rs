//! # stwa-infer
//!
//! Serving front-end for the ST-WA model family.
//!
//! The ST-WA forward has two executors. The autograd graph
//! (`ForecastModel::forward`) is the training path and the oracle. The
//! frozen executor ([`FrozenStwa`] behind an [`InferSession`], defined in
//! `stwa-core` and re-exported here) is the eval and serving path:
//! `Trainer::evaluate`/`predict` run it through the model's per-pass
//! eval hook, and this crate puts it in front of requests:
//!
//! - [`FrozenStwa::freeze`] snapshots the trained parameters, collapses
//!   the stochastic latents to their posterior means, pre-decodes the
//!   per-sensor K/V projections when they are input-independent (S-WA),
//!   precomputes the planar-flow constrained parameters, and re-lays
//!   every static dense weight into packed GEMM panels;
//! - [`InferSession`] executes the frozen op sequence with a
//!   per-batch-size plan arena and refuses to serve once the source
//!   parameters are mutated (version-counter staleness guard);
//! - [`InferQueue`] coalesces single-sample requests into micro-batches
//!   (`max_batch` / `max_wait`) in front of a session.
//!
//! The frozen executor's contract is **bitwise equality**: at f32 it
//! runs the same tensor kernels in the same accumulation order as the
//! graph's eval path, so `InferSession::run` and
//! `model.forward(graph, x, rng, false)` agree bit-for-bit. The
//! property tests in `tests/` enforce this across random
//! configurations.
//!
//! A model can also be frozen at a reduced panel [`Precision`]
//! ([`FrozenStwa::freeze_at`] / [`InferSession::new_at`]): bf16 or
//! symmetric int8 weight panels for memory-bandwidth-bound large-batch
//! serving. Quantized snapshots keep the bitwise contract one level
//! down (SIMD kernels vs their scalar references) and gate end-to-end
//! correctness on a forecast-MAE delta against the f32 snapshot
//! (DESIGN.md §14); training and trainer eval are f32-only.

pub mod queue;

pub use queue::{InferQueue, QueueConfig, RequestId};
pub use stwa_core::{BatchPlan, FrozenStwa, InferSession, PackedDense, PackedMlp, PackedWeight};
pub use stwa_tensor::quant::Precision;
