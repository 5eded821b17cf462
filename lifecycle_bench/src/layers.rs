//! Per-layer numbers for the traced run: span shares read from the
//! program's own `stwa_observe` recorder, and timings of the calls the
//! benchmark makes into each crate's public functions.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::{ForecastModel, StwaModel};
use stwa_infer::{FrozenStwa, InferSession};
use stwa_observe::SpanStat;
use stwa_serve::cache::{CacheKey, ForecastCache};
use stwa_serve::{http, proto};
use stwa_tensor::quant::Precision;
use stwa_tensor::Tensor;

use crate::setup::{forecast_target, observe_body, Frames, Window, HISTORY, MODEL_NAME};
use crate::stats::median;

/// Each micro timing is the median of this many batches.
const BATCHES: usize = 5;
/// Minimum wall time of one micro batch.
const BATCH_TIME: Duration = Duration::from_millis(40);

/// Turn recording on with every span, counter and gauge cleared: the
/// graph, no-grad and frozen executors all record under
/// `forward/generator/decoder`, so phases must not share a recorder.
pub fn begin_phase() {
    stwa_observe::reset();
    stwa_observe::set_enabled(true);
}

/// Stop recording and return the phase's spans and counters.
pub fn end_phase() -> Phase {
    stwa_observe::set_enabled(false);
    Phase {
        spans: stwa_observe::Recorder::global().snapshot(),
        counters: stwa_observe::counters_snapshot(),
    }
}

pub struct Phase {
    pub spans: Vec<SpanStat>,
    pub counters: Vec<(String, u64)>,
}

impl Phase {
    /// Total milliseconds of every span whose path satisfies `pred`.
    pub fn ms(&self, pred: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| pred(&s.path))
            .map(SpanStat::total_ms)
            .fold(0.0, |a, b| a + b)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Shares of one executor's `forward` span taken by each paper stage.
pub struct CoreShares {
    pub latent: f64,
    pub decoder: f64,
    pub wa_attn: f64,
    pub wa_gate: f64,
    pub wa_fusion: f64,
    pub sensor_attention: f64,
    pub predictor: f64,
    pub decoder_ms: f64,
}

/// `<root>/wa_layerL/<child>` for any layer L.
fn in_wa_layer(path: &str, root: &str, child: impl Fn(&str) -> bool) -> bool {
    let Some(rest) = path
        .strip_prefix(root)
        .and_then(|r| r.strip_prefix("/wa_layer"))
    else {
        return false;
    };
    let Some((_, tail)) = rest.split_once('/') else {
        return false;
    };
    !tail.contains('/') && child(tail)
}

/// Stage shares under the forward span rooted at `root`: `forward` for
/// the frozen executor (serve model threads and direct sessions),
/// `shard_step/forward` for the graph executor in sharded training.
/// The graph executor records no span for window attention, gate or
/// fusion, so those three read 0 there.
pub fn core_shares(phase: &Phase, root: &str) -> Option<CoreShares> {
    let forward_ms = phase.ms(|p| p == root);
    if forward_ms <= 0.0 {
        return None;
    }
    let share = |ms: f64| ms / forward_ms;
    let decoder_ms = phase.ms(|p| p == format!("{root}/generator/decoder"));
    Some(CoreShares {
        latent: share(phase.ms(|p| p == format!("{root}/generator/latent"))),
        decoder: share(decoder_ms),
        wa_attn: share(
            phase.ms(|p| in_wa_layer(p, root, |c| c == "attn" || c.starts_with("att_"))),
        ),
        wa_gate: share(phase.ms(|p| in_wa_layer(p, root, |c| c == "gate"))),
        wa_fusion: share(phase.ms(|p| in_wa_layer(p, root, |c| c == "fusion"))),
        sensor_attention: share(phase.ms(|p| in_wa_layer(p, root, |c| c == "sensor_attention"))),
        predictor: share(phase.ms(|p| p == format!("{root}/predictor"))),
        decoder_ms,
    })
}

/// Shares of the trainer's `epoch` span: shard steps and their backward
/// pass run on `shards` worker threads, so their summed time is divided
/// by `epoch x shards`; the optimizer runs on the trainer thread.
pub struct EpochShares {
    pub shard_step: f64,
    pub backward: f64,
    pub optimizer: f64,
}

pub fn epoch_shares(phase: &Phase, shards: usize) -> Option<EpochShares> {
    let epoch_ms = phase.ms(|p| p == "trainer/epoch");
    if epoch_ms <= 0.0 {
        return None;
    }
    let threads_ms = epoch_ms * shards as f64;
    Some(EpochShares {
        shard_step: phase.ms(|p| p == "shard_step") / threads_ms,
        backward: phase.ms(|p| p == "shard_step/backward") / threads_ms,
        optimizer: phase.ms(|p| p == "trainer/epoch/train_step/optimizer") / epoch_ms,
    })
}

/// Multiply-add flops of the parameter decoders `D_omega` for one input
/// window, from the parameter shapes: every decoder linear layer maps
/// each of the N sensors' latent rows through an `[in, out]` weight.
pub fn decoder_flops_per_window(model: &StwaModel, sensors: usize) -> f64 {
    model
        .store()
        .params()
        .iter()
        .filter(|p| {
            let name = p.name();
            (name.starts_with("gen.dec") || name.starts_with("gen.sca")) && name.ends_with(".w")
        })
        .map(|p| {
            let shape = p.shape();
            2.0 * sensors as f64 * shape.iter().product::<usize>() as f64
        })
        .sum()
}

/// Median over [`BATCHES`] of the per-call time of `f`, in ns. Each
/// batch repeats `f` until it has run for at least [`BATCH_TIME`].
pub fn per_call_ns(mut f: impl FnMut()) -> f64 {
    f();
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < BATCH_TIME {
                f();
                calls += 1;
            }
            t0.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// Median wall time of `reps` calls, in ms.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Timings of single calls into each crate, on the workload's inputs.
pub struct Micro {
    pub http_parse_ns: f64,
    pub forecast_body_ns: f64,
    pub parse_observe_us: f64,
    pub cache_get_ns: f64,
    pub forward_b1_us: f64,
    pub freeze_ms: f64,
    pub publish_ms: f64,
    pub gemm_peak_gflops: f64,
}

pub fn micro(
    model: &StwaModel,
    spare_model: &StwaModel,
    frames: &Frames,
    pairs: &[(u32, u32)],
    registry_root: &Path,
) -> Result<Micro, String> {
    let n = frames.sensors();
    let f = frames.features();

    // http: the workload's own forecast request bytes.
    let requests: Vec<Vec<u8>> = pairs
        .iter()
        .map(|&(s, h)| {
            format!(
                "GET {} HTTP/1.1\r\nHost: stwa\r\n\r\n",
                forecast_target(s, h)
            )
            .into_bytes()
        })
        .collect();
    for bytes in &requests {
        if !matches!(http::parse_request(bytes), http::Parse::Complete(..)) {
            return Err("http::parse_request rejected a forecast request".into());
        }
    }
    let mut i = 0;
    let http_parse_ns = per_call_ns(|| {
        black_box(http::parse_request(black_box(
            &requests[i % requests.len()],
        )));
        i += 1;
    });

    // Windows of consecutive frames, as frame_fanout serves them.
    let mut window = Window::zeros(n, f);
    let mut windows = Vec::new();
    for t in 0..HISTORY + 32 {
        window.push(&frames.frame(t));
        if t + 1 >= HISTORY {
            windows.push(
                Tensor::from_vec(window.values().to_vec(), &[1, n, HISTORY, f])
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    let session = InferSession::new(model).map_err(|e| e.to_string())?;
    let served = session
        .run(&windows[0])
        .map_err(|e| e.to_string())?
        .data()
        .to_vec();
    let mut i = 0;
    let forward_b1_us = per_call_ns(|| {
        black_box(
            session
                .run(&windows[i % windows.len()])
                .expect("direct forward"),
        );
        i += 1;
    }) / 1e3;

    // proto: served values out, frame bodies in.
    let (u, fp) = (served.len() / n, window.fp());
    let mut i = 0;
    let forecast_body_ns = per_call_ns(|| {
        let (s, h) = pairs[i % pairs.len()];
        let start = s as usize * u;
        let values = &served[start..start + h as usize * f];
        black_box(proto::forecast_body(s, h, 1, fp, "miss", values));
        i += 1;
    });
    let bodies: Vec<Vec<u8>> = (0..32).map(|t| observe_body(&frames.frame(t))).collect();
    let mut i = 0;
    let parse_observe_us = per_call_ns(|| {
        black_box(proto::parse_observe(&bodies[i % bodies.len()], n * f).expect("frame body"));
        i += 1;
    }) / 1e3;

    // cache: hot_read's key mix against a filled cache.
    let cache = ForecastCache::new(16, Duration::from_secs(300));
    let keys: Vec<CacheKey> = pairs
        .iter()
        .map(|&(sensor, horizon)| CacheKey {
            version: 1,
            sensor,
            horizon,
            window_fp: fp,
        })
        .collect();
    for key in &keys {
        cache.put(
            *key,
            std::sync::Arc::new(vec![0.0; key.horizon as usize * f]),
        );
    }
    let mut i = 0;
    let cache_get_ns = per_call_ns(|| {
        black_box(cache.get(&keys[i % keys.len()]).expect("filled key"));
        i += 1;
    });

    // ckpt publish and infer freeze, on a registry of their own so no
    // running server sees these versions.
    let _ = std::fs::remove_dir_all(registry_root);
    let registry = Registry::open(registry_root).map_err(|e| format!("probe registry: {e}"))?;
    let checkpoint = TrainCheckpoint::params_only(MODEL_NAME, model.store());
    let mut publish_err = None;
    let publish_ms = median_ms(BATCHES, || {
        if let Err(e) = registry.publish(MODEL_NAME, &checkpoint) {
            publish_err = Some(e.to_string());
        }
    });
    if let Some(e) = publish_err {
        return Err(format!("probe publish: {e}"));
    }
    let mut freeze_err = None;
    let freeze_ms = median_ms(BATCHES, || {
        match FrozenStwa::freeze_from_registry_at(
            spare_model,
            &registry,
            MODEL_NAME,
            None,
            Precision::F32,
        ) {
            Ok(frozen) => drop(black_box(frozen)),
            Err(e) => freeze_err = Some(e.to_string()),
        }
    });
    if let Some(e) = freeze_err {
        return Err(format!("probe freeze: {e}"));
    }
    let _ = std::fs::remove_dir_all(registry_root);

    // tensor: the GEMM kernel's rate on a 512^3 product.
    let dim = 512;
    let a = Tensor::from_vec(
        (0..dim * dim).map(|i| (i % 7) as f32 * 0.25).collect(),
        &[dim, dim],
    )
    .map_err(|e| e.to_string())?;
    let b = Tensor::from_vec(
        (0..dim * dim).map(|i| (i % 5) as f32 * 0.5).collect(),
        &[dim, dim],
    )
    .map_err(|e| e.to_string())?;
    let gemm_ms = median_ms(BATCHES, || {
        black_box(stwa_tensor::linalg::matmul(&a, &b).expect("512^3 matmul"));
    });
    let gemm_peak_gflops = 2.0 * (dim as f64).powi(3) / (gemm_ms * 1e-3) / 1e9;

    Ok(Micro {
        http_parse_ns,
        forecast_body_ns,
        parse_observe_us,
        cache_get_ns,
        forward_b1_us,
        freeze_ms,
        publish_ms,
        gemm_peak_gflops,
    })
}
