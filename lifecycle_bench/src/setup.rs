//! The one model config every workload uses, the seeded inputs, and
//! the pieces of a serving deployment: registry, server, window fill,
//! and the direct-eval oracle that served answers are checked against.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_infer::InferSession;
use stwa_serve::cache::fingerprint_f32;
use stwa_serve::{proto, Client, ServeConfig, Server};
use stwa_tensor::Tensor;
use stwa_traffic::{DatasetConfig, TrafficDataset};

use crate::stats::{find, ServerStats};

pub const MODEL_NAME: &str = "ST-WA";
pub const HISTORY: usize = 12;
pub const HORIZON: usize = 3;

/// bench_serve's serving widths on the pems07-like network (48
/// sensors), so the trained, published, frozen and served model is one
/// architecture in every workload.
pub fn model_config(sensors: usize) -> StwaConfig {
    let mut cfg = StwaConfig::st_wa(sensors, HISTORY, HORIZON);
    cfg.d = 32;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    cfg
}

/// Independent streams derived from the workload seed.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub data: u64,
    pub model: u64,
    pub mix: u64,
    pub train: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Seeds {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_5741_4245_4e43);
        Seeds {
            data: rng.next_u64(),
            model: rng.next_u64(),
            mix: rng.next_u64(),
            train: rng.next_u64(),
        }
    }
}

pub fn generate_dataset(seeds: &Seeds) -> TrafficDataset {
    let mut config = DatasetConfig::pems07_like();
    config.seed = seeds.data;
    TrafficDataset::generate(config)
}

pub fn build_model(sensors: usize, model_seed: u64) -> StwaModel {
    StwaModel::new(
        model_config(sensors),
        &mut StdRng::seed_from_u64(model_seed),
    )
    .expect("the serving config builds")
}

/// Normalized observation frames `[N*F]` in time order, starting at a
/// seed-chosen offset into the series. Frames past the end wrap around
/// with a per-cycle offset, so no two rolling windows ever repeat.
pub struct Frames {
    /// Normalized series, `[N, T, F]` row-major.
    series: Vec<f32>,
    n: usize,
    t: usize,
    f: usize,
    start: usize,
}

impl Frames {
    pub fn new(dataset: &TrafficDataset, mix_seed: u64) -> Frames {
        let normalized = dataset.scaler().transform(dataset.raw());
        let shape = normalized.shape().to_vec();
        let (n, t, f) = (shape[0], shape[1], shape[2]);
        let start = StdRng::seed_from_u64(mix_seed).gen_range(0..t / 4);
        Frames {
            series: normalized.data().to_vec(),
            n,
            t,
            f,
            start,
        }
    }

    pub fn sensors(&self) -> usize {
        self.n
    }

    pub fn features(&self) -> usize {
        self.f
    }

    pub fn frame(&self, idx: usize) -> Vec<f32> {
        let pos = self.start + idx;
        let (cycle, step) = (pos / self.t, pos % self.t);
        let shift = cycle as f32 * 0.001;
        let mut out = Vec::with_capacity(self.n * self.f);
        for s in 0..self.n {
            let base = (s * self.t + step) * self.f;
            out.extend(self.series[base..base + self.f].iter().map(|v| v + shift));
        }
        out
    }
}

/// JSON body of `POST /observe` for one frame (f32 → f64 is exact).
pub fn observe_body(frame: &[f32]) -> Vec<u8> {
    let items: Vec<String> = frame.iter().map(|v| format!("{}", *v as f64)).collect();
    format!("{{\"frame\":[{}]}}", items.join(",")).into_bytes()
}

/// The exact bytes `Client::send_get` writes for a forecast query.
pub fn forecast_target(sensor: u32, horizon: u32) -> String {
    format!("/forecast?sensor={sensor}&horizon={horizon}")
}

/// All (sensor, horizon) pairs in a seed-shuffled order.
pub fn shuffled_pairs(sensors: usize, mix_seed: u64) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = (0..sensors as u32)
        .flat_map(|s| (1..=HORIZON as u32).map(move |h| (s, h)))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix_seed ^ 0x7061_6972);
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    pairs
}

/// The client-side mirror of the server's rolling window.
#[derive(Clone)]
pub struct Window {
    values: Vec<f32>,
    n: usize,
    f: usize,
}

impl Window {
    pub fn zeros(n: usize, f: usize) -> Window {
        Window {
            values: vec![0.0; n * HISTORY * f],
            n,
            f,
        }
    }

    pub fn push(&mut self, frame: &[f32]) {
        let (h, f) = (HISTORY, self.f);
        for s in 0..self.n {
            let row = &mut self.values[s * h * f..(s + 1) * h * f];
            row.copy_within(f.., 0);
            row[(h - 1) * f..].copy_from_slice(&frame[s * f..(s + 1) * f]);
        }
    }

    pub fn fp(&self) -> u64 {
        fingerprint_f32(&self.values)
    }

    pub fn values(&self) -> &[f32] {
        &self.values
    }
}

/// `"window_fp":"<hex>"` exactly as the server serializes it.
pub fn fp_tag(fp: u64) -> Vec<u8> {
    format!("\"window_fp\":\"{fp:016x}\"").into_bytes()
}

pub fn version_tag(version: u64) -> Vec<u8> {
    format!("\"version\":{version},").into_bytes()
}

/// Whether a forecast body declares this version and window.
pub fn declares(body: &[u8], version_tag: &[u8], fp_tag: &[u8]) -> bool {
    find(body, version_tag).is_some() && find(body, fp_tag).is_some()
}

/// Direct in-process evaluation of declared (version, window) pairs;
/// one forward per distinct window, memoized.
pub struct Oracle {
    sessions: Vec<InferSession>,
    by_version: HashMap<u64, usize>,
    windows: HashMap<u64, Vec<f32>>,
    full: HashMap<(u64, u64), Vec<f32>>,
    n: usize,
    f: usize,
}

impl Oracle {
    pub fn new(n: usize, f: usize) -> Oracle {
        Oracle {
            sessions: Vec::new(),
            by_version: HashMap::new(),
            windows: HashMap::new(),
            full: HashMap::new(),
            n,
            f,
        }
    }

    /// Freeze `model` as a reference; versions are then mapped onto it.
    pub fn add_model(&mut self, model: &StwaModel) -> usize {
        self.sessions
            .push(InferSession::new(model).expect("oracle freeze"));
        self.sessions.len() - 1
    }

    /// Serve-side `version` answers with the weights of `model_id`.
    pub fn map_version(&mut self, version: u64, model_id: usize) {
        self.by_version.insert(version, model_id);
    }

    pub fn add_window(&mut self, window: &Window) -> u64 {
        let fp = window.fp();
        self.windows
            .entry(fp)
            .or_insert_with(|| window.values().to_vec());
        fp
    }

    /// Check a served forecast body bitwise against direct eval of the
    /// (version, window) it declares. `Err` names the mismatch.
    pub fn verify(&mut self, body: &[u8], sensor: u32, horizon: u32) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
        let doc = stwa_observe::parse_json(text).map_err(|e| format!("body JSON: {e}"))?;
        let version = doc
            .get("version")
            .and_then(|v| v.as_num())
            .ok_or("no version")? as u64;
        let fp = proto::parse_window_fp(body)?;
        let got = proto::parse_forecast_values(body)?;
        let (n, f) = (self.n, self.f);
        if !self.full.contains_key(&(version, fp)) {
            let session = self
                .by_version
                .get(&version)
                .map(|&id| &self.sessions[id])
                .ok_or_else(|| format!("answer declares unknown version {version}"))?;
            let window = self
                .windows
                .get(&fp)
                .ok_or_else(|| format!("answer declares unknown window {fp:016x}"))?;
            let x =
                Tensor::from_vec(window.clone(), &[1, n, HISTORY, f]).map_err(|e| e.to_string())?;
            let out = session.run(&x).map_err(|e| format!("direct eval: {e}"))?;
            self.full.insert((version, fp), out.data().to_vec());
        }
        let full = &self.full[&(version, fp)];
        let start = sensor as usize * HORIZON * f;
        let want = &full[start..start + horizon as usize * f];
        if got.len() != want.len()
            || got
                .iter()
                .zip(want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!(
                "sensor {sensor} horizon {horizon} (v{version}, window {fp:016x}) served \
                 {got:?}, direct eval gives {want:?}"
            ));
        }
        Ok(())
    }

    /// Forget memoized forwards (bounds memory across long runs).
    pub fn clear_forwards(&mut self) {
        self.full.clear();
    }
}

/// Working space for registries under the current directory; removed
/// on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(workload: &str) -> RunDir {
        let path = Path::new(".bench_run").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the run directory");
        RunDir { path }
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// A running deployment: registry, server, and a control connection
/// whose mirror of the rolling window is kept exact.
pub struct Deployment {
    pub registry: Registry,
    pub server: Server,
    pub control: Client,
    pub window: Window,
    pub version: u64,
    pub next_frame: usize,
}

impl Deployment {
    /// Start a server on `root` with `ServeConfig::default()` (only
    /// `addr` and `registry` differ), replicas building the seeded
    /// model. `publish` first publishes that model's parameters.
    pub fn start(
        root: &Path,
        sensors: usize,
        features: usize,
        model_seed: u64,
        publish: Option<&StwaModel>,
    ) -> Result<Deployment, String> {
        let _ = std::fs::remove_dir_all(root);
        let registry = Registry::open(root).map_err(|e| format!("open registry: {e}"))?;
        if let Some(model) = publish {
            registry
                .publish(
                    MODEL_NAME,
                    &TrainCheckpoint::params_only(MODEL_NAME, model.store()),
                )
                .map_err(|e| format!("publish: {e}"))?;
        }
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            registry: Some((root.to_path_buf(), MODEL_NAME.to_string())),
            ..ServeConfig::default()
        };
        let server = Server::start(config, move || {
            StwaModel::new(
                model_config(sensors),
                &mut StdRng::seed_from_u64(model_seed),
            )
        })
        .map_err(|e| format!("server start: {e}"))?;
        let control = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let version = server.version();
        Ok(Deployment {
            registry,
            server,
            control,
            window: Window::zeros(sensors, features),
            version,
            next_frame: 0,
        })
    }

    /// Observe the next frame on the control connection and check the
    /// acknowledged window against the mirror.
    pub fn observe_next(&mut self, frames: &Frames) -> Result<(), String> {
        let frame = frames.frame(self.next_frame);
        self.next_frame += 1;
        self.window.push(&frame);
        let resp = self
            .control
            .post("/observe", &observe_body(&frame))
            .map_err(|e| format!("observe: {e}"))?;
        if resp.status != 200 {
            return Err(format!("observe answered {}", resp.status));
        }
        let fp = proto::parse_window_fp(&resp.body)?;
        if fp != self.window.fp() {
            return Err(format!("server window {fp:016x} diverged from the mirror"));
        }
        Ok(())
    }

    /// Fill the whole rolling window with real frames.
    pub fn fill(&mut self, frames: &Frames) -> Result<(), String> {
        for _ in 0..HISTORY {
            self.observe_next(frames)?;
        }
        Ok(())
    }

    pub fn stats(&mut self) -> Result<ServerStats, String> {
        let resp = self
            .control
            .get("/stats")
            .map_err(|e| format!("stats: {e}"))?;
        if resp.status != 200 {
            return Err(format!("/stats answered {}", resp.status));
        }
        ServerStats::parse(&resp.body)
    }

    pub fn shutdown(self) {
        drop(self.control);
        self.server.shutdown();
    }
}

/// One timed set-up of a serving deployment: dataset generation, model
/// build, registry publish, `Server::start` and window fill.
pub struct ServingSetup {
    pub dataset: TrafficDataset,
    pub frames: Frames,
    pub model: StwaModel,
    pub deployment: Deployment,
    pub generate_s: f64,
}

pub fn setup_serving(seeds: &Seeds, root: &Path) -> Result<(ServingSetup, f64), String> {
    let t0 = Instant::now();
    let dataset = generate_dataset(seeds);
    let generate_s = t0.elapsed().as_secs_f64();
    let frames = Frames::new(&dataset, seeds.mix);
    let model = build_model(frames.sensors(), seeds.model);
    let mut deployment = Deployment::start(
        root,
        frames.sensors(),
        frames.features(),
        seeds.model,
        Some(&model),
    )?;
    deployment.fill(&frames)?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        ServingSetup {
            dataset,
            frames,
            model,
            deployment,
            generate_s,
        },
        setup_s,
    ))
}
