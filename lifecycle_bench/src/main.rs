//! One benchmark for the ST-WA lifecycle on one serving-width model.
//!
//! ```text
//! cargo run --release --manifest-path lifecycle_bench/Cargo.toml -- \
//!     --workload frame_fanout|hot_read|train_rollout --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `METRICS.md` for the rationale and the table of which
//! layer metric should move which end-to-end metric):
//!
//! - `frame_fanout` — one connection, 4 frames in flight; a frame is one
//!   `POST /observe` and a `GET /forecast` for all 48 x 3 (sensor,
//!   horizon) pairs. Every frame costs one full frozen forward.
//! - `hot_read` — one connection, 32 requests pipelined, reading all
//!   pairs against a settled window; nearly every answer is an IO-worker
//!   cache hit.
//! - `train_rollout` — train one epoch at 2 shards, predict the test
//!   split, then publish, hot-swap and read back the trained weights.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics
//! (`setup_s`, `throughput_per_s`, `latency_p50_ms`: the workload's
//! headline rate and wait). With `--trace 1` the run repeats its load
//! with `stwa_observe` recording, probes each layer from outside, and
//! reports the per-layer metrics. Served forecasts are checked bitwise
//! against direct evaluation; any failed check fails the run.

mod env;
mod layers;
mod outcome;
mod serve_loads;
mod setup;
mod stats;
mod train_rollout;

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_core::ForecastModel;
use stwa_traffic::TrafficDataset;

use layers::{begin_phase, end_phase, CoreShares, Micro, Phase};
use outcome::{Metrics, Outcome};
use serve_loads::ServePass;
use setup::{generate_dataset, Deployment, Frames, Oracle, RunDir, Seeds, HISTORY, HORIZON};
use stats::{median, Summary};
use train_rollout::{TrainPass, SHARDS};

const WORKLOADS: [&str; 3] = ["frame_fanout", "hot_read", "train_rollout"];

const END_TO_END: [&str; 3] = ["setup_s", "throughput_per_s", "latency_p50_ms"];

const PER_LAYER: [&str; 35] = [
    "serve.evals_per_frame",
    "serve.answer_hit_share",
    "serve.answer_memo_share",
    "serve.answer_miss_share",
    "serve.hit_p50_us",
    "serve.model_answer_p50_us",
    "serve.dispatch_overhead_us",
    "serve.observe_ack_p50_us",
    "serve.http_parse_ns",
    "serve.forecast_body_ns",
    "serve.parse_observe_us",
    "serve.cache_get_ns",
    "serve.swap_ms",
    "infer.forward_b1_us",
    "infer.freeze_ms",
    "ckpt.publish_ms",
    "core.latent_share",
    "core.decoder_share",
    "core.wa_attn_share",
    "core.wa_gate_share",
    "core.wa_fusion_share",
    "core.sensor_attention_share",
    "core.predictor_share",
    "core.epoch_s",
    "core.evaluate_ms",
    "core.shard_step_share",
    "autograd.backward_share",
    "nn.optimizer_share",
    "core.test_mae",
    "core.train_peak_mib",
    "core.predict_rows_per_s",
    "tensor.decoder_gflops",
    "tensor.gemm_peak_gflops",
    "traffic.generate_ms",
    "observe.overhead_share",
];

/// Set-ups per run; `setup_s` is their median.
const SERVE_SETUPS: usize = 5;
const TRAIN_SETUPS: usize = 5;
/// Rounds of the fixed serve script in traced runs.
const SCRIPT_ROUNDS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: stwa-lifecycle-bench --workload frame_fanout|hot_read|train_rollout \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let pinned = env::pinned_vars_set();
    if !pinned.is_empty() {
        eprintln!(
            "refusing to run with {} set: these select code paths or thread counts, so a \
             parent and a change could measure different programs",
            pinned.join(", ")
        );
        std::process::exit(2);
    }
    for name in WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER) {
        assert!(
            stats::valid_name(name),
            "invalid metric or workload name {name}"
        );
    }
    println!(
        "{}",
        env::describe(&args.workload, args.seed, args.seconds, args.trace)
    );

    let mut out = Outcome::default();
    let run_dir = RunDir::create(&args.workload);
    let ctx = Ctx {
        seeds: Seeds::from(args.seed),
        seconds: args.seconds as f64,
        trace: args.trace,
        run_dir: &run_dir,
    };
    let result = match args.workload.as_str() {
        "train_rollout" => run_train_rollout(&ctx, &mut out),
        load => run_serving(&ctx, load, &mut out),
    };
    drop(run_dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            out.fail(format!("run aborted: {e}"));
            Metrics::default()
        }
    };
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for name in wanted {
        match metrics.0.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => body.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )),
            Some(m) => out.fail(format!("metric {} is not finite ({})", m.name, m.value)),
            None if out.failed == 0 => out.fail(format!("metric {name} was not measured")),
            None => {}
        }
    }
    out.attempted = out.attempted.max(1);
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

struct Ctx<'a> {
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    run_dir: &'a RunDir,
}

/// A human-readable line for a metric under its descriptive name.
fn info(name: &str, value: f64, unit: &str, note: &str) {
    println!("metric {name} = {value:.6} {unit}{note}");
}

/// `p50` and the supported tail of a latency sample, printed.
fn report_wait(name: &str, unit: &str, values: &[f64], p99_name: &str) -> Result<f64, String> {
    let mut sorted = values.to_vec();
    let s = Summary::of(&mut sorted).ok_or_else(|| format!("{name}: no samples"))?;
    info(
        &format!("{name}_p50_{unit}"),
        s.p50,
        unit,
        &format!(" (n={})", s.samples),
    );
    match s.at(&sorted, 990) {
        Some(p99) => info(p99_name, p99, unit, &format!(" (n={})", s.samples)),
        None if s.tail_permille > 0 => info(
            &format!("{name}_p{}_{unit}", s.tail_permille / 10),
            s.tail,
            unit,
            &format!(" (n={}, too few samples for p99)", s.samples),
        ),
        None => println!("({name}: n={}, too few samples for any tail)", s.samples),
    }
    Ok(s.p50)
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

/// Print the load's headline numbers under their descriptive names and
/// return (throughput, p50 wait in ms).
fn report_load(load: &str, pass: &ServePass) -> Result<(f64, f64), String> {
    let total_rate = pass.units as f64 / pass.wall_s;
    let p50_ms = if load == "frame_fanout" {
        info(
            "frames_per_s",
            pass.rate,
            "1/s",
            &format!(" (median of 1-s slices; overall {total_rate:.1})"),
        );
        report_wait("frame_fresh", "ms", &pass.wait_ms, "frame_fresh_p99_ms")?
    } else {
        info(
            "requests_per_s",
            pass.rate,
            "1/s",
            &format!(" (median of 1-s slices; overall {total_rate:.1})"),
        );
        let us: Vec<f64> = pass.wait_ms.iter().map(|ms| ms * 1e3).collect();
        report_wait("forecast", "us", &us, "forecast_p99_us")? / 1e3
    };
    if let (Some(e), Some((h, m, x))) = (pass.evals_per_frame(), pass.tally.shares()) {
        println!(
            "load: {} frames, {} forwards ({e:.3} per frame), answers hit/memo/miss {h:.3}/{m:.3}/{x:.3}",
            pass.frames, pass.stats.evals
        );
    }
    Ok((pass.rate, p50_ms))
}

fn run_serving(ctx: &Ctx, load: &str, out: &mut Outcome) -> Result<Metrics, String> {
    let root = ctx.run_dir.sub("registry");
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut kept = None;
    for rep in 0..SERVE_SETUPS {
        let (s, secs) = setup::setup_serving(&ctx.seeds, &root)?;
        setup_s.push(secs);
        generate_ms.push(s.generate_s * 1e3);
        if rep + 1 < SERVE_SETUPS {
            s.deployment.shutdown();
        } else {
            kept = Some(s);
        }
    }
    let mut s = kept.expect("at least one set-up");
    let (n, f) = (s.frames.sensors(), s.frames.features());
    let mut oracle = Oracle::new(n, f);
    let seed_model = oracle.add_model(&s.model);
    oracle.map_version(s.deployment.version, seed_model);
    oracle.add_window(&s.deployment.window);
    let pairs = setup::shuffled_pairs(n, ctx.seeds.mix);
    info(
        "setup_s",
        median(&setup_s),
        "s",
        &format!(" (median of {SERVE_SETUPS})"),
    );

    let (pass, _) = run_pass(load, &mut s, &pairs, &mut oracle, ctx.seconds, out)?;
    let (rate, p50_ms) = report_load(load, &pass)?;
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("throughput_per_s", rate, "1/s");
    metrics.put("latency_p50_ms", p50_ms, "ms");
    if !ctx.trace {
        s.deployment.shutdown();
        return Ok(metrics);
    }

    // Traced run: the same load again, then one phase per probe.
    println!("traced load:");
    begin_phase();
    let (traced, load_phase) = run_pass(load, &mut s, &pairs, &mut oracle, ctx.seconds, out)?;
    let load_phase = load_phase.expect("recording was on");
    report_load(load, &traced)?;

    begin_phase();
    let script = serve_loads::serve_script(
        &mut s.deployment,
        &s.frames,
        &pairs,
        &mut oracle,
        SCRIPT_ROUNDS,
        out,
    )?;
    let swap_ms = probe_swap(&mut s.deployment, &s.model, seed_model, &mut oracle, out)?;
    end_phase();
    serve_loads::verify_samples(&script.samples, &mut oracle, out);
    s.deployment.shutdown();

    let spare = setup::build_model(n, ctx.seeds.model);
    begin_phase();
    let micro = layers::micro(
        &s.model,
        &spare,
        &s.frames,
        &pairs,
        &ctx.run_dir.sub("probe"),
    )?;
    end_phase();

    begin_phase();
    let train = train_rollout::train_and_predict(&s.dataset, &ctx.seeds, out)?;
    let evaluate_ms = time_evaluate(&s.dataset, &train, &ctx.seeds)?;
    end_phase();

    let core =
        layers::core_shares(&load_phase, "forward").ok_or("the traced load ran no forward")?;
    let rows = load_phase.counter("infer.rows") as f64;
    let layer = LayerInputs {
        load: Some(&traced),
        script: &script,
        swap_ms,
        micro: &micro,
        core: &core,
        decoder_gflops: layers::decoder_flops_per_window(&s.model, n) * rows
            / (core.decoder_ms * 1e-3)
            / 1e9,
        train: &train,
        evaluate_ms,
        generate_ms: median(&generate_ms),
        overhead: rate / traced.rate - 1.0,
    };
    layer_metrics(&layer, &mut metrics)?;
    Ok(metrics)
}

/// One timed pass of a serving load, its kept answers verified after the
/// clock stops. With recording on, the pass's spans are snapshot before
/// verification, so the oracle's own forwards stay out of them.
fn run_pass(
    load: &str,
    s: &mut setup::ServingSetup,
    pairs: &[(u32, u32)],
    oracle: &mut Oracle,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(ServePass, Option<Phase>), String> {
    let recording = stwa_observe::enabled();
    let dep = &mut s.deployment;
    let pass = match load {
        "frame_fanout" => serve_loads::frame_fanout(dep, &s.frames, pairs, oracle, seconds, out)?,
        _ => serve_loads::hot_read(dep, &s.frames, pairs, oracle, seconds, out)?,
    };
    let phase = recording.then(end_phase);
    serve_loads::verify_samples(&pass.samples, oracle, out);
    Ok((pass, phase))
}

/// Publish the served weights as a new version and hot-swap to it;
/// returns the server's own `swap_ms`.
fn probe_swap(
    dep: &mut Deployment,
    model: &stwa_core::StwaModel,
    model_id: usize,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> Result<f64, String> {
    let checkpoint = stwa_ckpt::TrainCheckpoint::params_only(setup::MODEL_NAME, model.store());
    let version = dep
        .registry
        .publish(setup::MODEL_NAME, &checkpoint)
        .map_err(|e| format!("publish: {e}"))? as u64;
    oracle.map_version(version, model_id);
    let resp = dep
        .control
        .post("/admin/swap", b"")
        .map_err(|e| format!("swap: {e}"))?;
    out.check(resp.status == 200, || {
        format!("swap answered {}", resp.status)
    });
    let served = dep.server.version();
    out.check(served == version, || {
        format!("server serves version {served} after swapping to {version}")
    });
    dep.version = version;
    Ok(dep.stats()?.swap_ms)
}

/// `Trainer::evaluate` on the validation split, timed from outside.
fn time_evaluate(
    dataset: &TrafficDataset,
    train: &TrainPass,
    seeds: &Seeds,
) -> Result<f64, String> {
    let trainer = train_rollout::trainer(seeds);
    let val = dataset
        .val(HISTORY, HORIZON, trainer.config.eval_stride)
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seeds.train);
    let t0 = Instant::now();
    trainer
        .evaluate(&train.model, &val, &dataset.scaler(), &mut rng)
        .map_err(|e| format!("evaluate: {e}"))?;
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------------
// train_rollout
// ---------------------------------------------------------------------------

struct RolloutPass {
    train: TrainPass,
    rollout_p50_ms: f64,
    rollouts: train_rollout::Rollouts,
    deployment: Deployment,
    /// With recording on: `Trainer::evaluate` time and the rollouts' spans.
    traced: Option<(f64, Phase)>,
}

/// Train, predict, start a server on the untrained weights and roll the
/// trained ones out until `until`.
fn rollout_pass(
    ctx: &Ctx,
    dataset: &TrafficDataset,
    frames: &Frames,
    oracle: &mut Oracle,
    until: Instant,
    out: &mut Outcome,
) -> Result<RolloutPass, String> {
    let recording = stwa_observe::enabled();
    let train = train_rollout::train_and_predict(dataset, &ctx.seeds, out)?;
    let evaluate_ms = if recording {
        Some(time_evaluate(dataset, &train, &ctx.seeds)?)
    } else {
        None
    };
    let mut dep = train_rollout::rollout_server(&ctx.run_dir.sub("registry"), frames, &ctx.seeds)?;
    oracle.add_window(&dep.window);
    let trained_id = oracle.add_model(&train.model);
    let before = dep.stats()?;
    if recording {
        begin_phase();
    }
    let rollouts = train_rollout::rollouts(&mut dep, &train.model, trained_id, oracle, until, out)?;
    let traced = evaluate_ms.map(|ms| (ms, end_phase()));
    let delta = dep.stats()?.since(&before);
    out.check(delta.dropped() == 0.0, || {
        format!("{} requests dropped", delta.dropped())
    });
    out.check(delta.swap_errors == 0.0, || {
        format!("{} swap errors", delta.swap_errors)
    });
    serve_loads::verify_samples(&rollouts.samples, oracle, out);

    let rollout_p50_ms = report_wait("rollout", "ms", &rollouts.rollout_ms, "rollout_p99_ms")?;
    info(
        "train_samples_per_s",
        train.samples_per_s,
        "1/s",
        &format!(
            " ({} windows x {} epoch in {:.3} s, {SHARDS} shards)",
            train.train_windows,
            train_rollout::EPOCHS,
            train.train_s
        ),
    );
    info("test_mae", train.report.test.mae as f64, "flow", "");
    info("offline_rows_per_s", train.predict_rows_per_s, "1/s", "");
    info(
        "train_peak_mib",
        train.report.peak_bytes as f64 / MIB,
        "MiB",
        "",
    );
    Ok(RolloutPass {
        train,
        rollout_p50_ms,
        rollouts,
        deployment: dep,
        traced,
    })
}

fn run_train_rollout(ctx: &Ctx, out: &mut Outcome) -> Result<Metrics, String> {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut kept = None;
    for _ in 0..TRAIN_SETUPS {
        let t0 = Instant::now();
        let dataset = generate_dataset(&ctx.seeds);
        generate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let model = setup::build_model(dataset.num_sensors(), ctx.seeds.model);
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((dataset, model));
    }
    let (dataset, _) = kept.expect("at least one set-up");
    info(
        "setup_s",
        median(&setup_s),
        "s",
        &format!(" (median of {TRAIN_SETUPS})"),
    );
    let frames = Frames::new(&dataset, ctx.seeds.mix);
    let mut oracle = Oracle::new(frames.sensors(), frames.features());

    let until = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let pass = rollout_pass(ctx, &dataset, &frames, &mut oracle, until, out)?;
    pass.deployment.shutdown();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("throughput_per_s", pass.train.samples_per_s, "1/s");
    metrics.put("latency_p50_ms", pass.rollout_p50_ms, "ms");
    if !ctx.trace {
        return Ok(metrics);
    }

    // Traced run: train and roll out again with recording on. The same
    // seed and shard count must give the same test MAE, bit for bit.
    println!("traced pass:");
    begin_phase();
    let until = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut traced = rollout_pass(ctx, &dataset, &frames, &mut oracle, until, out)?;
    let (mae0, mae1) = (pass.train.report.test.mae, traced.train.report.test.mae);
    out.check(mae0.to_bits() == mae1.to_bits(), || {
        format!("test MAE did not repeat bitwise: {mae0} then {mae1}")
    });
    let (evaluate_ms, rollout_phase) = traced.traced.take().expect("recording was on");
    let pairs = setup::shuffled_pairs(frames.sensors(), ctx.seeds.mix);

    begin_phase();
    let script = serve_loads::serve_script(
        &mut traced.deployment,
        &frames,
        &pairs,
        &mut oracle,
        SCRIPT_ROUNDS,
        out,
    )?;
    end_phase();
    serve_loads::verify_samples(&script.samples, &mut oracle, out);
    traced.deployment.shutdown();

    let spare = setup::build_model(frames.sensors(), ctx.seeds.model);
    begin_phase();
    let micro = layers::micro(
        &traced.train.model,
        &spare,
        &frames,
        &pairs,
        &ctx.run_dir.sub("probe"),
    )?;
    end_phase();

    // The graph executor trains; the rollout checks run the frozen one,
    // which alone records window-attention, gate and fusion spans.
    let train = &traced.train;
    let train_phase = train.phase.as_ref().expect("recording was on");
    let graph =
        layers::core_shares(train_phase, "shard_step/forward").ok_or("training ran no forward")?;
    let frozen =
        layers::core_shares(&rollout_phase, "forward").ok_or("the rollouts ran no forward")?;
    let core = CoreShares {
        wa_attn: frozen.wa_attn,
        wa_gate: frozen.wa_gate,
        wa_fusion: frozen.wa_fusion,
        ..graph
    };
    let windows = (train.train_windows * train_rollout::EPOCHS) as f64;
    let layer = LayerInputs {
        load: None,
        script: &script,
        swap_ms: median(&traced.rollouts.swap_ms),
        micro: &micro,
        core: &core,
        decoder_gflops: layers::decoder_flops_per_window(&train.model, frames.sensors()) * windows
            / (core.decoder_ms * 1e-3)
            / 1e9,
        train,
        evaluate_ms,
        generate_ms: median(&generate_ms),
        overhead: pass.train.samples_per_s / train.samples_per_s - 1.0,
    };
    layer_metrics(&layer, &mut metrics)?;
    Ok(metrics)
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

const MIB: f64 = (1u64 << 20) as f64;

struct LayerInputs<'a> {
    /// The workload's own traced serving load, if it has one.
    load: Option<&'a ServePass>,
    /// The fixed serve script: the source for serve paths the load lacks.
    script: &'a ServePass,
    swap_ms: f64,
    micro: &'a Micro,
    core: &'a CoreShares,
    decoder_gflops: f64,
    /// A traced training pass (its `phase` holds the epoch's spans).
    train: &'a TrainPass,
    evaluate_ms: f64,
    generate_ms: f64,
    /// Headline time per unit, traced over untraced, minus one.
    overhead: f64,
}

/// The pass to read a serve path from: the workload's own load when it
/// exercised that path, else the serve script.
fn source<'a>(l: &LayerInputs<'a>, has: impl Fn(&ServePass) -> bool) -> &'a ServePass {
    l.load.filter(|p| has(p)).unwrap_or(l.script)
}

fn p50(values: &[f64], what: &str) -> Result<f64, String> {
    let mut v = values.to_vec();
    Summary::of(&mut v)
        .map(|s| s.p50)
        .ok_or_else(|| format!("no {what} samples"))
}

fn layer_metrics(l: &LayerInputs, m: &mut Metrics) -> Result<(), String> {
    let framed = source(l, |p| p.frames > 0);
    m.put(
        "serve.evals_per_frame",
        framed.evals_per_frame().ok_or("no frame observed")?,
        "ratio",
    );
    let answered = source(l, |p| p.tally.total() > 0);
    let (hit, memo, miss) = answered.tally.shares().ok_or("no answer tallied")?;
    m.put("serve.answer_hit_share", hit, "share");
    m.put("serve.answer_memo_share", memo, "share");
    m.put("serve.answer_miss_share", miss, "share");
    let hit_us = p50(&source(l, |p| !p.hit_us.is_empty()).hit_us, "hit")?;
    let model_us = p50(
        &source(l, |p| !p.model_us.is_empty()).model_us,
        "model answer",
    )?;
    let ack_us = p50(&source(l, |p| !p.ack_us.is_empty()).ack_us, "observe ack")?;
    m.put("serve.hit_p50_us", hit_us, "us");
    m.put("serve.model_answer_p50_us", model_us, "us");
    m.put(
        "serve.dispatch_overhead_us",
        model_us - l.micro.forward_b1_us,
        "us",
    );
    m.put("serve.observe_ack_p50_us", ack_us, "us");
    m.put("serve.http_parse_ns", l.micro.http_parse_ns, "ns");
    m.put("serve.forecast_body_ns", l.micro.forecast_body_ns, "ns");
    m.put("serve.parse_observe_us", l.micro.parse_observe_us, "us");
    m.put("serve.cache_get_ns", l.micro.cache_get_ns, "ns");
    m.put("serve.swap_ms", l.swap_ms, "ms");
    m.put("infer.forward_b1_us", l.micro.forward_b1_us, "us");
    m.put("infer.freeze_ms", l.micro.freeze_ms, "ms");
    m.put("ckpt.publish_ms", l.micro.publish_ms, "ms");

    let c = l.core;
    m.put("core.latent_share", c.latent, "share");
    m.put("core.decoder_share", c.decoder, "share");
    m.put("core.wa_attn_share", c.wa_attn, "share");
    m.put("core.wa_gate_share", c.wa_gate, "share");
    m.put("core.wa_fusion_share", c.wa_fusion, "share");
    m.put("core.sensor_attention_share", c.sensor_attention, "share");
    m.put("core.predictor_share", c.predictor, "share");

    let report = &l.train.report;
    let epochs = &report.manifest.epochs;
    let epoch_s = epochs.iter().map(|e| e.wall_seconds).sum::<f64>() / epochs.len().max(1) as f64;
    let train_phase = l.train.phase.as_ref().ok_or("training was not traced")?;
    let shares = layers::epoch_shares(train_phase, SHARDS).ok_or("no traced epoch")?;
    m.put("core.epoch_s", epoch_s, "s");
    m.put("core.evaluate_ms", l.evaluate_ms, "ms");
    m.put("core.shard_step_share", shares.shard_step, "share");
    m.put("autograd.backward_share", shares.backward, "share");
    m.put("nn.optimizer_share", shares.optimizer, "share");
    m.put("core.test_mae", report.test.mae as f64, "flow");
    m.put("core.train_peak_mib", report.peak_bytes as f64 / MIB, "MiB");
    m.put("core.predict_rows_per_s", l.train.predict_rows_per_s, "1/s");
    m.put("tensor.decoder_gflops", l.decoder_gflops, "GFLOP/s");
    m.put(
        "tensor.gemm_peak_gflops",
        l.micro.gemm_peak_gflops,
        "GFLOP/s",
    );
    m.put("traffic.generate_ms", l.generate_ms, "ms");
    m.put("observe.overhead_share", l.overhead, "share");
    for metric in &m.0 {
        println!("layer {} = {} {}", metric.name, metric.value, metric.unit);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this program reports are exactly the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn reported_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = stwa_observe::parse_json(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("named")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        for name in WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER) {
            assert!(stats::valid_name(name), "{name}");
        }
    }
}
