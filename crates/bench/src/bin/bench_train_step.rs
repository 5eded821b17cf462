//! End-to-end train-step harness: times one full ST-WA optimization
//! step (forward, Huber loss, backward, Adam) on synthetic PEMS-shaped
//! batches, with the buffer pool and fused kernels the trainer runs.
//!
//! The report (`BENCH_train_step.json`) records per-step wall-clock,
//! heap allocations per step, the pool hit rate and peak live bytes.
//! `--check PATH` gates the two allocator figures against a checked-in
//! baseline: `pool_hit_rate` may not fall, and `allocs_per_step` may
//! not rise, by more than 15%. Both are counts, not timings, so the
//! gate is deterministic and portable across hosts. Training speed is
//! watched end to end by the lifecycle benchmark's `train_rollout`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_nn::loss::huber;
use stwa_nn::optim::{Adam, Optimizer};
use stwa_tensor::{memory, Tensor};

/// Allowed relative drift of a baseline figure before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Synthetic PEMS-shaped problem: sensors x history x horizon sized so
/// a measured step takes tens of milliseconds, long enough to dominate
/// timer noise while keeping `just verify` fast.
const SENSORS: usize = 32;
const HISTORY: usize = 12;
const HORIZON: usize = 3;
const BATCH: usize = 8;

const WARMUP_STEPS: usize = 5;
/// Measurement runs in chunks; the reported per-step time is the
/// fastest chunk's. OS jitter and cgroup throttling are strictly
/// additive on wall-clock, so the minimum is the steady-state estimate.
const CHUNKS: usize = 5;
const STEPS_PER_CHUNK: usize = 8;
const MEASURED_STEPS: usize = CHUNKS * STEPS_PER_CHUNK;

struct Report {
    ms_per_step: f64,
    allocs_per_step: f64,
    hit_rate: f64,
    peak_bytes: usize,
}

/// One optimization step: fresh tape, forward, raw-scale Huber (+KL
/// when the model is stochastic), backward, Adam — the body of
/// `Trainer::train_step` on synthetic data.
fn train_step(model: &StwaModel, opt: &mut Adam, bx: &Tensor, by: &Tensor, rng: &mut StdRng) {
    let graph = Graph::new();
    let x = graph.constant(bx.clone());
    let out = model.forward(&graph, &x, rng, true).expect("forward");
    let target = graph.constant(by.clone());
    let mut loss = huber(&out.pred, &target, 1.0).expect("huber");
    if let Some(reg) = out.regularizer {
        loss = loss.add(&reg).expect("regularizer");
    }
    graph.backward(&loss).expect("backward");
    opt.step();
    opt.finish_step();
}

fn run_suite() -> Report {
    let mut rng = StdRng::seed_from_u64(42);
    let model =
        StwaModel::new(StwaConfig::st_wa(SENSORS, HISTORY, HORIZON), &mut rng).expect("model");
    let mut opt = Adam::new(model.store(), 1e-3);
    let bx = Tensor::randn(&[BATCH, SENSORS, HISTORY, 1], &mut rng);
    let by = Tensor::randn(&[BATCH, SENSORS, HORIZON, 1], &mut rng);

    // The pool starts cold and earns its hit rate inside the warmup.
    for _ in 0..WARMUP_STEPS {
        train_step(&model, &mut opt, &bx, &by, &mut rng);
    }
    memory::reset_peak();
    let before = memory::pool_stats();
    let mut best_ms = f64::INFINITY;
    for _ in 0..CHUNKS {
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_CHUNK {
            train_step(&model, &mut opt, &bx, &by, &mut rng);
        }
        let chunk_ms = t0.elapsed().as_secs_f64() * 1e3 / STEPS_PER_CHUNK as f64;
        best_ms = best_ms.min(chunk_ms);
    }
    let after = memory::pool_stats();
    let d_hits = after.hits - before.hits;
    // Every pool miss is one heap allocation.
    let d_misses = after.misses - before.misses;
    let lookups = d_hits + d_misses;
    Report {
        ms_per_step: best_ms,
        allocs_per_step: d_misses as f64 / MEASURED_STEPS as f64,
        hit_rate: if lookups == 0 {
            0.0
        } else {
            d_hits as f64 / lookups as f64
        },
        peak_bytes: memory::peak_bytes(),
    }
}

fn render_json(r: &Report) -> String {
    format!(
        "{{\n  \"threads\": {},\n  \"shape\": \"[{BATCH},{SENSORS},{HISTORY},1] -> \
         [{BATCH},{SENSORS},{HORIZON},1]\",\n  \"measured_steps\": {MEASURED_STEPS},\n  \
         \"ms_per_step\": {:.3},\n  \"allocs_per_step\": {:.1},\n  \
         \"pool_hit_rate\": {:.4},\n  \"peak_bytes\": {}\n}}\n",
        stwa_pool::current_threads(),
        r.ms_per_step,
        r.allocs_per_step,
        r.hit_rate,
        r.peak_bytes,
    )
}

/// Pull a `"key": value` number back out of a report written by
/// [`render_json`] (one key per line — no JSON dependency needed).
fn parse_number(json: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    for line in json.lines() {
        if let Some(at) = line.find(&tag) {
            let s: String = line[at + tag.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            return s.parse().ok();
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_train_step.json".to_string();
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            "--check" => {
                check_path = Some(args.get(i + 1).expect("--check needs a path").clone());
                i += 2;
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_train_step [--out PATH | --check PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let report = run_suite();
    println!(
        "train step  {:.2} ms  heap allocs {:.0}/step  hit rate {:.1}%  peak {}",
        report.ms_per_step,
        report.allocs_per_step,
        report.hit_rate * 100.0,
        memory::format_bytes(report.peak_bytes)
    );

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let mut failed = false;
        // (key, measured, whether higher is better)
        for (key, new_val, higher_is_better) in [
            ("pool_hit_rate", report.hit_rate, true),
            ("allocs_per_step", report.allocs_per_step, false),
        ] {
            let Some(old_val) = parse_number(&baseline, key) else {
                println!("note: no baseline value for {key}, skipping");
                continue;
            };
            let (bound, ok) = if higher_is_better {
                let floor = old_val * (1.0 - REGRESSION_TOLERANCE);
                (floor, new_val >= floor)
            } else {
                let ceiling = old_val * (1.0 + REGRESSION_TOLERANCE);
                (ceiling, new_val <= ceiling)
            };
            let side = if higher_is_better { "floor" } else { "ceiling" };
            if ok {
                println!("ok {key}: {new_val:.4} vs baseline {old_val:.4} ({side} {bound:.4})");
            } else {
                eprintln!(
                    "REGRESSION {key}: {new_val:.4} is past its {side} {bound:.4} \
                     (baseline {old_val:.4} +/- {:.0}% tolerance)",
                    REGRESSION_TOLERANCE * 100.0
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("train-step check passed");
    } else {
        std::fs::write(&out_path, render_json(&report))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }
}
