# Development workflow recipes. `just verify` is the tier-1 gate every
# change must pass before merging.

# Full verification: release build, complete test suite, the lifecycle
# benchmark built and unit-tested (it is its own workspace, so the
# plain build never compiles it against the crates it imports),
# lint-clean, and no kernel-throughput regression beyond 15% of the
# checked-in baseline (normalized against the in-tree reference kernel,
# so the gate is portable across hosts of different absolute speed).
verify:
    cargo build --release
    cargo test -q
    cargo build --release --offline --manifest-path lifecycle_bench/Cargo.toml
    cargo test -q --release --offline --manifest-path lifecycle_bench/Cargo.toml
    cargo clippy --workspace --all-targets -- -D warnings
    cargo run --release -p stwa-bench --bin bench_kernels -- --check BENCH_kernels.json
    cargo run --release -p stwa-bench --bin bench_train_step -- --check BENCH_train_step.json
    cargo run --release -p stwa-bench --bin bench_infer -- --check BENCH_infer.json
    cargo run --release -p stwa-bench --bin bench_epoch -- --check BENCH_epoch.json
    cargo run --release -p stwa-bench --bin bench_ckpt -- --check BENCH_ckpt.json
    cargo run --release -p stwa-bench --bin bench_attention -- --check BENCH_attention.json
    cargo run --release -p stwa-bench --bin bench_serve -- --check BENCH_serve.json

# Fast inner-loop check.
check:
    cargo check --workspace

# Everything the workspace tests, including per-crate suites.
test:
    cargo test --workspace

# Micro-benchmarks: kernel + attention scaling criterion suites, then
# the GEMM throughput report (refreshes BENCH_kernels.json) and the
# production train step's allocator report: heap allocations per step,
# pool hit rate, ms per step (refreshes BENCH_train_step.json).
bench:
    cargo bench -p stwa-bench --bench kernels --bench attention_scaling
    cargo run --release -p stwa-bench --bin bench_kernels -- --out BENCH_kernels.json
    cargo run --release -p stwa-bench --bin bench_train_step -- --out BENCH_train_step.json

# Serving-latency benchmark: graph eval vs the tape-free inference
# engine at batch 1/8/64, plus the quantized-panel section (refreshes
# BENCH_infer.json; enforces the >=2x batch-1 frozen speedup floor,
# the >=1.3x batch-64 int8 floor, and the bf16/int8 forecast-MAE
# accuracy gates).
bench-infer:
    cargo run --release -p stwa-bench --bin bench_infer -- --out BENCH_infer.json

# Quantized serving comparison: f32 vs bf16 vs int8 frozen panels at
# batch 1/8/64 with accuracy gates and the int8 speedup floor. Same
# binary as bench-infer — the quant section runs (and gates) on every
# invocation; this alias refreshes the committed baseline.
bench-quant: bench-infer

# Epoch-throughput benchmark: sequential vs 8-shard data-parallel
# training, plus the sharded bitwise-determinism self-check (refreshes
# BENCH_epoch.json; the speedup floor adapts to the host's core count).
bench-epoch:
    cargo run --release -p stwa-bench --bin bench_epoch -- --out BENCH_epoch.json

# Checkpoint save/load throughput through the model registry, with a
# bitwise round-trip assertion (refreshes BENCH_ckpt.json).
bench-ckpt:
    cargo run --release -p stwa-bench --bin bench_ckpt -- --out BENCH_ckpt.json

# Sparse vs dense sensor-attention scaling on corridor topologies up
# to 10240 sensors, with a bitwise sparse==dense self-check and a hard
# near-linearity floor (refreshes BENCH_attention.json).
bench-attention:
    cargo run --release -p stwa-bench --bin bench_attention -- --out BENCH_attention.json

# Network-serving load benchmark: a million pipelined HTTP requests
# against the stwa-serve front-end with a registry hot swap at the
# halfway mark, then the miss-window section (pipelined observe +
# forecast pairs with a mid-run swap, one eval per window).
# Refreshes BENCH_serve.json and the stwa-observe run manifest;
# enforces zero errors, zero dropped requests, bitwise agreement with
# direct eval on every sampled response, the >=10x cached-hit p50
# floor, and exactly one model eval per observed window.
bench-serve:
    cargo run --release -p stwa-bench --bin bench_serve -- --out BENCH_serve.json

# Regenerate every paper table/figure CSV under results/.
experiments:
    ./run_experiments.sh
