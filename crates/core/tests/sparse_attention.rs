//! Property tests for the sparse sensor-correlation attention path:
//!
//! 1. With `k = N - 1` (a complete neighbor graph) the sparse path is
//!    **bitwise identical** to the dense path — forward, backward, and
//!    through the whole model's eval hook (the frozen executor) — for
//!    random N, batch, and inputs. This is
//!    the dense-equivalence gate from the determinism contract
//!    (DESIGN.md §13): complete neighbor lists reproduce the dense
//!    kernels' fold orders exactly, so equality is `==` on bits, not a
//!    tolerance.
//! 2. On random *sparse* graphs the forward and backward stay finite
//!    and each output row is a convex mix of that row's neighborhood —
//!    including the degenerate isolated-sensor case (zero neighbors),
//!    which must yield a zero row, never a NaN softmax.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use stwa_autograd::Graph;
use stwa_core::{
    ForecastModel, SensorCorrelationAttention, SparsityMode, StwaConfig, StwaModel,
};
use stwa_nn::ParamStore;
use stwa_tensor::{SensorGraph, Tensor};

/// Random neighbor lists over `n` sensors: each ordered pair appears
/// with probability ~1/2, self-loops always included, plus `isolate`
/// sensors stripped to zero neighbors.
fn random_graph(n: usize, seed: u64, isolate: usize) -> SensorGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lists: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j == i || rng.gen_bool(0.5))
                .collect::<Vec<_>>()
        })
        .collect();
    for row in lists.iter_mut().take(isolate) {
        row.clear();
    }
    SensorGraph::from_neighbor_lists(n, &lists).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// k = N-1: sparse forward + every parameter gradient equals dense,
    /// bit for bit, on the module that owns the attention.
    #[test]
    fn complete_graph_equals_dense_bitwise(
        n in 1usize..8,
        b in 1usize..3,
        di in 0usize..3,
        seed in 0u64..1000,
    ) {
        let d = [2usize, 4, 6][di];
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sca = SensorCorrelationAttention::new(&store, "sca", d, &mut rng);
        let x = Tensor::randn(&[b, n, d], &mut rng);

        let run = |sca: &SensorCorrelationAttention| {
            let g = Graph::new();
            let h = g.constant(x.clone());
            let out = sca.forward(&g, &h).unwrap();
            let loss = out.square().unwrap().sum_all().unwrap();
            g.backward(&loss).unwrap();
            let grads: Vec<Vec<u32>> = store
                .params()
                .iter()
                .map(|p| p.grad().unwrap().data().iter().map(|v| v.to_bits()).collect())
                .collect();
            let bits: Vec<u32> = out.value().data().iter().map(|v| v.to_bits()).collect();
            (bits, grads)
        };

        let (dense_out, dense_grads) = run(&sca);
        sca.set_sparsity(SparsityMode::Sparse(Arc::new(SensorGraph::complete(n))));
        let (sparse_out, sparse_grads) = run(&sca);

        prop_assert_eq!(dense_out, sparse_out, "forward bits diverged");
        prop_assert_eq!(dense_grads, sparse_grads, "gradient bits diverged");
    }

    /// k = N-1 through the whole ST-WA model's eval hook (the frozen
    /// executor): a sparse-complete model predicts the dense model's bits.
    #[test]
    fn complete_graph_equals_dense_through_model_eval(
        n in 2usize..6,
        seed in 0u64..200,
    ) {
        let dense = StwaModel::new(
            StwaConfig::st_wa(n, 12, 3),
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let sparse = StwaModel::new(
            StwaConfig::st_wa(n, 12, 3)
                .with_sensor_graph(Arc::new(SensorGraph::complete(n))),
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let x = Tensor::randn(&[2, n, 12, 1], &mut StdRng::seed_from_u64(seed ^ 0xabcd));

        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let a = dense.evaluator().unwrap()(&x).unwrap();
        let b = sparse.evaluator().unwrap()(&x).unwrap();
        prop_assert_eq!(bits(&a), bits(&b), "model eval sparse-complete diverged from dense");
    }

    /// Random sparse graphs (possibly with isolated sensors): forward
    /// and backward are finite, isolated rows mix to zero.
    #[test]
    fn random_sparse_graphs_stay_finite(
        n in 2usize..9,
        isolate in 0usize..3,
        seed in 0u64..1000,
    ) {
        let isolate = isolate.min(n - 1);
        let graph = random_graph(n, seed, isolate);
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut sca = SensorCorrelationAttention::new(&store, "sca", 4, &mut rng);
        sca.set_sparsity(SparsityMode::Sparse(Arc::new(graph.clone())));

        let g = Graph::new();
        let h = g.constant(Tensor::randn(&[2, n, 4], &mut rng));
        let out = sca.forward(&g, &h).unwrap();
        prop_assert!(!out.value().has_non_finite(), "sparse forward produced NaN/inf");

        let loss = out.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        for p in store.params() {
            let grad = p.grad().unwrap();
            prop_assert!(!grad.has_non_finite(), "sparse backward produced NaN/inf");
        }

        // Isolated sensors (empty neighbor rows) must come out as
        // exactly zero, not NaN from an empty softmax.
        let ov = out.value();
        for i in 0..n {
            if graph.degree(i) == 0 {
                for bi in 0..2 {
                    for c in 0..4 {
                        prop_assert_eq!(ov.at(&[bi, i, c]), 0.0);
                    }
                }
            }
        }
    }
}

#[test]
fn single_isolated_sensor_trains_without_nan() {
    // The fully degenerate fixed case: one sensor, zero neighbors.
    let graph = SensorGraph::from_neighbor_lists(1, &[vec![]]).unwrap();
    let store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let mut sca = SensorCorrelationAttention::new(&store, "sca", 4, &mut rng);
    sca.set_sparsity(SparsityMode::Sparse(Arc::new(graph)));
    let g = Graph::new();
    let h = g.constant(Tensor::randn(&[1, 1, 4], &mut rng));
    let out = sca.forward(&g, &h).unwrap();
    assert_eq!(out.value().data(), &[0.0; 4]);
    let loss = out.square().unwrap().sum_all().unwrap();
    g.backward(&loss).unwrap();
    for p in store.params() {
        assert!(!p.grad().unwrap().has_non_finite());
    }
}
