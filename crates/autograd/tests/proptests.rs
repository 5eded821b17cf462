//! Property-based verification of the autodiff engine: every public op
//! composition must match central differences on arbitrary inputs, and
//! the tape must obey basic calculus identities.

use proptest::prelude::*;
use stwa_autograd::{check_gradient, Graph, Var};
use stwa_tensor::Tensor;

fn bounded(len: usize, lo: f32, hi: f32) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(lo..hi, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chain_rule_matches_numeric(data in bounded(6, -1.0, 1.0)) {
        let x = Tensor::from_vec(data, &[6]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            v.mul_scalar(1.5).tanh().exp().mean_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn product_rule_matches_numeric(data in bounded(4, 0.2, 1.5)) {
        let x = Tensor::from_vec(data, &[4]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            // f = x * ln(x) — both factors depend on x.
            v.mul(&v.ln())?.sum_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn matmul_grad_matches_numeric(data in bounded(6, -1.0, 1.0)) {
        let x = Tensor::from_vec(data, &[2, 3]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            let w = v.graph().constant(Tensor::from_fn(&[3, 3], |i| {
                0.2 * (i[0] as f32) - 0.3 * (i[1] as f32) + 0.1
            }));
            v.matmul(&w)?.square()?.mean_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn softmax_composite_grad(data in bounded(8, -2.0, 2.0)) {
        let x = Tensor::from_vec(data, &[2, 4]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            let w = v.graph().constant(Tensor::from_fn(&[2, 4], |i| (i[1] + 1) as f32));
            v.softmax(1)?.mul(&w)?.sum_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn gradient_of_constant_branch_is_exact_value(data in bounded(3, -2.0, 2.0), c in -3.0f32..3.0) {
        // d/dx sum(c * x) = c exactly, independent of x.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data, &[3]).unwrap());
        let cv = g.constant(Tensor::full(&[3], c));
        let loss = x.mul(&cv).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let dx = g.grad(&x).unwrap();
        prop_assert!(dx.approx_eq(&Tensor::full(&[3], c), 1e-6));
    }

    #[test]
    fn backward_twice_accumulates(data in bounded(3, -2.0, 2.0)) {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data.clone(), &[3]).unwrap());
        let loss = x.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let once = g.grad(&x).unwrap();
        g.backward(&loss).unwrap();
        let twice = g.grad(&x).unwrap();
        prop_assert!(twice.approx_eq(&once.mul_scalar(2.0), 1e-5));
        // zero_grads resets the accumulation.
        g.zero_grads();
        prop_assert!(g.grad(&x).is_none());
    }

    #[test]
    fn sum_then_grad_is_ones_everywhere(shape_rows in 1usize..4, shape_cols in 1usize..4) {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[shape_rows, shape_cols]));
        let loss = x.sum_all().unwrap();
        g.backward(&loss).unwrap();
        prop_assert!(g.grad(&x).unwrap().approx_eq(&Tensor::ones(&[shape_rows, shape_cols]), 0.0));
    }

    #[test]
    fn concat_then_split_grad_is_partition(a_len in 1usize..4, b_len in 1usize..4) {
        let g = Graph::new();
        let a = g.leaf(Tensor::zeros(&[a_len]));
        let b = g.leaf(Tensor::zeros(&[b_len]));
        let joined = stwa_autograd::concat(&[&a, &b], 0).unwrap();
        let loss = joined.mul_scalar(2.0).sum_all().unwrap();
        g.backward(&loss).unwrap();
        prop_assert!(g.grad(&a).unwrap().approx_eq(&Tensor::full(&[a_len], 2.0), 0.0));
        prop_assert!(g.grad(&b).unwrap().approx_eq(&Tensor::full(&[b_len], 2.0), 0.0));
    }

    #[test]
    fn broadcast_grad_counts_uses(rows in 1usize..5, data in bounded(3, -1.0, 1.0)) {
        // x: [3] broadcast over `rows` rows; each element used `rows`
        // times, so d sum / dx = rows.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data, &[3]).unwrap());
        let big = x.broadcast_to(&[rows, 3]).unwrap();
        let loss = big.sum_all().unwrap();
        g.backward(&loss).unwrap();
        prop_assert!(g
            .grad(&x)
            .unwrap()
            .approx_eq(&Tensor::full(&[3], rows as f32), 1e-6));
    }
}

// ---- Fused VJPs against the reference chains they replaced ----
//
// The elementwise VJPs run one `zip` pass each, and the Narrow scatter
// adds straight into a live gradient buffer. The multi-tensor chains
// those kernels replaced are spelled out below on plain tensors; the
// graph's gradient must equal them bit for bit. Every loss is
// `sum(op(x) * w)` with a constant `w`, so the upstream gradient into
// the op is exactly `w` (`1.0 * w` is exact).

/// Deterministic values in [-2, 2), about one in five exactly zero, so
/// the Relu/Abs branch at zero is exercised.
fn vals(seed: u64, salt: u64, shape: &[usize]) -> Tensor {
    let mut state = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    Tensor::from_fn(shape, |_| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if (state >> 33).is_multiple_of(5) {
            0.0
        } else {
            (state >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
        }
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Gradient of `sum(op(x) * w)` with respect to `x`, through the graph.
fn graph_grad(x: &Tensor, w: &Tensor, op: impl Fn(&Var) -> Var) -> Tensor {
    let g = Graph::new();
    let xv = g.leaf(x.clone());
    let wv = g.constant(w.clone());
    let loss = op(&xv).mul(&wv).unwrap().sum_all().unwrap();
    g.backward(&loss).unwrap();
    g.grad(&xv).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_vjps_bitwise_match_reference_chains(
        rows in 1usize..5, cols in 1usize..9, seed in 0u64..1 << 32,
    ) {
        let x = vals(seed, 1, &[rows, cols]);
        let w = vals(seed, 2, &[rows, cols]);
        let sign_of = |v: f32| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        };
        // tanh' = 1 - y^2 as square / affine / mul.
        let y = x.tanh();
        let reference = w.mul(&y.square().affine(-1.0, 1.0)).unwrap();
        prop_assert_eq!(bits(&graph_grad(&x, &w, |v| v.tanh())), bits(&reference), "tanh");
        // sigmoid' = y (1 - y) as affine / mul / mul.
        let y = x.sigmoid();
        let reference = w.mul(&y.mul(&y.affine(-1.0, 1.0)).unwrap()).unwrap();
        prop_assert_eq!(bits(&graph_grad(&x, &w, |v| v.sigmoid())), bits(&reference), "sigmoid");
        // relu' as a materialized 0/1 mask.
        let reference = w.mul(&x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })).unwrap();
        prop_assert_eq!(bits(&graph_grad(&x, &w, |v| v.relu())), bits(&reference), "relu");
        // abs' as a materialized sign tensor.
        let reference = w.mul(&x.map(sign_of)).unwrap();
        prop_assert_eq!(bits(&graph_grad(&x, &w, |v| v.abs())), bits(&reference), "abs");
        // square' = 2x as mul_scalar / mul.
        let reference = w.mul(&x.mul_scalar(2.0)).unwrap();
        prop_assert_eq!(
            bits(&graph_grad(&x, &w, |v| v.square().unwrap())),
            bits(&reference),
            "square"
        );
    }

    #[test]
    fn softmax_vjp_bitwise_matches_reference_chain_on_every_axis(
        d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..6, seed in 0u64..1 << 32,
    ) {
        let shape = [d0, d1, d2];
        let x = vals(seed, 3, &shape);
        let w = vals(seed, 4, &shape);
        for axis in 0..3 {
            // dx = y * (g - sum(g * y, axis)), four tensors.
            let y = x.softmax_reference(axis).unwrap();
            let s = w.mul(&y).unwrap().sum_axis(axis, true).unwrap();
            let reference = y.mul(&w.sub(&s.broadcast_to(&shape).unwrap()).unwrap()).unwrap();
            let got = graph_grad(&x, &w, |v| v.softmax(axis).unwrap());
            prop_assert_eq!(bits(&got), bits(&reference), "axis {}", axis);
        }
    }

    #[test]
    fn narrow_vjp_into_live_buffer_bitwise_matches_zero_fill_chain(
        outer in 1usize..4, len in 2usize..8, inner in 1usize..4,
        a in 0usize..8, b in 0usize..8, seed in 0u64..1 << 32,
    ) {
        // Two overlapping windows of one input along axis 1: the second
        // VJP of the sweep lands on the gradient buffer the first made.
        let (sa, la) = (a % len, 1 + a % (len - a % len));
        let (sb, lb) = (b % len, 1 + b % (len - b % len));
        let x = vals(seed, 5, &[outer, len, inner]);
        let wa = vals(seed, 6, &[outer, la, inner]);
        let wb = vals(seed, 7, &[outer, lb, inner]);
        let g = Graph::new();
        let xv = g.leaf(x.clone());
        let left = xv.narrow(1, sa, la).unwrap().mul(&g.constant(wa.clone())).unwrap();
        let right = xv.narrow(1, sb, lb).unwrap().mul(&g.constant(wb.clone())).unwrap();
        let loss = left.sum_all().unwrap().add(&right.sum_all().unwrap()).unwrap();
        g.backward(&loss).unwrap();
        // Reference: each window scatters into a full-size zero tensor,
        // and the sweep (latest op first) sums the two whole tensors.
        let scatter = |w: &Tensor, start: usize, l: usize| {
            let mut full = Tensor::zeros(&[outer, len, inner]);
            let dst = full.data_mut();
            for o in 0..outer {
                let src = &w.data()[o * l * inner..(o + 1) * l * inner];
                let at = o * len * inner + start * inner;
                dst[at..at + l * inner].copy_from_slice(src);
            }
            full
        };
        let mut reference = scatter(&wb, sb, lb);
        reference.add_assign(&scatter(&wa, sa, la)).unwrap();
        prop_assert_eq!(bits(&g.grad(&xv).unwrap()), bits(&reference));
    }
}
