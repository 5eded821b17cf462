//! Property-based tests of the tensor core: the broadcasting kernels,
//! matmul, reductions, and shape ops are checked against naive
//! reference implementations on arbitrary inputs.

use proptest::prelude::*;
use stwa_tensor::{linalg, manip, shape, Tensor};

/// Strategy: a tensor with the given shape and bounded values.
fn tensor_with(shape_: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape_.iter().product();
    proptest::collection::vec(-10.0f32..10.0, n..=n)
        .prop_map(move |data| Tensor::from_vec(data, &shape_).unwrap())
}

/// Strategy: a rank-1..3 shape with small axes.
fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..5, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn broadcast_shapes_is_commutative(a in small_shape(), b in small_shape()) {
        let ab = shape::broadcast_shapes("t", &a, &b);
        let ba = shape::broadcast_shapes("t", &b, &a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "asymmetric: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn broadcast_against_self_is_identity(s in small_shape()) {
        prop_assert_eq!(shape::broadcast_shapes("t", &s, &s).unwrap(), s);
    }

    #[test]
    fn broadcast_with_scalar_is_identity(s in small_shape()) {
        prop_assert_eq!(shape::broadcast_shapes("t", &s, &[]).unwrap(), s);
    }

    #[test]
    fn zip_matches_naive_indexing(
        rows in 1usize..5,
        cols in 1usize..5,
        seed_a in proptest::collection::vec(-5.0f32..5.0, 16),
        seed_b in proptest::collection::vec(-5.0f32..5.0, 4),
    ) {
        // [rows, cols] + [cols] via the fast suffix path must equal
        // per-element computation.
        let a = Tensor::from_vec(seed_a[..rows * cols].to_vec(), &[rows, cols]).unwrap();
        let b = Tensor::from_vec(seed_b[..cols].to_vec(), &[cols]).unwrap();
        let out = a.add(&b).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                let expect = a.at(&[r, c]) + b.at(&[c]);
                prop_assert!((out.at(&[r, c]) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn general_broadcast_matches_materialized(
        a in tensor_with(vec![3, 1, 2]),
        b in tensor_with(vec![4, 1]),
    ) {
        // General odometer path vs explicit broadcast_to + same-shape add.
        let fast = a.mul(&b).unwrap();
        let am = a.broadcast_to(&[3, 4, 2]).unwrap();
        let bm = b.broadcast_to(&[3, 4, 2]).unwrap();
        let slow = am.mul(&bm).unwrap();
        prop_assert!(fast.approx_eq(&slow, 1e-6));
    }

    #[test]
    fn matmul_matches_triple_loop(
        m in 1usize..5, k in 1usize..5, n in 1usize..5,
        a_data in proptest::collection::vec(-3.0f32..3.0, 16),
        b_data in proptest::collection::vec(-3.0f32..3.0, 16),
    ) {
        let a = Tensor::from_vec(a_data[..m * k].to_vec(), &[m, k]).unwrap();
        let b = Tensor::from_vec(b_data[..k * n].to_vec(), &[k, n]).unwrap();
        let c = linalg::matmul(&a, &b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut expect = 0.0f32;
                for p in 0..k {
                    expect += a.at(&[i, p]) * b.at(&[p, j]);
                }
                prop_assert!((c.at(&[i, j]) - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn sum_axis_equals_manual_sum(t in tensor_with(vec![3, 4, 2]), axis in 0usize..3) {
        let s = t.sum_axis(axis, true).unwrap();
        let total_direct = t.sum_all().item().unwrap();
        let total_via_axis = s.sum_all().item().unwrap();
        prop_assert!((total_direct - total_via_axis).abs() < 1e-3 * total_direct.abs().max(1.0));
    }

    #[test]
    fn mean_axis_bounded_by_extremes(t in tensor_with(vec![4, 3])) {
        let m = t.mean_axis(0, false).unwrap();
        prop_assert!(m.max_all() <= t.max_all() + 1e-5);
        prop_assert!(m.min_all() >= t.min_all() - 1e-5);
    }

    #[test]
    fn narrow_concat_roundtrip(t in tensor_with(vec![5, 3]), split in 1usize..4) {
        let head = t.narrow(0, 0, split).unwrap();
        let tail = t.narrow(0, split, 5 - split).unwrap();
        let back = manip::concat(&[&head, &tail], 0).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn permute_preserves_multiset(t in tensor_with(vec![2, 3, 4])) {
        let p = t.permute(&[2, 0, 1]).unwrap();
        let mut a: Vec<f32> = t.data().to_vec();
        let mut b: Vec<f32> = p.data().to_vec();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn index_select_agrees_with_at(t in tensor_with(vec![4, 3]), idx in proptest::collection::vec(0usize..4, 1..6)) {
        let sel = t.index_select(0, &idx).unwrap();
        for (row, &src) in idx.iter().enumerate() {
            for c in 0..3 {
                prop_assert_eq!(sel.at(&[row, c]), t.at(&[src, c]));
            }
        }
    }

    #[test]
    fn softmax_argmax_matches_input_argmax(data in proptest::collection::vec(-8.0f32..8.0, 6)) {
        let x = Tensor::from_vec(data, &[1, 6]).unwrap();
        let s = x.softmax(1).unwrap();
        prop_assert_eq!(s.argmax(), x.argmax());
    }

    #[test]
    fn pad_end_preserves_prefix(t in tensor_with(vec![2, 3]), count in 0usize..4) {
        let p = t.pad_end(1, count, -1.0).unwrap();
        prop_assert_eq!(p.shape()[1], 3 + count);
        for r in 0..2 {
            for c in 0..3 {
                prop_assert_eq!(p.at(&[r, c]), t.at(&[r, c]));
            }
            for c in 3..3 + count {
                prop_assert_eq!(p.at(&[r, c]), -1.0);
            }
        }
    }

    #[test]
    fn memory_gauge_balances(shape_ in small_shape()) {
        use stwa_tensor::memory;
        // The gauge is process-global and other test threads allocate
        // concurrently, so equality against a `before` snapshot is
        // inherently flaky. The race-free invariant: while our tensors
        // are live, the global count covers at least their bytes.
        let bytes = shape_.iter().product::<usize>() * std::mem::size_of::<f32>();
        let _a = Tensor::zeros(&shape_);
        let _b = _a.clone();
        prop_assert!(memory::current_bytes() >= 2 * bytes);
    }

    #[test]
    fn sum_axis_matches_naive_loop_per_element(t in tensor_with(vec![3, 4, 2]), axis in 0usize..3) {
        // Element-wise reference, not just the grand total: every output
        // entry is the sum over the reduced axis at its own coordinates.
        let s = t.sum_axis(axis, true).unwrap();
        let shape = t.shape().to_vec();
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    if [i, j, k][axis] != 0 {
                        continue;
                    }
                    let mut expect = 0.0f32;
                    for r in 0..shape[axis] {
                        let mut idx = [i, j, k];
                        idx[axis] = r;
                        expect += t.at(&idx);
                    }
                    let got = s.at(&[i, j, k]);
                    prop_assert!(
                        (got - expect).abs() < 1e-3,
                        "axis {axis} at [{i},{j},{k}]: {got} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_axis_is_sum_over_len(t in tensor_with(vec![2, 5, 3]), axis in 0usize..3) {
        let mean = t.mean_axis(axis, false).unwrap();
        let sum = t.sum_axis(axis, false).unwrap();
        let n = t.shape()[axis] as f32;
        for (m, s) in mean.data().iter().zip(sum.data()) {
            prop_assert!((m * n - s).abs() < 1e-3);
        }
    }

    #[test]
    fn keepdim_only_changes_shape(t in tensor_with(vec![3, 2, 4]), axis in 0usize..3) {
        let kept = t.sum_axis(axis, true).unwrap();
        let dropped = t.sum_axis(axis, false).unwrap();
        prop_assert_eq!(kept.data(), dropped.data());
        prop_assert_eq!(kept.shape()[axis], 1);
        prop_assert_eq!(kept.len(), dropped.len());
    }

    #[test]
    fn max_axis_bounds_every_slice_element(t in tensor_with(vec![2, 3, 4]), axis in 0usize..3) {
        let maxed = t.max_axis(axis, true).unwrap();
        let b = maxed.broadcast_to(t.shape()).unwrap();
        for (x, m) in t.data().iter().zip(b.data()) {
            prop_assert!(x <= m, "{x} exceeds its slice max {m}");
        }
        // The max is attained: the global max survives the reduction.
        prop_assert_eq!(t.max_all(), maxed.max_all());
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor_with(vec![2, 3, 5]), axis in 0usize..3) {
        let sm = t.softmax(axis).unwrap();
        prop_assert!(sm.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        let sums = sm.sum_axis(axis, false).unwrap();
        for &s in sums.data() {
            prop_assert!((s - 1.0).abs() < 1e-4, "softmax sums to {s}");
        }
    }

    #[test]
    fn permute_then_inverse_is_identity(t in tensor_with(vec![2, 4, 3]), choice in 0usize..6) {
        const PERMS: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let perm = PERMS[choice];
        let mut inverse = [0usize; 3];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let back = t.permute(&perm).unwrap().permute(&inverse).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn reshape_round_trips_and_preserves_order(t in tensor_with(vec![2, 3, 4])) {
        let flat = t.reshape(&[24]).unwrap();
        prop_assert_eq!(flat.data(), t.data());
        // Through a different factorization it is still lossless.
        let other = t.reshape(&[4, 6]).unwrap().reshape(&[2, 3, 4]).unwrap();
        prop_assert_eq!(other.data(), t.data());
    }

    #[test]
    fn unsqueeze_squeeze_round_trip(t in tensor_with(vec![3, 2, 2]), axis in 0usize..4) {
        let up = t.unsqueeze(axis).unwrap();
        prop_assert_eq!(up.rank(), 4);
        prop_assert_eq!(up.shape()[axis], 1);
        let down = up.squeeze(axis).unwrap();
        prop_assert_eq!(down.shape(), t.shape());
        prop_assert_eq!(down.data(), t.data());
    }

    #[test]
    fn broadcast_to_repeats_without_mixing(t in tensor_with(vec![1, 3, 1]), reps in 2usize..5) {
        let b = t.broadcast_to(&[reps, 3, 2]).unwrap();
        for r in 0..reps {
            for j in 0..3 {
                for c in 0..2 {
                    prop_assert_eq!(b.at(&[r, j, c]), t.at(&[0, j, 0]));
                }
            }
        }
        // Summing the broadcast axes recovers the original scaled by the
        // repeat count.
        let collapsed = b.sum_axis(2, false).unwrap().sum_axis(0, false).unwrap();
        for (got, orig) in collapsed.data().iter().zip(t.data()) {
            prop_assert!((got - orig * (reps * 2) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_last2_matches_swap_axes(t in tensor_with(vec![2, 3, 4])) {
        let a = t.transpose_last2().unwrap();
        let b = t.swap_axes(1, 2).unwrap();
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn index_select_identity_and_double_reverse(t in tensor_with(vec![2, 3, 3]), axis in 0usize..3) {
        let all: Vec<usize> = (0..t.shape()[axis]).collect();
        let same = t.index_select(axis, &all).unwrap();
        prop_assert_eq!(same.data(), t.data());
        let rev: Vec<usize> = all.iter().rev().copied().collect();
        let back = t
            .index_select(axis, &rev).unwrap()
            .index_select(axis, &rev).unwrap();
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn stack_then_narrow_recovers_parts(t in tensor_with(vec![2, 3, 2]), u in tensor_with(vec![2, 3, 2])) {
        let s = manip::stack(&[&t, &u], 0).unwrap();
        prop_assert_eq!(s.shape(), &[2, 2, 3, 2]);
        let t_back = s.narrow(0, 0, 1).unwrap().squeeze(0).unwrap();
        let u_back = s.narrow(0, 1, 1).unwrap().squeeze(0).unwrap();
        prop_assert_eq!(t_back.data(), t.data());
        prop_assert_eq!(u_back.data(), u.data());
    }
}

// ---------------------------------------------------------------------
// Matmul kernel equivalence: the production paths (blocked/packed, row
// or batch split, fused NT/TN orientations) must be *bitwise* equal to
// the retained naive i-k-j reference — not merely close. This is the
// property the golden-run regression and the cross-thread determinism
// guarantee both stand on.
// ---------------------------------------------------------------------

/// Deterministic pseudo-random fill derived from indices and a seed:
/// mixed-sign values with enough variety to surface ordering bugs.
fn fill(seed: u64, salt: usize) -> impl Fn(&[usize]) -> f32 {
    move |idx| {
        let mut h = seed ^ (salt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &i in idx {
            h = (h ^ i as u64).wrapping_mul(0x100_0000_01b3);
        }
        ((h % 41) as f32 - 20.0) * 0.173
    }
}

/// Axis sizes that straddle the kernel's tile edges (`MR = 4`,
/// `NR = 16`, `KC = 256`) and the blocked-path FLOP gate.
fn edge_dim() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..40).prop_map(|(band, off)| match band {
        0 => 1 + off % 5,     // tiny: below every tile size
        1 => 14 + off % 5,    // straddles NR = 16
        2 => 30 + off,        // several MR/NR tiles with ragged tails
        _ => 250 + off % 15,  // straddles KC = 256
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_bitwise_matches_reference(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[m, k], fill(seed, 1));
        let b = Tensor::from_fn(&[k, n], fill(seed, 2));
        let fast = linalg::matmul(&a, &b).unwrap();
        let slow = linalg::matmul_reference(&a, &b).unwrap();
        prop_assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn matmul_nt_bitwise_matches_explicit_transpose(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[m, k], fill(seed, 3));
        let b = Tensor::from_fn(&[n, k], fill(seed, 4));
        let fused = linalg::matmul_nt(&a, &b).unwrap();
        let explicit = linalg::matmul(&a, &b.transpose_last2().unwrap()).unwrap();
        prop_assert_eq!(fused.shape(), explicit.shape());
        prop_assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn matmul_tn_bitwise_matches_explicit_transpose(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[k, m], fill(seed, 5));
        let b = Tensor::from_fn(&[k, n], fill(seed, 6));
        let fused = linalg::matmul_tn(&a, &b).unwrap();
        let explicit = linalg::matmul(&a.transpose_last2().unwrap(), &b).unwrap();
        prop_assert_eq!(fused.shape(), explicit.shape());
        prop_assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn batched_broadcast_matmul_bitwise_matches_reference(
        b1 in 1usize..4, b2 in 1usize..4,
        m in 1usize..20, k in 1usize..40, n in 1usize..20,
        lhs_broadcasts in 0usize..2,
        seed in 0u64..1 << 32,
    ) {
        // One side carries a broadcast batch axis of length 1; the other
        // provides the full [b1, b2] leading shape.
        let (a_lead, b_lead) = if lhs_broadcasts == 1 {
            (vec![1, b2], vec![b1, b2])
        } else {
            (vec![b1, b2], vec![b2])
        };
        let a_shape: Vec<usize> = a_lead.iter().chain(&[m, k]).copied().collect();
        let b_shape: Vec<usize> = b_lead.iter().chain(&[k, n]).copied().collect();
        let a = Tensor::from_fn(&a_shape, fill(seed, 7));
        let b = Tensor::from_fn(&b_shape, fill(seed, 8));
        let fast = linalg::matmul(&a, &b).unwrap();
        let slow = linalg::matmul_reference(&a, &b).unwrap();
        prop_assert_eq!(fast.shape(), slow.shape());
        prop_assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn degenerate_matmul_dims_are_well_formed(
        m in 0usize..3, k in 0usize..3, n in 0usize..3, seed in 0u64..1 << 32,
    ) {
        // Zero-sized m/n/k (and their NT/TN versions) must not panic and
        // must agree with the reference: k == 0 yields all-zero [m, n].
        let a = Tensor::from_fn(&[m, k], fill(seed, 9));
        let b = Tensor::from_fn(&[k, n], fill(seed, 10));
        let fast = linalg::matmul(&a, &b).unwrap();
        let slow = linalg::matmul_reference(&a, &b).unwrap();
        prop_assert_eq!(fast.shape(), slow.shape());
        prop_assert_eq!(fast.data(), slow.data());

        let bt = Tensor::from_fn(&[n, k], fill(seed, 11));
        let nt = linalg::matmul_nt(&a, &bt).unwrap();
        prop_assert_eq!(nt.shape(), &[m, n]);
        let at = Tensor::from_fn(&[k, m], fill(seed, 12));
        let tn = linalg::matmul_tn(&at, &b).unwrap();
        prop_assert_eq!(tn.shape(), &[m, n]);
    }
}

// ---------------------------------------------------------------------
// Fused elementwise/softmax kernels: every fused path must be *bitwise*
// equal to its reference, written out here or kept as a named
// `*_reference` kernel.
// ---------------------------------------------------------------------

/// The permute reference: each output element read on its own through
/// `Tensor::at`, with output axis `a` taken from input axis `perm[a]`.
fn permute_element_walk(x: &Tensor, perm: &[usize]) -> Vec<f32> {
    let out_shape: Vec<usize> = perm.iter().map(|&p| x.shape()[p]).collect();
    let mut at = vec![0usize; perm.len()];
    let out = Tensor::from_fn(&out_shape, |o| {
        for (a, &p) in perm.iter().enumerate() {
            at[p] = o[a];
        }
        x.at(&at)
    });
    out.data().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn softmax_lastdim_bitwise_matches_reference(
        rows in 1usize..6, cols in 1usize..9, seed in 0u64..1 << 32,
    ) {
        let x = Tensor::from_fn(&[rows, cols], fill(seed, 13));
        let fused = x.softmax_lastdim().unwrap();
        let reference = x.softmax_reference(1).unwrap();
        prop_assert_eq!(fused.data(), reference.data());
    }

    #[test]
    fn softmax_vjp_lastdim_bitwise_matches_reference_chain(
        rows in 1usize..6, cols in 1usize..9, seed in 0u64..1 << 32,
    ) {
        let x = Tensor::from_fn(&[rows, cols], fill(seed, 14));
        let g = Tensor::from_fn(&[rows, cols], fill(seed, 15));
        let y = x.softmax_reference(1).unwrap();
        let fused = y.softmax_vjp_lastdim(&g).unwrap();
        // Reference chain: y * (g - sum_j g_j y_j), ascending j.
        let s = g.mul(&y).unwrap().sum_axis(1, true).unwrap();
        let reference = y.mul(&g.sub(&s).unwrap()).unwrap();
        prop_assert_eq!(fused.data(), reference.data());
    }

    #[test]
    fn map_and_zip_inplace_bitwise_match_out_of_place(
        n in 1usize..40, seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[n], fill(seed, 16));
        let b = Tensor::from_fn(&[n], fill(seed, 17));

        let mut inplace = a.clone();
        inplace.map_inplace(|v| v * 2.0 + 1.0);
        prop_assert_eq!(inplace.data(), a.affine(2.0, 1.0).data());

        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        prop_assert_eq!(acc.data(), a.add(&b).unwrap().data());
    }

    #[test]
    fn permute_block_path_bitwise_matches_element_walk(
        d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..5, d3 in 1usize..4,
        seed in 0u64..1 << 32,
    ) {
        // Permutations that keep one or two trailing axes in place take
        // the block-copy path; the others cover the element walk.
        let x = Tensor::from_fn(&[d0, d1, d2, d3], fill(seed, 18));
        for perm in [[1, 0, 2, 3], [2, 0, 1, 3], [0, 2, 1, 3], [3, 1, 0, 2], [0, 1, 3, 2]] {
            let got = x.permute(&perm).unwrap();
            prop_assert_eq!(got.data(), &permute_element_walk(&x, &perm)[..], "perm {:?}", perm);
        }
    }
}

// ---------------------------------------------------------------------
// Quantized serving panels (quant module): per-element round-trip
// error bounds, bf16 conversion monotonicity, and the determinism
// contract — dispatched SIMD GEMMs bitwise equal to their scalar
// references across shapes *and thread counts*.
// ---------------------------------------------------------------------

use stwa_tensor::quant::{self, PackedMatrixBf16, PackedMatrixInt8};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn int8_round_trip_error_is_within_half_scale_per_element(
        k in 1usize..40, n in 1usize..40, seed in 0u64..1 << 32,
    ) {
        let w = Tensor::from_fn(&[k, n], fill(seed, 20));
        let q = PackedMatrixInt8::pack(&w).unwrap();
        let deq = q.dequantize().unwrap();
        for j in 0..n {
            let s = q.scales()[j];
            prop_assert!(s > 0.0);
            for p in 0..k {
                let err = (w.at(&[p, j]) - deq.at(&[p, j])).abs();
                prop_assert!(
                    err <= 0.5 * s + 1e-12,
                    "col {j} row {p}: err {err} vs scale {s}"
                );
            }
        }
    }

    #[test]
    fn int8_row_quantization_error_is_within_half_scale(
        rows in 1usize..6, k in 1usize..50, seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[rows, k], fill(seed, 21));
        let mut qa = Vec::new();
        let mut scales = Vec::new();
        quant::quantize_rows(a.data(), rows, k, &mut qa, &mut scales);
        for r in 0..rows {
            let s = scales[r];
            for p in 0..k {
                let err = (a.at(&[r, p]) - qa[r * k + p] as f32 * s).abs();
                prop_assert!(err <= 0.5 * s + 1e-12, "row {r} col {p}: err {err} vs {s}");
            }
        }
    }

    #[test]
    fn bf16_conversion_is_monotone_and_tight(
        a in -1e30f32..1e30, b in -1e30f32..1e30,
    ) {
        // Round-to-nearest never swaps an order...
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let wlo = quant::bf16_to_f32(quant::bf16_from_f32(lo));
        let whi = quant::bf16_to_f32(quant::bf16_from_f32(hi));
        prop_assert!(wlo <= whi, "{lo} -> {wlo} vs {hi} -> {whi}");
        // ...and lands within half a ulp (2^-9 relative for normal
        // bf16 values; 2^-8 is a safely loose bound).
        for x in [a, b] {
            let w = quant::bf16_to_f32(quant::bf16_from_f32(x));
            // (+1e-37 absorbs the subnormal range, where relative
            // precision legitimately degrades.)
            prop_assert!(
                (x - w).abs() <= x.abs() * (1.0 / 256.0) + 1e-37,
                "{x} widened to {w}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quantized_gemms_bitwise_match_scalar_reference_across_threads(
        m in edge_dim(), k in edge_dim(), n in edge_dim(),
        threads in 1usize..4, seed in 0u64..1 << 32,
    ) {
        // The pool thread count is process-global; this is the only
        // test in the file that sets it.
        // Restore the configured thread count even if an assert below
        // panics, so one failing case can't skew every later test.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                stwa_pool::set_threads(self.0);
            }
        }
        let _restore = Restore(stwa_pool::current_threads());
        stwa_pool::set_threads(threads);
        let a = Tensor::from_fn(&[m, k], fill(seed, 22));
        let w = Tensor::from_fn(&[k, n], fill(seed, 23));
        let bf = PackedMatrixBf16::pack(&w).unwrap();
        let lean = quant::matmul_packed_bf16_lean(&a, &bf).unwrap();
        let refr = quant::matmul_packed_bf16_reference(&a, &bf).unwrap();
        prop_assert_eq!(lean.data(), refr.data(), "bf16 {}x{}x{} t{}", m, k, n, threads);
        let q = PackedMatrixInt8::pack(&w).unwrap();
        let lean = quant::matmul_packed_int8_lean(&a, &q).unwrap();
        let refr = quant::matmul_packed_int8_reference(&a, &q).unwrap();
        prop_assert_eq!(lean.data(), refr.data(), "int8 {}x{}x{} t{}", m, k, n, threads);
        // The dispatched entry shadows the AVX2 `vpmaddubsw` tile on
        // VNNI hosts; force it so its bitwise contract is proptested
        // everywhere AVX2 exists.
        if let Some(avx2) = quant::matmul_packed_int8_avx2(&a, &q) {
            let avx2 = avx2.unwrap();
            prop_assert_eq!(
                avx2.data(), refr.data(),
                "int8 avx2 {}x{}x{} t{}", m, k, n, threads
            );
        }
    }
}
