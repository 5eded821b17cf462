//! The backward sweep: one VJP per recorded op.
//!
//! Two memory disciplines matter here. Gradients accumulate **in
//! place**: every contribution lands via `add_assign` (an axpy into the
//! existing buffer) and the only clone left is the unavoidable one that
//! materializes the first contribution into an empty slot. And the hot
//! elementwise VJPs are **fused**: single `zip` passes spelling the same
//! per-element expressions as the multi-tensor reference chains they
//! replace. Those chains live on as oracles in `tests/proptests.rs`
//! (`fused_vjps_bitwise_match_reference_chains`), which asserts
//! bitwise-identical gradients.

use crate::graph::{ActKind, Graph, Id, Node, Op, Var};
use std::rc::Rc;
use stwa_tensor::{linalg, Result, Tensor, TensorError};

impl Graph {
    /// Run reverse-mode differentiation from `loss` (which must hold a
    /// single element), filling each reachable gradient-requiring node's
    /// `grad`.
    ///
    /// *Leaf* gradients accumulate across calls (PyTorch-style); use
    /// [`Graph::zero_grads`] to reset them. Intermediate gradients are
    /// per-sweep scratch and are cleared at the start of each call.
    pub fn backward(&self, loss: &Var) -> Result<()> {
        if !Rc::ptr_eq(&self.inner, &loss.graph.inner) {
            return Err(TensorError::Invalid(
                "backward: loss belongs to a different graph".into(),
            ));
        }
        {
            let nodes = self.inner.borrow();
            let value = &nodes[loss.id].value;
            if value.len() != 1 {
                return Err(TensorError::Invalid(format!(
                    "backward: loss must be a single element, got shape {:?}",
                    value.shape()
                )));
            }
        }
        let _span = stwa_observe::span!("backward");
        stwa_observe::counter!("backward.calls").incr();
        let mut nodes = self.inner.borrow_mut();
        // Leaf gradients accumulate across backward calls (PyTorch-style),
        // but *intermediate* gradients are per-sweep scratch: stale values
        // from a previous backward would re-propagate and double-count.
        // The buffers themselves are retained (marked stale) so this
        // sweep's first contribution to each node lands as an in-place
        // overwrite instead of a fresh pool allocation.
        for node in nodes.iter_mut() {
            if !matches!(node.op, Op::Leaf) && node.grad.is_some() {
                node.grad_stale = true;
            }
        }
        seed(&mut nodes, loss.id);
        // Node ids are a topological order (ops only reference earlier
        // ids), so a reverse sweep visits every node after all of its
        // consumers.
        for id in (0..=loss.id).rev() {
            if !nodes[id].requires_grad || nodes[id].grad_stale {
                continue;
            }
            // Take the gradient out instead of cloning it: this node is
            // fully accumulated (all consumers have higher ids and were
            // already visited), and `propagate` only writes to lower ids.
            let Some(grad) = nodes[id].grad.take() else {
                continue;
            };
            let op = nodes[id].op.clone();
            let out_value = Rc::clone(&nodes[id].value);
            // Per-op-kind grad timing: spans aggregate by path, so e.g.
            // every matmul VJP of this sweep folds into "backward/matmul".
            let op_span = stwa_observe::scope(op.kind_name());
            propagate(&mut nodes, &op, &grad, &out_value)?;
            drop(op_span);
            nodes[id].grad = Some(grad);
        }
        Ok(())
    }
}

fn seed(nodes: &mut [Node], id: Id) {
    let shape = nodes[id].value.shape().to_vec();
    // A stale slot is logically empty, and overwriting its retained
    // buffer with 1.0 is bit-for-bit the seed tensor — no allocation.
    if reuse_stale(&mut nodes[id], &shape, |buf| buf.fill(1.0)) {
        return;
    }
    // Accumulate rather than overwrite: when the loss node is itself a
    // leaf, its gradient must keep accumulating across backward calls
    // like every other leaf (non-leaf losses were just cleared, so this
    // is equivalent to assignment for them).
    let ones = Tensor::ones(&shape);
    match &mut nodes[id].grad {
        Some(existing) => {
            existing.add_assign(&ones).expect("seed shape matches");
        }
        slot @ None => *slot = Some(ones),
    }
}

/// Try to serve a "first write" into `node`'s stale gradient buffer by
/// overwriting it in place via `write`. Returns false (after clearing
/// the slot) when there is no reusable buffer of the right shape, in
/// which case the caller materializes a fresh gradient as if the slot
/// had been `None`. Overwriting is a plain store of the incoming bits,
/// so the result is bitwise-identical to dropping the buffer and
/// inserting a new tensor.
fn reuse_stale(node: &mut Node, shape: &[usize], write: impl FnOnce(&mut [f32])) -> bool {
    if !node.grad_stale {
        return false;
    }
    node.grad_stale = false;
    if let Some(existing) = node.grad.as_mut() {
        if existing.shape() == shape {
            write(existing.data_mut());
            stwa_observe::counter!("alloc.grad_reuse").incr();
            return true;
        }
    }
    node.grad = None;
    false
}

/// Accumulate an owned gradient contribution: axpy into the existing
/// buffer, or move the tensor into an empty slot (no copy at all).
fn accumulate(nodes: &mut [Node], id: Id, grad: Tensor) -> Result<()> {
    if !nodes[id].requires_grad {
        return Ok(());
    }
    let shape = grad.shape().to_vec();
    if reuse_stale(&mut nodes[id], &shape, |buf| buf.copy_from_slice(grad.data())) {
        return Ok(());
    }
    match &mut nodes[id].grad {
        Some(existing) => existing.add_assign(&grad),
        slot @ None => {
            *slot = Some(grad);
            Ok(())
        }
    }
}

/// Accumulate a borrowed gradient contribution in place. Cloning happens
/// only when the slot is empty (the buffer has to come from somewhere —
/// and then it comes from the pool); an occupied slot takes the in-place
/// axpy, and a stale slot is overwritten in place.
fn accumulate_ref(nodes: &mut [Node], id: Id, grad: &Tensor) -> Result<()> {
    if !nodes[id].requires_grad {
        return Ok(());
    }
    let shape = grad.shape().to_vec();
    if reuse_stale(&mut nodes[id], &shape, |buf| buf.copy_from_slice(grad.data())) {
        return Ok(());
    }
    match &mut nodes[id].grad {
        Some(existing) => existing.add_assign(grad),
        slot @ None => {
            *slot = Some(grad.clone());
            Ok(())
        }
    }
}

/// Reduce `grad` down to `id`'s value shape (inverting broadcasting) and
/// accumulate it. The common case — shapes already equal — takes the
/// by-reference path with no intermediate tensor; only genuinely
/// broadcast ops pay for the summed reduction.
fn accumulate_reduced(nodes: &mut [Node], id: Id, grad: &Tensor) -> Result<()> {
    if !nodes[id].requires_grad {
        return Ok(());
    }
    let target = Rc::clone(&nodes[id].value);
    if grad.shape() == target.shape() {
        accumulate_ref(nodes, id, grad)
    } else {
        let g = reduce_to_shape(grad, target.shape())?;
        accumulate(nodes, id, g)
    }
}

/// Sum `grad` down to `shape`, inverting broadcasting: extra leading axes
/// are summed away and axes that were expanded from length 1 are summed
/// back to length 1.
fn reduce_to_shape(grad: &Tensor, shape: &[usize]) -> Result<Tensor> {
    if grad.shape() == shape {
        return Ok(grad.clone());
    }
    let mut g = grad.clone();
    while g.rank() > shape.len() {
        g = g.sum_axis(0, false)?;
    }
    for (axis, (&gs, &ts)) in g.shape().to_vec().iter().zip(shape.iter()).enumerate() {
        if ts == 1 && gs != 1 {
            g = g.sum_axis(axis, true)?;
        }
    }
    if g.shape() != shape {
        // Ranks matched but some axis disagreed without being 1: the
        // forward op would have failed, so this indicates a bug.
        return Err(TensorError::ShapeMismatch {
            op: "reduce_to_shape",
            lhs: grad.shape().to_vec(),
            rhs: shape.to_vec(),
        });
    }
    Ok(g)
}

fn value_of(nodes: &[Node], id: Id) -> Rc<Tensor> {
    Rc::clone(&nodes[id].value)
}

fn propagate(nodes: &mut [Node], op: &Op, grad: &Tensor, out: &Tensor) -> Result<()> {
    match *op {
        Op::Leaf => Ok(()),

        Op::Add(a, b) => {
            accumulate_reduced(nodes, a, grad)?;
            accumulate_reduced(nodes, b, grad)
        }

        Op::Sub(a, b) => {
            accumulate_reduced(nodes, a, grad)?;
            accumulate_reduced(nodes, b, &grad.neg())
        }

        Op::Mul(a, b) => {
            let av = value_of(nodes, a);
            let bv = value_of(nodes, b);
            accumulate_reduced(nodes, a, &grad.mul(&bv)?)?;
            accumulate_reduced(nodes, b, &grad.mul(&av)?)
        }

        Op::Div(a, b) => {
            let av = value_of(nodes, a);
            let bv = value_of(nodes, b);
            // d(a/b)/da = 1/b ; d(a/b)/db = -a/b^2
            accumulate_reduced(nodes, a, &grad.div(&bv)?)?;
            let b2 = bv.square();
            let gb_full = grad.mul(&av)?.div(&b2)?.neg();
            accumulate_reduced(nodes, b, &gb_full)
        }

        Op::Neg(x) => accumulate(nodes, x, grad.neg()),

        // exp'(x) = exp(x) = out
        Op::Exp(x) => accumulate(nodes, x, grad.mul(out)?),

        // ln'(x) = 1/x
        Op::Ln(x) => {
            let xv = value_of(nodes, x);
            accumulate(nodes, x, grad.div(&xv)?)
        }

        // sqrt'(x) = 1 / (2 sqrt(x)) = 1 / (2 out)
        Op::Sqrt(x) => {
            let gx = grad.div(&out.mul_scalar(2.0))?;
            accumulate(nodes, x, gx)
        }

        // tanh'(x) = 1 - out^2. Fused: one zip spelling the reference's
        // exact expression g * ((y*y)*(-1) + 1), replacing the
        // square/affine/mul three-tensor chain.
        Op::Tanh(x) => {
            let gx = grad.zip(out, "tanh_vjp", |g, y| g * (-(y * y) + 1.0))?;
            accumulate(nodes, x, gx)
        }

        // sigmoid'(x) = out (1 - out)
        Op::Sigmoid(x) => {
            let gx = grad.zip(out, "sigmoid_vjp", |g, y| g * (y * (-y + 1.0)))?;
            accumulate(nodes, x, gx)
        }

        Op::Relu(x) => {
            let xv = value_of(nodes, x);
            let gx = grad.zip(&xv, "relu_vjp", |g, v| {
                g * (if v > 0.0 { 1.0 } else { 0.0 })
            })?;
            accumulate(nodes, x, gx)
        }

        Op::Abs(x) => {
            let xv = value_of(nodes, x);
            let sign_of = |v: f32| {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            };
            let gx = grad.zip(&xv, "abs_vjp", |g, v| g * sign_of(v))?;
            accumulate(nodes, x, gx)
        }

        Op::Square(x) => {
            let xv = value_of(nodes, x);
            let gx = grad.zip(&xv, "square_vjp", |g, v| g * (v * 2.0))?;
            accumulate(nodes, x, gx)
        }

        Op::AddScalar(x) => accumulate_ref(nodes, x, grad),

        Op::MulScalar(x, s) => accumulate(nodes, x, grad.mul_scalar(s)),

        Op::Matmul(a, b) => {
            let av = value_of(nodes, a);
            let bv = value_of(nodes, b);
            // dA = g @ Bᵀ and dB = Aᵀ @ g, both through the fused
            // transposed kernels (no materialized transpose copies),
            // reduced over broadcast batch dims.
            let ga_full = linalg::matmul_nt(grad, &bv)?;
            accumulate_reduced(nodes, a, &ga_full)?;
            drop(ga_full);
            let gb_full = linalg::matmul_tn(&av, grad)?;
            accumulate_reduced(nodes, b, &gb_full)
        }

        Op::MatmulNT(a, b) => {
            let av = value_of(nodes, a);
            let bv = value_of(nodes, b);
            // C = A @ Bᵀ with B stored [..., n, k]:
            // dA = g @ B (the transposes cancel), dB = gᵀ @ A.
            let ga_full = linalg::matmul(grad, &bv)?;
            accumulate_reduced(nodes, a, &ga_full)?;
            drop(ga_full);
            let gb_full = linalg::matmul_tn(grad, &av)?;
            accumulate_reduced(nodes, b, &gb_full)
        }

        Op::SumAxis { x, axis, keepdim } => {
            let xv = value_of(nodes, x);
            let g = if keepdim {
                grad.broadcast_to(xv.shape())?
            } else {
                grad.unsqueeze(axis)?.broadcast_to(xv.shape())?
            };
            accumulate(nodes, x, g)
        }

        Op::MeanAxis { x, axis, keepdim } => {
            let xv = value_of(nodes, x);
            let n = xv.shape()[axis] as f32;
            let g = if keepdim {
                grad.broadcast_to(xv.shape())?
            } else {
                grad.unsqueeze(axis)?.broadcast_to(xv.shape())?
            };
            accumulate(nodes, x, g.mul_scalar(1.0 / n))
        }

        Op::SumAll(x) => {
            let xv = value_of(nodes, x);
            let g = grad.item()?;
            accumulate(nodes, x, Tensor::full(xv.shape(), g))
        }

        Op::MeanAll(x) => {
            let xv = value_of(nodes, x);
            let g = grad.item()? / xv.len() as f32;
            accumulate(nodes, x, Tensor::full(xv.shape(), g))
        }

        // Softmax Jacobian-vector product:
        //   dx = y * (g - sum(g * y, axis))
        // The last axis — every attention softmax — takes the fused row
        // kernel; other axes run the strided four-tensor chain. Bitwise
        // identical either way.
        Op::Softmax { x, axis } => {
            let gx = if axis + 1 == out.rank() {
                out.softmax_vjp_lastdim(grad)?
            } else {
                let gy = grad.mul(out)?;
                let s = gy.sum_axis(axis, true)?;
                out.mul(&grad.sub(&s.broadcast_to(grad.shape())?)?)?
            };
            accumulate(nodes, x, gx)
        }

        Op::Reshape(x) => {
            let xv = value_of(nodes, x);
            accumulate(nodes, x, grad.reshape(xv.shape())?)
        }

        Op::Permute { x, ref perm } => {
            // Invert the permutation: output axis i came from input axis
            // perm[i], so grad axis perm[i] must go back to axis i.
            let mut inverse = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i;
            }
            accumulate(nodes, x, grad.permute(&inverse)?)
        }

        Op::Concat { ref xs, axis } => {
            let mut start = 0;
            for &x in xs {
                let len = value_of(nodes, x).shape()[axis];
                let gx = grad.narrow(axis, start, len)?;
                accumulate(nodes, x, gx)?;
                start += len;
            }
            Ok(())
        }

        Op::Narrow { x, axis, start } => {
            // Scatter the gradient back into the input's gradient at the
            // narrowed range.
            let xv = value_of(nodes, x);
            let len = grad.shape()[axis];
            let axis_len = xv.shape()[axis];
            let outer: usize = xv.shape()[..axis].iter().product();
            let inner: usize = xv.shape()[axis + 1..].iter().product();
            // When a gradient buffer already exists (windows overlap, so
            // most narrow VJPs land on a live buffer), add the slice
            // straight into it instead of materializing a full-size zero
            // tensor and paying a whole-volume axpy for a sliver of
            // nonzeros. A *stale* buffer holds retired values and must
            // not be added into; it takes the generic overwrite path.
            if nodes[x].requires_grad && nodes[x].grad.is_some() && !nodes[x].grad_stale {
                let src = grad.data();
                let existing = nodes[x].grad.as_mut().expect("checked above");
                let dst = existing.data_mut();
                for o in 0..outer {
                    let src_base = o * len * inner;
                    let dst_base = o * axis_len * inner + start * inner;
                    for (d, &s) in dst[dst_base..dst_base + len * inner]
                        .iter_mut()
                        .zip(src[src_base..src_base + len * inner].iter())
                    {
                        *d += s;
                    }
                }
                return Ok(());
            }
            let mut gx = Tensor::zeros(xv.shape());
            let dst = gx.data_mut();
            for o in 0..outer {
                let src_base = o * len * inner;
                let dst_base = o * axis_len * inner + start * inner;
                dst[dst_base..dst_base + len * inner]
                    .copy_from_slice(&grad.data()[src_base..src_base + len * inner]);
            }
            accumulate(nodes, x, gx)
        }

        Op::IndexSelect {
            x,
            axis,
            ref indices,
        } => {
            // Scatter-add: repeated indices accumulate their gradients.
            let xv = value_of(nodes, x);
            let axis_len = xv.shape()[axis];
            let outer: usize = xv.shape()[..axis].iter().product();
            let inner: usize = xv.shape()[axis + 1..].iter().product();
            let mut gx = Tensor::zeros(xv.shape());
            let dst = gx.data_mut();
            for o in 0..outer {
                for (j, &i) in indices.iter().enumerate() {
                    let src_base = (o * indices.len() + j) * inner;
                    let dst_base = (o * axis_len + i) * inner;
                    for t in 0..inner {
                        dst[dst_base + t] += grad.data()[src_base + t];
                    }
                }
            }
            accumulate(nodes, x, gx)
        }

        Op::BroadcastTo(x) => accumulate_reduced(nodes, x, grad),

        Op::WhereMask { ref mask, a, b } => {
            let ga = grad.mul(mask)?;
            accumulate_reduced(nodes, a, &ga)?;
            drop(ga);
            let inv = mask.affine(-1.0, 1.0);
            let gb = grad.mul(&inv)?;
            accumulate_reduced(nodes, b, &gb)
        }

        // Fused Huber VJP: replays the reference chain's reverse sweep
        // (mean → where-mask → {·0.5 → square, ·δ → +c → abs} → sub)
        // node by node per element, in the same accumulation order —
        // quadratic-branch contribution first, then linear-branch — so
        // gradients are bitwise-equal to the unfused chain's.
        Op::Huber {
            pred,
            target,
            delta,
        } => {
            let pv = value_of(nodes, pred);
            let tv = value_of(nodes, target);
            let g0 = grad.item()? / pv.len() as f32;
            let ddiff = pv.zip(&tv, "huber_vjp", |p, t| {
                let d = p - t;
                let ad = d.abs();
                let m = if ad <= delta { 1.0 } else { 0.0 };
                let ga = g0 * m;
                let gb = g0 * (-m + 1.0);
                let sign = if d > 0.0 {
                    1.0
                } else if d < 0.0 {
                    -1.0
                } else {
                    0.0
                };
                // Square-branch (via ·0.5 then ·2d) + abs-branch (via ·δ
                // then sign), summed in the reverse-sweep's visit order.
                (ga * 0.5) * (d * 2.0) + (gb * delta) * sign
            })?;
            accumulate_ref(nodes, pred, &ddiff)?;
            accumulate(nodes, target, ddiff.neg())
        }

        // Fused bias+activation VJP: g_pre = g * act'(out) in one zip
        // (expressions matching each activation's standalone VJP), then
        // the Add node's reduce-to-operand-shape accumulation.
        Op::BiasAddAct { x, b, act } => {
            let g_pre = match act {
                ActKind::Identity => None,
                ActKind::Tanh => Some(grad.zip(out, "tanh_vjp", |g, y| {
                    g * (-(y * y) + 1.0)
                })?),
                ActKind::Sigmoid => Some(grad.zip(out, "sigmoid_vjp", |g, y| {
                    g * (y * (-y + 1.0))
                })?),
                // relu(s) > 0 iff s > 0, so the output doubles as the
                // pre-activation mask.
                ActKind::Relu => Some(grad.zip(out, "relu_vjp", |g, y| {
                    g * (if y > 0.0 { 1.0 } else { 0.0 })
                })?),
            };
            let g_pre = g_pre.as_ref().unwrap_or(grad);
            accumulate_reduced(nodes, x, g_pre)?;
            accumulate_reduced(nodes, b, g_pre)
        }

        // Fused sparse-attention VJP: one kernel produces all three
        // input gradients from the saved per-edge softmax weights. `h`'s
        // contribution lands first — the position the dense chain's
        // `weights @ h` node gives it — so shared-embedding accumulation
        // order (and therefore bits) match the unfused chain.
        Op::SparseAttention {
            q,
            k,
            h,
            ref graph,
            scale,
            ref weights,
        } => {
            let qv = value_of(nodes, q);
            let kv = value_of(nodes, k);
            let hv = value_of(nodes, h);
            let (dq, dk, dh) = stwa_tensor::sparse::sparse_attention_vjp(
                grad, &qv, &kv, &hv, weights, graph, scale,
            )?;
            accumulate(nodes, h, dh)?;
            accumulate(nodes, q, dq)?;
            accumulate(nodes, k, dk)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn sum_of_squares_gradient() {
        let g = Graph::new();
        let x = g.leaf(t(&[1.0, -2.0, 3.0], &[3]));
        let loss = x.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn constants_get_no_grad() {
        let g = Graph::new();
        let x = g.leaf(t(&[2.0], &[1]));
        let c = g.constant(t(&[3.0], &[1]));
        let loss = x.mul(&c).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[3.0]);
        assert!(g.grad(&c).is_none());
    }

    #[test]
    fn broadcast_add_reduces_grad() {
        // loss = sum(x + b) with x: [2,3], b: [3] -> db = [2, 2, 2]
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2, 3]));
        let b = g.leaf(Tensor::zeros(&[3]));
        let loss = x.add(&b).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&b).unwrap().data(), &[2.0, 2.0, 2.0]);
        assert_eq!(g.grad(&x).unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A @ B); dA = 1 @ B^T (row sums of B broadcast), etc.
        let g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.leaf(t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let loss = a.matmul(&b).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        // dA[i, p] = sum_j B[p, j]
        assert_eq!(g.grad(&a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[p, j] = sum_i A[i, p]
        assert_eq!(g.grad(&b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn sparse_attend_complete_graph_matches_dense_chain_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;
        use stwa_tensor::SensorGraph;

        let (n, d) = (5usize, 3usize);
        let scale = 1.0 / (d as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(77);
        let hv = Tensor::randn(&[2, n, d], &mut rng);
        let qv = Tensor::randn(&[2, n, d], &mut rng);
        let kv = Tensor::randn(&[2, n, d], &mut rng);

        // Dense: the exact chain SensorCorrelationAttention::attend runs.
        let gd = Graph::new();
        let (h1, q1, k1) = (gd.leaf(hv.clone()), gd.leaf(qv.clone()), gd.leaf(kv.clone()));
        let scores = q1.matmul_nt(&k1).unwrap().mul_scalar(scale);
        let w = scores.softmax(2).unwrap();
        let out_dense = w.matmul(&h1).unwrap();
        let loss_d = out_dense.square().unwrap().sum_all().unwrap();
        gd.backward(&loss_d).unwrap();

        // Sparse over the complete graph: one fused tape entry.
        let gs = Graph::new();
        let (h2, q2, k2) = (gs.leaf(hv.clone()), gs.leaf(qv.clone()), gs.leaf(kv.clone()));
        let graph = Arc::new(SensorGraph::complete(n));
        let out_sparse = q2.sparse_attend(&k2, &h2, &graph, scale).unwrap();
        let loss_s = out_sparse.square().unwrap().sum_all().unwrap();
        gs.backward(&loss_s).unwrap();

        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out_dense.value()), bits(&out_sparse.value()));
        for ((a, b), name) in [(&q1, &q2), (&k1, &k2), (&h1, &h2)]
            .iter()
            .zip(["q", "k", "h"])
        {
            assert_eq!(
                bits(&gd.grad(a).unwrap()),
                bits(&gs.grad(b).unwrap()),
                "grad {name} diverged"
            );
        }
    }

    #[test]
    fn sparse_attend_isolated_sensor_backward_is_finite() {
        use std::sync::Arc;
        use stwa_tensor::SensorGraph;

        let (n, d) = (3usize, 2usize);
        let graph = Arc::new(
            SensorGraph::from_neighbor_lists(n, &[vec![0, 2], vec![], vec![0, 2]]).unwrap(),
        );
        let g = Graph::new();
        let h = g.leaf(Tensor::from_fn(&[1, n, d], |i| (i[1] * d + i[2]) as f32));
        let out = h.sparse_attend(&h, &h, &graph, 1.0).unwrap();
        let loss = out.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let grad = g.grad(&h).unwrap();
        assert!(out.value().data().iter().all(|x| x.is_finite()));
        assert!(grad.data().iter().all(|x| x.is_finite()));
        // The isolated sensor's output row is zero, not NaN.
        assert_eq!(out.value().at(&[0, 1, 0]), 0.0);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // loss = sum(x * x_detached + x) uses x twice: grads add.
        let g = Graph::new();
        let x = g.leaf(t(&[3.0], &[1]));
        let y = x.add(&x).unwrap(); // dy/dx = 2
        let loss = y.sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn repeated_backward_reuses_grad_buffers_bitwise() {
        // Same tape, backward twice: leaf grads double exactly, the
        // intermediate grads are recomputed into their retained buffers,
        // and the reuse counter proves no fresh buffers were drawn.
        let g = Graph::new();
        let x = g.leaf(t(&[1.5, -2.0, 0.25], &[3]));
        let y = x.square().unwrap().mul_scalar(3.0);
        let loss = y.sum_all().unwrap();
        g.backward(&loss).unwrap();
        let first = g.grad(&x).unwrap();
        let doubled: Vec<u32> = first.data().iter().map(|v| (v + v).to_bits()).collect();

        stwa_observe::set_enabled(true);
        stwa_observe::reset();
        g.backward(&loss).unwrap();
        let reused = stwa_observe::counters_snapshot()
            .iter()
            .find(|(name, _)| name == "alloc.grad_reuse")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        stwa_observe::set_enabled(false);
        assert!(reused > 0, "second sweep must reuse stale buffers");

        let second = g.grad(&x).unwrap();
        let bits: Vec<u32> = second.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, doubled, "leaf grad must accumulate exactly");
    }

    #[test]
    fn zero_grads_then_backward_matches_first_sweep_bitwise() {
        let g = Graph::new();
        let x = g.leaf(t(&[0.5, 2.0, -1.25, 3.0], &[4]));
        let loss = x.square().unwrap().mean_all().unwrap();
        g.backward(&loss).unwrap();
        let first: Vec<u32> = g.grad(&x).unwrap().data().iter().map(|v| v.to_bits()).collect();
        g.zero_grads();
        assert!(g.grad(&x).is_none(), "stale grads read as empty");
        g.backward(&loss).unwrap();
        let second: Vec<u32> = g.grad(&x).unwrap().data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn leaf_loss_gradient_accumulates_across_backwards() {
        // Degenerate but contract-bearing: backward on a leaf directly.
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        g.backward(&x).unwrap();
        g.backward(&x).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn backward_requires_single_element_loss() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2]));
        assert!(g.backward(&x).is_err());
    }

    #[test]
    fn mean_all_scales_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[4]));
        let loss = x.mean_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        // For loss = sum(w * softmax(x)), sum of dx over the softmax axis
        // is 0 because softmax output sums to a constant.
        let g = Graph::new();
        let x = g.leaf(t(&[0.5, -1.0, 2.0], &[1, 3]));
        let w = g.constant(t(&[1.0, 2.0, 3.0], &[1, 3]));
        let loss = x.softmax(1).unwrap().mul(&w).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let dx = g.grad(&x).unwrap();
        let s: f32 = dx.data().iter().sum();
        assert!(s.abs() < 1e-6, "softmax grad should sum to ~0, got {s}");
    }

    #[test]
    fn narrow_grad_scatters() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[4]));
        let loss = x.narrow(0, 1, 2).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn index_select_grad_accumulates_repeats() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[3]));
        let loss = x.index_select(0, &[1, 1, 2]).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[0.0, 2.0, 1.0]);
    }

    #[test]
    fn concat_grad_splits() {
        let g = Graph::new();
        let a = g.leaf(Tensor::zeros(&[2]));
        let b = g.leaf(Tensor::zeros(&[3]));
        let c = crate::ops::concat(&[&a, &b], 0).unwrap();
        let w = g.constant(t(&[1.0, 2.0, 3.0, 4.0, 5.0], &[5]));
        let loss = c.mul(&w).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&a).unwrap().data(), &[1.0, 2.0]);
        assert_eq!(g.grad(&b).unwrap().data(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn where_mask_routes_gradients() {
        let g = Graph::new();
        let a = g.leaf(t(&[1.0, 1.0], &[2]));
        let b = g.leaf(t(&[2.0, 2.0], &[2]));
        let mask = t(&[1.0, 0.0], &[2]);
        let out = a.where_mask(&mask, &b).unwrap();
        assert_eq!(out.value().data(), &[1.0, 2.0]);
        let loss = out.sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&a).unwrap().data(), &[1.0, 0.0]);
        assert_eq!(g.grad(&b).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn permute_grad_inverts() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_fn(&[2, 3], |i| (i[0] * 3 + i[1]) as f32));
        let w = g.constant(Tensor::from_fn(&[3, 2], |i| (i[0] * 2 + i[1]) as f32));
        let loss = x
            .permute(&[1, 0])
            .unwrap()
            .mul(&w)
            .unwrap()
            .sum_all()
            .unwrap();
        g.backward(&loss).unwrap();
        // Gradient of x[i,j] is w[j,i].
        let dx = g.grad(&x).unwrap();
        assert_eq!(dx.at(&[0, 1]), w.value().at(&[1, 0]));
        assert_eq!(dx.at(&[1, 2]), w.value().at(&[2, 1]));
    }

    #[test]
    fn detach_stops_gradient_flow() {
        let g = Graph::new();
        let x = g.leaf(t(&[2.0], &[1]));
        let d = x.detach();
        let loss = x.mul(&d).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        // Through the detached branch the value acts as constant 2.0.
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0]);
    }
}
