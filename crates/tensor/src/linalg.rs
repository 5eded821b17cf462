//! Batched matrix multiplication.
//!
//! This is the hot kernel of the whole reproduction: every attention
//! score, projection, and dense layer bottoms out here. Three entry
//! points share one engine:
//!
//! - [`matmul`]: `[..., m, k] @ [..., k, n]`,
//! - [`matmul_nt`]: `[..., m, k] @ [..., n, k]ᵀ` — attention scores
//!   (`Q·Kᵀ`) and the `dA = G·Bᵀ` VJP without materializing a
//!   transposed copy,
//! - [`matmul_tn`]: `[..., k, m]ᵀ @ [..., k, n]` — the `dB = Aᵀ·G` VJP.
//!
//! Large products run through a cache-blocked, panel-packed kernel
//! (`MR×NR` register tile, `KC`-deep panels, AVX2 when the CPU has it);
//! small ones use the plain i-k-j loop. Both orders accumulate each
//! output element along a strictly ascending contraction index into a
//! single f32 chain, so the two paths — and every transpose variant —
//! are **bitwise identical** and may be mixed freely (the golden-run
//! regression test depends on this).
//!
//! Parallelism comes from the persistent [`stwa_pool`] pool, never from
//! per-call thread spawning. Products above [`PARALLEL_FLOP_THRESHOLD`]
//! split across the batch axis when the batch is wide enough, and
//! otherwise across row blocks of each matrix, so a single large
//! `batch == 1` product (the predictor MLP over `B·N` flattened rows,
//! the generator decoder) still uses every core. Tasks own disjoint
//! output rows and each row's summation order is fixed, so results do
//! not depend on the thread count.

use crate::shape::{broadcast_shapes, broadcast_strides, volume};
use crate::{Result, Tensor, TensorError};
use stwa_pool::SendPtr;

/// Problems smaller than this many fused multiply-adds stay
/// single-threaded; pool dispatch overhead dominates below it.
pub(crate) const PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// Per-matrix FLOP count below which the plain i-k-j loop beats the
/// blocked kernel (packing costs more than it saves).
const BLOCKED_MIN_FLOPS: usize = 1 << 15;

/// Same cutover for `A·Bᵀ` products. The naive NT kernel is a scalar
/// dot-product chain — the order contract forbids vectorizing a
/// reduction — so packing B into strips (which restores the
/// vectorizable rank-1 layout) wins at much smaller sizes than for NN.
const BLOCKED_MIN_FLOPS_NT: usize = 1 << 12;

/// Register-tile rows (distinct A rows live per microkernel call).
pub(crate) const MR: usize = 4;
/// Register-tile columns (one packed B strip; two AVX2 vectors wide).
pub(crate) const NR: usize = 16;
/// Contraction-depth of one packed panel pass; sized so an `NR`-wide B
/// strip (`KC * NR * 4 = 16 KiB`) plus the A panel stays L1-resident.
pub(crate) const KC: usize = 256;

/// How the left operand's trailing two axes are laid out.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AKind {
    /// `[..., m, k]` row-major.
    Normal,
    /// `[..., k, m]` row-major, multiplied as `Aᵀ`.
    Transposed,
}

/// How the right operand's trailing two axes are laid out.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BKind {
    /// `[..., k, n]` row-major.
    Normal,
    /// `[..., n, k]` row-major, multiplied as `Bᵀ`.
    Transposed,
}

/// Batched matrix product.
///
/// `a` has shape `[..., m, k]`, `b` has shape `[..., k, n]`; the leading
/// (batch) dimensions broadcast against each other, producing
/// `[broadcast(...), m, n]`. Rank must be at least 2 on both sides — wrap
/// vectors in an explicit `[1, k]` / `[k, 1]` if needed, which keeps the
/// intent visible at call sites.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run(a, b, AKind::Normal, BKind::Normal, "matmul")
}

/// `A · Bᵀ` without materializing the transpose: `a` is `[..., m, k]`,
/// `b` is `[..., n, k]`, the result `[..., m, n]`. Bitwise identical to
/// `matmul(a, &b.transpose_last2()?)`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run(a, b, AKind::Normal, BKind::Transposed, "matmul_nt")
}

/// `Aᵀ · B` without materializing the transpose: `a` is `[..., k, m]`,
/// `b` is `[..., k, n]`, the result `[..., m, n]`. Bitwise identical to
/// `matmul(&a.transpose_last2()?, b)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run(a, b, AKind::Transposed, BKind::Normal, "matmul_tn")
}

/// Serving-path [`matmul`]: the same plan, kernel choice, and
/// accumulation order, with none of the per-call instrumentation or
/// pool dispatch. The inference engine's products are tiny and
/// latency-critical — a span guard, three counters, and a pool
/// round-trip cost more than the arithmetic — while the training path
/// keeps full observability. Bitwise identical to [`matmul`].
pub fn matmul_lean(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run_lean(a, b, AKind::Normal, BKind::Normal, "matmul")
}

/// Serving-path [`matmul_nt`]; see [`matmul_lean`]. Bitwise identical
/// to [`matmul_nt`].
pub fn matmul_nt_lean(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    run_lean(a, b, AKind::Normal, BKind::Transposed, "matmul_nt")
}

/// The seed kernel, kept as the independent reference implementation:
/// single-threaded i-k-j over every broadcast batch. Property tests and
/// the kernel benchmark compare the production paths against this.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let plan = Plan::build(a, b, AKind::Normal, BKind::Normal, "matmul")?;
    if plan.is_empty() {
        return Tensor::from_vec(Vec::new(), &plan.out_shape);
    }
    let mut out = crate::memory::take_filled(plan.batch * plan.m * plan.n, 0.0);
    let (m, k, n) = (plan.m, plan.k, plan.n);
    for (bi, out_mat) in out.chunks_exact_mut(m * n).enumerate() {
        let a_mat = &a.data()[plan.a_offsets.get(bi)..plan.a_offsets.get(bi) + m * k];
        let b_mat = &b.data()[plan.b_offsets.get(bi)..plan.b_offsets.get(bi) + k * n];
        naive_nn(a_mat, b_mat, out_mat, 0, m, k, n);
    }
    Tensor::from_vec(out, &plan.out_shape)
}

/// Per-batch element offsets of one operand. The no-broadcast case —
/// nearly every product in the model — is a constant stride, so nothing
/// is materialized; only genuinely broadcast leads pay for the odometer
/// walk and its `Vec`.
enum Offsets {
    /// Batch `bi` starts at `bi * stride`.
    Strided(usize),
    /// Arbitrary broadcast pattern, one entry per batch.
    Explicit(Vec<usize>),
}

impl Offsets {
    #[inline(always)]
    fn get(&self, bi: usize) -> usize {
        match self {
            Offsets::Strided(stride) => bi * stride,
            Offsets::Explicit(v) => v[bi],
        }
    }
}

/// Resolved shapes and per-batch element offsets for one product.
struct Plan {
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    out_shape: Vec<usize>,
    a_offsets: Offsets,
    b_offsets: Offsets,
}

impl Plan {
    fn build(a: &Tensor, b: &Tensor, ak: AKind, bk: BKind, op: &'static str) -> Result<Plan> {
        if a.rank() < 2 {
            return Err(TensorError::RankTooSmall {
                op,
                required: 2,
                actual: a.rank(),
            });
        }
        if b.rank() < 2 {
            return Err(TensorError::RankTooSmall {
                op,
                required: 2,
                actual: b.rank(),
            });
        }
        let (ar, br) = (a.rank(), b.rank());
        let (m, ka) = match ak {
            AKind::Normal => (a.shape()[ar - 2], a.shape()[ar - 1]),
            AKind::Transposed => (a.shape()[ar - 1], a.shape()[ar - 2]),
        };
        let (kb, n) = match bk {
            BKind::Normal => (b.shape()[br - 2], b.shape()[br - 1]),
            BKind::Transposed => (b.shape()[br - 1], b.shape()[br - 2]),
        };
        if ka != kb {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: a.shape().to_vec(),
                rhs: b.shape().to_vec(),
            });
        }
        let k = ka;
        let lead_a = &a.shape()[..ar - 2];
        let lead_b = &b.shape()[..br - 2];
        let lead_out = broadcast_shapes(op, lead_a, lead_b)?;
        let batch = volume(&lead_out);
        let mut out_shape = lead_out.clone();
        out_shape.push(m);
        out_shape.push(n);
        let a_offsets = batch_offsets(lead_a, &lead_out, m * k);
        let b_offsets = batch_offsets(lead_b, &lead_out, k * n);
        Ok(Plan {
            m,
            k,
            n,
            batch,
            out_shape,
            a_offsets,
            b_offsets,
        })
    }

    /// Degenerate product: nothing to compute.
    fn is_empty(&self) -> bool {
        self.batch * self.m * self.n == 0
    }
}

/// How a product was split across pool tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Split {
    /// Sequential: below the FLOP threshold or a single-thread pool.
    None,
    /// One task per broadcast batch matrix.
    Batch,
    /// Row blocks within each matrix (covers `batch == 1`).
    Rows,
}

/// Pick a split and materialize its `(batch, row_start, row_end)` tasks.
/// Row-block boundaries depend only on the problem shape and thread
/// count target, never on scheduling, so outputs stay deterministic.
fn decompose(batch: usize, m: usize, flops: usize, threads: usize) -> (Split, Vec<(usize, usize, usize)>) {
    if flops < PARALLEL_FLOP_THRESHOLD || threads <= 1 || batch * m <= 1 {
        return (Split::None, Vec::new());
    }
    if batch >= threads {
        return (Split::Batch, (0..batch).map(|bi| (bi, 0, m)).collect());
    }
    // Thin batch, large matrices: split rows, aiming for ~2 tasks per
    // thread so the self-scheduling pool can balance uneven progress.
    let target = threads * 2;
    let blocks_per_mat = target.div_ceil(batch).clamp(1, m.div_ceil(MR));
    if blocks_per_mat <= 1 {
        return (Split::Batch, (0..batch).map(|bi| (bi, 0, m)).collect());
    }
    let rows_per_block = m.div_ceil(blocks_per_mat);
    let mut tasks = Vec::with_capacity(batch * blocks_per_mat);
    for bi in 0..batch {
        let mut r0 = 0;
        while r0 < m {
            let r1 = (r0 + rows_per_block).min(m);
            tasks.push((bi, r0, r1));
            r0 = r1;
        }
    }
    (Split::Rows, tasks)
}

fn run(a: &Tensor, b: &Tensor, ak: AKind, bk: BKind, op: &'static str) -> Result<Tensor> {
    let plan = Plan::build(a, b, ak, bk, op)?;
    if plan.is_empty() {
        return Tensor::from_vec(Vec::new(), &plan.out_shape);
    }
    let (m, k, n, batch) = (plan.m, plan.k, plan.n, plan.batch);
    let flops = batch * m * n * k;
    let threads = stwa_pool::current_threads();

    let _span = stwa_observe::span!("matmul");
    stwa_observe::counter!("matmul.calls").incr();
    stwa_observe::counter!("matmul.flops").add(2 * flops as u64);

    let (split, tasks) = decompose(batch, m, flops, threads);
    if flops >= PARALLEL_FLOP_THRESHOLD {
        stwa_observe::counter!("matmul.split_eligible").incr();
    }
    match split {
        Split::None => stwa_observe::counter!("matmul.split_none").incr(),
        Split::Batch => stwa_observe::counter!("matmul.split_batch").incr(),
        Split::Rows => stwa_observe::counter!("matmul.split_rows").incr(),
    }
    if tasks.len() > 1 {
        stwa_observe::counter!("matmul.split_fired").incr();
    }

    let mut out = crate::memory::take_filled(batch * m * n, 0.0);
    let blocked_min = if bk == BKind::Transposed {
        BLOCKED_MIN_FLOPS_NT
    } else {
        BLOCKED_MIN_FLOPS
    };
    let use_blocked = m * n * k >= blocked_min;
    let a_data = a.data();
    let b_data = b.data();
    let out_ptr = SendPtr(out.as_mut_ptr());

    let run_rows = |bi: usize, r0: usize, r1: usize| {
        let a_mat = &a_data[plan.a_offsets.get(bi)..plan.a_offsets.get(bi) + m * k];
        let b_mat = &b_data[plan.b_offsets.get(bi)..plan.b_offsets.get(bi) + k * n];
        // Safety: tasks cover disjoint `[r0, r1)` row ranges of disjoint
        // batch matrices, and the pool joins before `out` is consumed.
        let c = unsafe {
            std::slice::from_raw_parts_mut(out_ptr.get().add(bi * m * n + r0 * n), (r1 - r0) * n)
        };
        if use_blocked {
            gemm_blocked(a_mat, b_mat, c, r0, r1, m, k, n, ak, bk);
        } else {
            match (ak, bk) {
                (AKind::Normal, BKind::Normal) => naive_nn(a_mat, b_mat, c, r0, r1, k, n),
                (AKind::Normal, BKind::Transposed) => naive_nt(a_mat, b_mat, c, r0, r1, k, n),
                (AKind::Transposed, BKind::Normal) => naive_tn(a_mat, b_mat, c, r0, r1, m, k, n),
                // No public entry point builds a double-transposed
                // product; it would just be matmul(b, a) reversed.
                (AKind::Transposed, BKind::Transposed) => {
                    unreachable!("no Aᵀ·Bᵀ entry point")
                }
            }
        }
    };

    if tasks.is_empty() {
        // Sequential path, still routed through the pool so manifests
        // account for every kernel dispatch (`pool.tasks`).
        stwa_pool::parallel_for(1, |_| {
            // Safety: single task, and the pool joins before `out` is
            // consumed.
            let c_all = unsafe { std::slice::from_raw_parts_mut(out_ptr.get(), batch * m * n) };
            seq_exec(&plan, a_data, b_data, c_all, use_blocked, ak, bk);
        });
    } else {
        stwa_pool::parallel_for(tasks.len(), |t| {
            let (bi, r0, r1) = tasks[t];
            run_rows(bi, r0, r1);
        });
    }

    Tensor::from_vec(out, &plan.out_shape)
}

/// Sequential execution of one planned product: every broadcast batch
/// matrix in order, through the same kernel the threaded path would
/// pick. Attention-sized products (a handful of FLOPs, a huge batch)
/// are dominated by per-batch dispatch, so for plain strided layouts
/// the kernel selection is hoisted out of the batch loop. Same kernels,
/// same per-matrix order — bitwise identical to the generic walk.
fn seq_exec(
    plan: &Plan,
    a_data: &[f32],
    b_data: &[f32],
    out: &mut [f32],
    use_blocked: bool,
    ak: AKind,
    bk: BKind,
) {
    let (m, k, n) = (plan.m, plan.k, plan.n);
    if let (false, &Offsets::Strided(sa), &Offsets::Strided(sb)) =
        (use_blocked, &plan.a_offsets, &plan.b_offsets)
    {
        match (ak, bk) {
            (AKind::Normal, BKind::Normal) => {
                for (bi, c) in out.chunks_exact_mut(m * n).enumerate() {
                    naive_nn(&a_data[bi * sa..], &b_data[bi * sb..], c, 0, m, k, n);
                }
            }
            (AKind::Normal, BKind::Transposed) => {
                for (bi, c) in out.chunks_exact_mut(m * n).enumerate() {
                    naive_nt(&a_data[bi * sa..], &b_data[bi * sb..], c, 0, m, k, n);
                }
            }
            (AKind::Transposed, BKind::Normal) => {
                for (bi, c) in out.chunks_exact_mut(m * n).enumerate() {
                    naive_tn(&a_data[bi * sa..], &b_data[bi * sb..], c, 0, m, m, k, n);
                }
            }
            (AKind::Transposed, BKind::Transposed) => {
                unreachable!("no Aᵀ·Bᵀ entry point")
            }
        }
        return;
    }
    for (bi, c) in out.chunks_exact_mut(m * n).enumerate() {
        let a_mat = &a_data[plan.a_offsets.get(bi)..plan.a_offsets.get(bi) + m * k];
        let b_mat = &b_data[plan.b_offsets.get(bi)..plan.b_offsets.get(bi) + k * n];
        if use_blocked {
            gemm_blocked(a_mat, b_mat, c, 0, m, m, k, n, ak, bk);
        } else {
            match (ak, bk) {
                (AKind::Normal, BKind::Normal) => naive_nn(a_mat, b_mat, c, 0, m, k, n),
                (AKind::Normal, BKind::Transposed) => naive_nt(a_mat, b_mat, c, 0, m, k, n),
                (AKind::Transposed, BKind::Normal) => naive_tn(a_mat, b_mat, c, 0, m, m, k, n),
                (AKind::Transposed, BKind::Transposed) => {
                    unreachable!("no Aᵀ·Bᵀ entry point")
                }
            }
        }
    }
}

/// [`run`] without the span, counters, or pool round-trip — the
/// serving-path variant behind [`matmul_lean`] / [`matmul_nt_lean`].
/// Always sequential: the inference engine's per-request products sit
/// far below [`PARALLEL_FLOP_THRESHOLD`], where pool dispatch costs
/// more than it buys, and sequential execution is bitwise identical to
/// any split by construction.
fn run_lean(a: &Tensor, b: &Tensor, ak: AKind, bk: BKind, op: &'static str) -> Result<Tensor> {
    // Plan-free fast path: same-rank operands with identical leading
    // axes. No broadcast resolution, no offset table, no intermediate
    // vectors — consecutive batches are consecutive matrices on both
    // sides, so the kernels run straight off constant strides. Same
    // kernel choice and per-matrix order as the planned walk below,
    // hence bitwise identical; mismatched inner dims fall through to
    // `Plan::build` for the canonical error.
    let (ar, br) = (a.rank(), b.rank());
    if ar >= 2 && ar == br && a.shape()[..ar - 2] == b.shape()[..br - 2] {
        let (m, ka) = match ak {
            AKind::Normal => (a.shape()[ar - 2], a.shape()[ar - 1]),
            AKind::Transposed => (a.shape()[ar - 1], a.shape()[ar - 2]),
        };
        let (kb, n) = match bk {
            BKind::Normal => (b.shape()[br - 2], b.shape()[br - 1]),
            BKind::Transposed => (b.shape()[br - 1], b.shape()[br - 2]),
        };
        if ka == kb {
            let k = ka;
            let batch: usize = a.shape()[..ar - 2].iter().product();
            let flops = batch * m * n * k;
            if flops >= PARALLEL_FLOP_THRESHOLD && stwa_pool::current_threads() > 1 {
                return run(a, b, ak, bk, op);
            }
            if flops > 0 {
                let blocked_min = if bk == BKind::Transposed {
                    BLOCKED_MIN_FLOPS_NT
                } else {
                    BLOCKED_MIN_FLOPS
                };
                let use_blocked = m * n * k >= blocked_min;
                let mut out = crate::memory::take_filled(batch * m * n, 0.0);
                let (a_data, b_data) = (a.data(), b.data());
                let (sa, sb) = (m * k, k * n);
                for (bi, c) in out.chunks_exact_mut(m * n).enumerate() {
                    let a_mat = &a_data[bi * sa..(bi + 1) * sa];
                    let b_mat = &b_data[bi * sb..(bi + 1) * sb];
                    if use_blocked {
                        gemm_blocked(a_mat, b_mat, c, 0, m, m, k, n, ak, bk);
                    } else {
                        match (ak, bk) {
                            (AKind::Normal, BKind::Normal) => naive_nn(a_mat, b_mat, c, 0, m, k, n),
                            (AKind::Normal, BKind::Transposed) => {
                                naive_nt(a_mat, b_mat, c, 0, m, k, n)
                            }
                            (AKind::Transposed, BKind::Normal) => {
                                naive_tn(a_mat, b_mat, c, 0, m, m, k, n)
                            }
                            (AKind::Transposed, BKind::Transposed) => {
                                unreachable!("no Aᵀ·Bᵀ entry point")
                            }
                        }
                    }
                }
                let mut out_shape = a.shape()[..ar - 2].to_vec();
                out_shape.push(m);
                out_shape.push(n);
                return Tensor::from_vec(out, &out_shape);
            }
        }
    }
    let plan = Plan::build(a, b, ak, bk, op)?;
    if plan.is_empty() {
        return Tensor::from_vec(Vec::new(), &plan.out_shape);
    }
    let (m, k, n, batch) = (plan.m, plan.k, plan.n, plan.batch);
    // Products big enough to split (large serving batches on multi-core
    // hosts) go back through the full path: the pool win dwarfs the
    // instrumentation cost there, and both paths are bitwise identical.
    if batch * m * n * k >= PARALLEL_FLOP_THRESHOLD && stwa_pool::current_threads() > 1 {
        return run(a, b, ak, bk, op);
    }
    let blocked_min = if bk == BKind::Transposed {
        BLOCKED_MIN_FLOPS_NT
    } else {
        BLOCKED_MIN_FLOPS
    };
    let use_blocked = m * n * k >= blocked_min;
    let mut out = crate::memory::take_filled(batch * m * n, 0.0);
    seq_exec(&plan, a.data(), b.data(), &mut out, use_blocked, ak, bk);
    Tensor::from_vec(out, &plan.out_shape)
}

/// Slice-level serving product: `C += A @ B` for one `[m, k] x [k, n]`
/// pair, with the same naive/blocked cutover as the tensor entry
/// points — the hook for hand-fused forwards (the inference engine's
/// K/V projections) that already hold their operands as raw rows.
/// `c` must arrive zeroed; each element accumulates its contraction in
/// one ascending chain, so the result is bitwise identical to the
/// equivalent [`matmul`] on any batching of the same rows.
pub fn gemm_nn_slice(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    if m * n * k >= BLOCKED_MIN_FLOPS {
        gemm_blocked(a, b, c, 0, m, m, k, n, AKind::Normal, BKind::Normal);
    } else {
        naive_nn(a, b, c, 0, m, k, n);
    }
}

// -------------------------------------------------------------------
// Naive kernels (reference + small-product fast path)
// -------------------------------------------------------------------
//
// All three accumulate each `c[i][j]` along ascending `p` in a single
// f32 chain — the order contract shared with the blocked kernel.

/// `C[r0..r1] += A @ B`, i-k-j order; `c` holds rows `r0..r1` only.
fn naive_nn(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    for i in r0..r1 {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[(i - r0) * n..(i - r0 + 1) * n];
        for (p, &aip) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += aip * bv;
            }
        }
    }
}

/// `C[r0..r1] += A @ Bᵀ` with `b` stored `[n, k]`: row-times-row dots.
fn naive_nt(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    for i in r0..r1 {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[(i - r0) * n..(i - r0 + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = *cv;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            *cv = acc;
        }
    }
}

/// `C[r0..r1] += Aᵀ @ B` with `a` stored `[k, m]`: p-outer saxpy order.
#[allow(clippy::too_many_arguments)]
fn naive_tn(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, r1: usize, m: usize, k: usize, n: usize) {
    for p in 0..k {
        let a_col = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for i in r0..r1 {
            let aip = a_col[i];
            let c_row = &mut c[(i - r0) * n..(i - r0 + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += aip * bv;
            }
        }
    }
}

// -------------------------------------------------------------------
// Blocked kernel
// -------------------------------------------------------------------

thread_local! {
    /// Reused packing scratch: one B panel (`KC × n` rounded up to `NR`
    /// strips) per thread, so steady-state kernels allocate nothing.
    static PACK_B: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Cache-blocked GEMM over output rows `[r0, r1)` of one matrix pair.
///
/// Panels of B (`KC × NR` strips, transposed on the fly for
/// [`BKind::Transposed`]) and of A (`MR × KC`) are packed contiguous so
/// the microkernel streams both operands linearly. The C register tile
/// is loaded, accumulated along ascending `p`, and stored back each
/// panel pass, keeping every element's f32 summation chain identical to
/// the naive kernels'. Ragged edges are zero-padded in the panels;
/// padded lanes are never stored, so they cannot perturb results.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    r0: usize,
    r1: usize,
    m: usize,
    k: usize,
    n: usize,
    ak: AKind,
    bk: BKind,
) {
    let n_strips = n.div_ceil(NR);
    PACK_B.with(|buf| {
        let mut bpanel = buf.borrow_mut();
        bpanel.resize(KC * n_strips * NR, 0.0);
        let mut apanel = [0f32; MR * KC];
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_b(&mut bpanel, b, k0, kc, k, n, bk);
            let mut i0 = r0;
            while i0 < r1 {
                let mr = MR.min(r1 - i0);
                pack_a(&mut apanel, a, i0, mr, k0, kc, m, k, ak);
                for js in 0..n_strips {
                    let j0 = js * NR;
                    let nr = NR.min(n - j0);
                    let strip = &bpanel[js * KC * NR..js * KC * NR + kc * NR];
                    let tile = &mut c[(i0 - r0) * n + j0..];
                    microkernel(&apanel, strip, kc, tile, n, mr, nr);
                }
                i0 += MR;
            }
            k0 += kc;
        }
    });
}

/// Pack the `[k0, k0+kc)` slab of B into `NR`-wide strips:
/// `panel[js*KC*NR + p*NR + jj] = B[k0+p][js*NR+jj]`, zero-padding the
/// ragged final strip. Strips are `KC`-strided so a growing `n` never
/// reshuffles earlier strips.
fn pack_b(panel: &mut [f32], b: &[f32], k0: usize, kc: usize, k: usize, n: usize, bk: BKind) {
    let n_strips = n.div_ceil(NR);
    for js in 0..n_strips {
        let j0 = js * NR;
        let nr = NR.min(n - j0);
        let strip = &mut panel[js * KC * NR..js * KC * NR + kc * NR];
        match bk {
            BKind::Normal => {
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    let src = &b[(k0 + p) * n + j0..(k0 + p) * n + j0 + nr];
                    dst[..nr].copy_from_slice(src);
                    dst[nr..].fill(0.0);
                }
            }
            BKind::Transposed => {
                // B is `[n, k]`; strip column jj is a contiguous B row.
                for dst in strip.chunks_exact_mut(NR) {
                    dst[nr..].fill(0.0);
                }
                for jj in 0..nr {
                    let src = &b[(j0 + jj) * k + k0..(j0 + jj) * k + k0 + kc];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// Pack an `MR × kc` block of A rows `i0..i0+mr`:
/// `panel[p*MR + r] = A[i0+r][k0+p]`, zero rows beyond `mr` so tail
/// tiles multiply by zero instead of branching.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    panel: &mut [f32; MR * KC],
    a: &[f32],
    i0: usize,
    mr: usize,
    k0: usize,
    kc: usize,
    m: usize,
    k: usize,
    ak: AKind,
) {
    match ak {
        AKind::Normal => {
            for p in 0..kc {
                let dst = &mut panel[p * MR..p * MR + MR];
                for (r, slot) in dst.iter_mut().enumerate() {
                    *slot = if r < mr { a[(i0 + r) * k + k0 + p] } else { 0.0 };
                }
            }
        }
        AKind::Transposed => {
            // A is `[k, m]`; one packed column group is a contiguous read.
            for p in 0..kc {
                let src = &a[(k0 + p) * m + i0..(k0 + p) * m + i0 + mr];
                let dst = &mut panel[p * MR..p * MR + MR];
                dst[..mr].copy_from_slice(src);
                dst[mr..].fill(0.0);
            }
        }
    }
}

/// Dispatch to the widest microkernel the CPU supports. The wider
/// builds only change how many lanes each `mul`/`add` covers — no FMA
/// contraction, one rounding per operation — so every path produces
/// identical bits.
fn microkernel(ap: &[f32], bp: &[f32], kc: usize, c: &mut [f32], cs: usize, mr: usize, nr: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX512: OnceLock<bool> = OnceLock::new();
        static AVX2: OnceLock<bool> = OnceLock::new();
        if *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f")) {
            // Safety: guarded by the runtime AVX-512F check above.
            unsafe { microkernel_avx512(ap, bp, kc, c, cs, mr, nr) };
            return;
        }
        if *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2")) {
            // Safety: guarded by the runtime AVX2 check above.
            unsafe { microkernel_avx2(ap, bp, kc, c, cs, mr, nr) };
            return;
        }
    }
    microkernel_body(ap, bp, kc, c, cs, mr, nr);
}

/// Full `MR × NR` tiles with explicit 512-bit intrinsics: one zmm
/// accumulator per A row (`NR == 16` lanes), `vmulps` + `vaddps` kept
/// unfused so each lane's rounding matches the scalar chain exactly.
/// Edge tiles (`mr < MR` or `nr < NR`) fall back to the generic body —
/// same bits, they just can't use full-width stores.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    cs: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    if mr != MR || nr != NR {
        microkernel_body(ap, bp, kc, c, cs, mr, nr);
        return;
    }
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR && c.len() >= 3 * cs + NR);
    // Safety (whole block): tile bounds checked above; unaligned
    // load/store intrinsics have no alignment requirement.
    unsafe {
        let cp = c.as_mut_ptr();
        let mut acc0 = _mm512_loadu_ps(cp);
        let mut acc1 = _mm512_loadu_ps(cp.add(cs));
        let mut acc2 = _mm512_loadu_ps(cp.add(2 * cs));
        let mut acc3 = _mm512_loadu_ps(cp.add(3 * cs));
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        // 4-deep unroll: each accumulator still takes its rank-1 updates
        // one at a time in ascending `p`, so the chain is unchanged —
        // the unroll only trims loop overhead.
        let mut p = 0;
        while p + 4 <= kc {
            for _ in 0..4 {
                let bv = _mm512_loadu_ps(b);
                acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(*a), bv));
                acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(*a.add(1)), bv));
                acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(*a.add(2)), bv));
                acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(*a.add(3)), bv));
                a = a.add(MR);
                b = b.add(NR);
            }
            p += 4;
        }
        while p < kc {
            let bv = _mm512_loadu_ps(b);
            acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(*a), bv));
            acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(*a.add(1)), bv));
            acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(*a.add(2)), bv));
            acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(*a.add(3)), bv));
            a = a.add(MR);
            b = b.add(NR);
            p += 1;
        }
        _mm512_storeu_ps(cp, acc0);
        _mm512_storeu_ps(cp.add(cs), acc1);
        _mm512_storeu_ps(cp.add(2 * cs), acc2);
        _mm512_storeu_ps(cp.add(3 * cs), acc3);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    cs: usize,
    mr: usize,
    nr: usize,
) {
    microkernel_body(ap, bp, kc, c, cs, mr, nr);
}

/// The `MR × NR` register tile: load C, accumulate `kc` rank-1 updates
/// in ascending `p`, store C. Single accumulator per element — the
/// order contract that keeps this bitwise equal to the naive kernels.
#[inline(always)]
fn microkernel_body(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    cs: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[r * cs..r * cs + nr]);
    }
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        let brow: &[f32; NR] = brow.try_into().expect("NR strip");
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arow[r];
            for (slot, &bv) in accr.iter_mut().zip(brow.iter()) {
                *slot += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * cs..r * cs + nr].copy_from_slice(&row[..nr]);
    }
}

// -------------------------------------------------------------------
// Pre-packed weights
// -------------------------------------------------------------------

/// A `[k, n]` matrix packed once into the blocked kernel's panel layout
/// and reused across calls — the serving-path complement to
/// [`matmul`], which re-packs its right operand on every invocation.
///
/// Layout: one slab per `KC`-deep contraction step, each slab holding
/// `ceil(n / NR)` strips of `KC * NR` floats in exactly the order
/// [`pack_b`] produces (ragged edges zero-padded). Because the slabs are
/// bit-for-bit what the per-call packer would have built,
/// [`matmul_packed`] inherits the kernel order contract and stays
/// bitwise identical to [`matmul`] and [`matmul_reference`].
pub struct PackedMatrix {
    panels: Vec<f32>,
    k: usize,
    n: usize,
    slab_elems: usize,
}

impl PackedMatrix {
    /// Pack a rank-2 `[k, n]` tensor. Weights above neither dimension
    /// limit exist; this is meant for frozen layer weights.
    pub fn pack(b: &Tensor) -> Result<PackedMatrix> {
        if b.rank() != 2 {
            return Err(TensorError::Invalid(format!(
                "PackedMatrix: expected a rank-2 [k, n] matrix, got {:?}",
                b.shape()
            )));
        }
        let (k, n) = (b.shape()[0], b.shape()[1]);
        let n_strips = n.div_ceil(NR);
        let slab_elems = n_strips * KC * NR;
        let n_slabs = k.div_ceil(KC);
        let mut panels = vec![0f32; n_slabs * slab_elems];
        let data = b.data();
        let mut k0 = 0;
        let mut slab = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_b(
                &mut panels[slab * slab_elems..(slab + 1) * slab_elems],
                data,
                k0,
                kc,
                k,
                n,
                BKind::Normal,
            );
            k0 += kc;
            slab += 1;
        }
        Ok(PackedMatrix {
            panels,
            k,
            n,
            slab_elems,
        })
    }

    /// Contraction depth (`k`) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (`n`) of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed panels (padding included).
    pub fn packed_bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }
}

/// `a @ packed` where `a` is `[..., m, k]` and the packed matrix stands
/// for a shared `[k, n]` right operand. All leading axes of `a` flatten
/// into rows (each output row's summation chain is unchanged by the
/// flattening), producing `[..., m, n]`. Bitwise identical to
/// `matmul(a, b)` for the tensor `b` that was packed.
pub fn matmul_packed(a: &Tensor, packed: &PackedMatrix) -> Result<Tensor> {
    if a.rank() < 2 {
        return Err(TensorError::RankTooSmall {
            op: "matmul_packed",
            required: 2,
            actual: a.rank(),
        });
    }
    let ar = a.rank();
    if a.shape()[ar - 1] != packed.k {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_packed",
            lhs: a.shape().to_vec(),
            rhs: vec![packed.k, packed.n],
        });
    }
    let rows: usize = a.shape()[..ar - 1].iter().product();
    let (k, n) = (packed.k, packed.n);
    let mut out_shape = a.shape()[..ar - 1].to_vec();
    out_shape.push(n);
    if rows * n == 0 {
        return Tensor::from_vec(Vec::new(), &out_shape);
    }

    let _span = stwa_observe::span!("matmul");
    stwa_observe::counter!("matmul.calls").incr();
    stwa_observe::counter!("matmul.packed_calls").incr();
    stwa_observe::counter!("matmul.flops").add(2 * (rows * n * k) as u64);

    let mut out = crate::memory::take_filled(rows * n, 0.0);
    let a_data = a.data();
    let out_ptr = SendPtr(out.as_mut_ptr());
    let threads = stwa_pool::current_threads();
    let (_, tasks) = decompose(1, rows, rows * n * k, threads);
    let run_rows = |r0: usize, r1: usize| {
        // Safety: tasks cover disjoint `[r0, r1)` row ranges and the
        // pool joins before `out` is consumed.
        let c =
            unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n) };
        gemm_prepacked(a_data, packed, c, r0, r1, k, n);
    };
    if tasks.is_empty() {
        stwa_pool::parallel_for(1, |_| run_rows(0, rows));
    } else {
        stwa_pool::parallel_for(tasks.len(), |t| {
            let (_, r0, r1) = tasks[t];
            run_rows(r0, r1);
        });
    }
    Tensor::from_vec(out, &out_shape)
}

/// Serving-path [`matmul_packed`]: same packed-panel walk, no span,
/// counters, or pool round-trip (see [`matmul_lean`]). Products big
/// enough to row-split still take the full path so large serving
/// batches keep their parallelism. Bitwise identical to
/// [`matmul_packed`] and [`matmul`].
pub fn matmul_packed_lean(a: &Tensor, packed: &PackedMatrix) -> Result<Tensor> {
    if a.rank() < 2 {
        return Err(TensorError::RankTooSmall {
            op: "matmul_packed",
            required: 2,
            actual: a.rank(),
        });
    }
    let ar = a.rank();
    if a.shape()[ar - 1] != packed.k {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_packed",
            lhs: a.shape().to_vec(),
            rhs: vec![packed.k, packed.n],
        });
    }
    let rows: usize = a.shape()[..ar - 1].iter().product();
    let (k, n) = (packed.k, packed.n);
    if rows * n * k >= PARALLEL_FLOP_THRESHOLD && stwa_pool::current_threads() > 1 {
        return matmul_packed(a, packed);
    }
    let mut out_shape = a.shape()[..ar - 1].to_vec();
    out_shape.push(n);
    if rows * n == 0 {
        return Tensor::from_vec(Vec::new(), &out_shape);
    }
    let mut out = crate::memory::take_filled(rows * n, 0.0);
    gemm_prepacked(a.data(), packed, &mut out, 0, rows, k, n);
    Tensor::from_vec(out, &out_shape)
}

/// [`gemm_blocked`] with the B panels read from a [`PackedMatrix`]
/// instead of packed per call. Same slab/tile/microkernel walk, same
/// ascending-`p` accumulation — bitwise identical output.
fn gemm_prepacked(
    a: &[f32],
    packed: &PackedMatrix,
    c: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    let n_strips = n.div_ceil(NR);
    let mut apanel = [0f32; MR * KC];
    let mut k0 = 0;
    let mut slab = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let bpanel = &packed.panels[slab * packed.slab_elems..(slab + 1) * packed.slab_elems];
        let mut i0 = r0;
        while i0 < r1 {
            let mr = MR.min(r1 - i0);
            pack_a(&mut apanel, a, i0, mr, k0, kc, r1, k, AKind::Normal);
            for js in 0..n_strips {
                let j0 = js * NR;
                let nr = NR.min(n - j0);
                let strip = &bpanel[js * KC * NR..js * KC * NR + kc * NR];
                let tile = &mut c[(i0 - r0) * n + j0..];
                microkernel(&apanel, strip, kc, tile, n, mr, nr);
            }
            i0 += MR;
        }
        k0 += kc;
        slab += 1;
    }
}

/// Flat element offset of every broadcast batch's matrix start.
fn batch_offsets(lead: &[usize], lead_out: &[usize], mat_elems: usize) -> Offsets {
    let batch = volume(lead_out);
    if lead_out.is_empty() {
        return Offsets::Strided(0);
    }
    // Strided fast paths need no per-call offset `Vec`.
    // No broadcasting: consecutive batches are consecutive matrices.
    if lead == lead_out {
        return Offsets::Strided(mat_elems);
    }
    // One matrix shared by every batch (e.g. a weight applied across a
    // batched activation): constant offset 0.
    if volume(lead) == 1 {
        return Offsets::Strided(0);
    }
    // Broadcast strides in units of matrices; scaled to element offsets
    // when pushed.
    let bcast = broadcast_strides(lead, lead_out);
    let rank = lead_out.len();
    let mut offsets = Vec::with_capacity(batch);
    let mut idx = vec![0usize; rank];
    let mut off = 0usize;
    for _ in 0..batch {
        offsets.push(off * mat_elems);
        for ax in (0..rank).rev() {
            idx[ax] += 1;
            off += bcast[ax];
            if idx[ax] < lead_out[ax] {
                break;
            }
            idx[ax] = 0;
            off -= bcast[ax] * lead_out[ax];
        }
    }
    Offsets::Explicit(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn matmul_2x2() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // [2,3] @ [3,1]
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 1.0, 1.0], &[3, 1]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 1]);
        assert_eq!(c.data(), &[6.0, 15.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(matmul(&a, &i).unwrap().data(), a.data());
        assert_eq!(matmul(&i, &a).unwrap().data(), a.data());
    }

    #[test]
    fn matmul_batched_same_batch() {
        // Two independent 2x2 products stacked in a batch axis.
        let a = t(&[1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = t(&[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn matmul_broadcast_b_over_batch() {
        // a: [2, 2, 2] batched; b: [2, 2] shared across the batch.
        let a = t(&[1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0], &[2, 2, 2]);
        let b = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn matmul_broadcast_nested_batch() {
        // a: [2, 1, 1, 3], b: [3, 3, 2] -> out [2, 3, 1, 2]
        let a = t(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0], &[2, 1, 1, 3]);
        let b = Tensor::ones(&[3, 3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 3, 1, 2]);
        // First batch row sums three ones -> 3; second uses twos -> 6.
        assert_eq!(c.data()[0], 3.0);
        assert_eq!(c.data()[11], 6.0);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_rank_too_small() {
        let v = Tensor::zeros(&[3]);
        let m = Tensor::zeros(&[3, 3]);
        assert!(matches!(
            matmul(&v, &m),
            Err(TensorError::RankTooSmall { op: "matmul", .. })
        ));
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Force the threaded path with a batch big enough to cross the
        // FLOP threshold, then verify against a direct computation.
        let batch = 64;
        let (m, k, n) = (16, 16, 16);
        let a = Tensor::from_fn(&[batch, m, k], |i| ((i[0] + i[1] * 3 + i[2]) % 7) as f32);
        let b = Tensor::from_fn(&[batch, k, n], |i| {
            ((i[0] * 2 + i[1] + i[2] * 5) % 5) as f32
        });
        let c = matmul(&a, &b).unwrap();
        // Spot-check a handful of entries against the definition.
        for &(bi, i, j) in &[(0usize, 0usize, 0usize), (13, 5, 7), (63, 15, 15)] {
            let mut expect = 0.0;
            for p in 0..k {
                expect += a.at(&[bi, i, p]) * b.at(&[bi, p, j]);
            }
            assert!((c.at(&[bi, i, j]) - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn blocked_kernel_bitwise_matches_reference() {
        // Big enough to take the blocked path, ragged in every blocking
        // dimension (m % MR, n % NR, k % KC all nonzero).
        let (m, k, n) = (67, 301, 53);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 31 + i[1] * 7) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 17 + i[1] * 3) % 11) as f32 - 5.0);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert_eq!(fast.data(), slow.data(), "blocked kernel drifted");
    }

    #[test]
    fn nt_matches_explicit_transpose_bitwise() {
        let (m, k, n) = (21, 130, 37);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 5 + i[1]) % 9) as f32 - 4.0);
        let b = Tensor::from_fn(&[n, k], |i| ((i[0] + i[1] * 11) % 7) as f32 - 3.0);
        let fused = matmul_nt(&a, &b).unwrap();
        let explicit = matmul(&a, &b.transpose_last2().unwrap()).unwrap();
        assert_eq!(fused.shape(), &[m, n]);
        assert_eq!(fused.data(), explicit.data(), "matmul_nt drifted");
    }

    #[test]
    fn tn_matches_explicit_transpose_bitwise() {
        let (m, k, n) = (34, 77, 19);
        let a = Tensor::from_fn(&[k, m], |i| ((i[0] * 3 + i[1] * 13) % 8) as f32 - 3.5);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 7 + i[1]) % 6) as f32 - 2.0);
        let fused = matmul_tn(&a, &b).unwrap();
        let explicit = matmul(&a.transpose_last2().unwrap(), &b).unwrap();
        assert_eq!(fused.shape(), &[m, n]);
        assert_eq!(fused.data(), explicit.data(), "matmul_tn drifted");
    }

    #[test]
    fn nt_tn_broadcast_batches() {
        let a = Tensor::from_fn(&[2, 1, 4, 6], |i| (i[0] + i[2] * 2 + i[3]) as f32);
        let b = Tensor::from_fn(&[3, 5, 6], |i| (i[0] * 2 + i[1] + i[2]) as f32);
        let fused = matmul_nt(&a, &b).unwrap();
        let explicit = matmul(&a, &b.transpose_last2().unwrap()).unwrap();
        assert_eq!(fused.shape(), &[2, 3, 4, 5]);
        assert_eq!(fused.data(), explicit.data());

        let at = Tensor::from_fn(&[2, 1, 6, 4], |i| (i[0] + i[2] * 2 + i[3]) as f32);
        let bt = Tensor::from_fn(&[3, 6, 5], |i| (i[0] * 2 + i[1] + i[2]) as f32);
        let fused = matmul_tn(&at, &bt).unwrap();
        let explicit = matmul(&at.transpose_last2().unwrap(), &bt).unwrap();
        assert_eq!(fused.shape(), &[2, 3, 4, 5]);
        assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn degenerate_dims_produce_empty_or_zero() {
        // k == 0: sums over nothing -> zeros of shape [m, n].
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 4]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        assert!(c.data().iter().all(|&x| x == 0.0));
        // m == 0: empty output.
        let c = matmul(&Tensor::zeros(&[0, 5]), &Tensor::zeros(&[5, 2])).unwrap();
        assert_eq!(c.shape(), &[0, 2]);
        assert!(c.is_empty());
        // Same through the transposed entry points.
        let c = matmul_nt(&Tensor::zeros(&[3, 0]), &Tensor::zeros(&[4, 0])).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        let c = matmul_tn(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[0, 4])).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
    }

    #[test]
    fn single_matrix_crossing_threshold_splits_rows() {
        // The seed kernel refused to parallelize `batch == 1`; the row
        // splitter must not. [1, 512, 512] @ [512, 512] crosses the
        // FLOP threshold with a unit batch.
        let (_, tasks) = decompose(1, 512, 512 * 512 * 512, 8);
        assert!(
            tasks.len() > 1,
            "batch == 1 product over the threshold must row-split"
        );
        assert_eq!(tasks.iter().map(|t| t.2 - t.1).sum::<usize>(), 512);
        // And the full-size product, actually routed through the split
        // (force a multi-thread cap on single-core CI hosts), agrees
        // with the reference bitwise. Flipping the global cap is safe
        // around concurrent tests: every path is thread-count-invariant.
        let a = Tensor::from_fn(&[1, 512, 512], |i| ((i[1] * 3 + i[2]) % 5) as f32 - 2.0);
        let b = Tensor::from_fn(&[512, 512], |i| ((i[0] + i[1] * 7) % 9) as f32 - 4.0);
        let before = stwa_pool::current_threads();
        stwa_pool::set_threads(4);
        let fast = matmul(&a, &b).unwrap();
        stwa_pool::set_threads(before);
        let slow = matmul_reference(&a, &b).unwrap();
        assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn packed_matmul_bitwise_matches_matmul_and_reference() {
        // Ragged in every blocking dimension, large enough that the
        // per-call path would take the blocked kernel.
        let (m, k, n) = (67, 301, 53);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 31 + i[1] * 7) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 17 + i[1] * 3) % 11) as f32 - 5.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let pre = matmul_packed(&a, &packed).unwrap();
        assert_eq!(pre.shape(), &[m, n]);
        assert_eq!(pre.data(), matmul(&a, &b).unwrap().data());
        assert_eq!(pre.data(), matmul_reference(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_small_product_matches_naive_path() {
        // Below BLOCKED_MIN_FLOPS the per-call path runs the naive
        // kernel; the packed path always runs blocked. The order
        // contract says they agree bitwise anyway.
        let (m, k, n) = (3, 5, 7);
        let a = Tensor::from_fn(&[m, k], |i| (i[0] * 5 + i[1]) as f32 * 0.37 - 1.0);
        let b = Tensor::from_fn(&[k, n], |i| (i[0] + i[1] * 3) as f32 * 0.21 - 2.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let pre = matmul_packed(&a, &packed).unwrap();
        assert_eq!(pre.data(), matmul(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_flattens_leading_axes() {
        // [2, 3, 4, k] @ packed [k, n] == matmul with broadcast B.
        let (k, n) = (19, 9);
        let a = Tensor::from_fn(&[2, 3, 4, k], |i| {
            ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 12) as f32 - 5.5
        });
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] * 2 + i[1] * 13) % 9) as f32 - 4.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let pre = matmul_packed(&a, &packed).unwrap();
        assert_eq!(pre.shape(), &[2, 3, 4, n]);
        assert_eq!(pre.data(), matmul(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_threaded_split_matches_reference() {
        let (m, k, n) = (257, 64, 192);
        let a = Tensor::from_fn(&[m, k], |i| ((i[0] * 3 + i[1]) % 5) as f32 - 2.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i[0] + i[1] * 7) % 9) as f32 - 4.0);
        let packed = PackedMatrix::pack(&b).unwrap();
        let before = stwa_pool::current_threads();
        stwa_pool::set_threads(4);
        let pre = matmul_packed(&a, &packed).unwrap();
        stwa_pool::set_threads(before);
        assert_eq!(pre.data(), matmul_reference(&a, &b).unwrap().data());
    }

    #[test]
    fn packed_matmul_validates_shapes() {
        assert!(PackedMatrix::pack(&Tensor::zeros(&[2, 3, 4])).is_err());
        let packed = PackedMatrix::pack(&Tensor::zeros(&[5, 4])).unwrap();
        assert_eq!((packed.k(), packed.n()), (5, 4));
        assert!(matmul_packed(&Tensor::zeros(&[3]), &packed).is_err());
        assert!(matmul_packed(&Tensor::zeros(&[3, 6]), &packed).is_err());
        // k == 0 sums over nothing -> zeros; m == 0 -> empty.
        let empty_k = PackedMatrix::pack(&Tensor::zeros(&[0, 4])).unwrap();
        let c = matmul_packed(&Tensor::zeros(&[3, 0]), &empty_k).unwrap();
        assert_eq!(c.shape(), &[3, 4]);
        assert!(c.data().iter().all(|&x| x == 0.0));
        let c = matmul_packed(&Tensor::zeros(&[0, 5]), &packed).unwrap();
        assert_eq!(c.shape(), &[0, 4]);
    }

    #[test]
    fn decompose_prefers_batch_split_when_batch_is_wide() {
        let (split, tasks) = decompose(16, 64, PARALLEL_FLOP_THRESHOLD, 4);
        assert_eq!(split, Split::Batch);
        assert_eq!(tasks.len(), 16);
        let (split, _) = decompose(16, 64, PARALLEL_FLOP_THRESHOLD - 1, 4);
        assert_eq!(split, Split::None);
        let (split, tasks) = decompose(2, 512, PARALLEL_FLOP_THRESHOLD, 4);
        assert_eq!(split, Split::Rows);
        assert!(tasks.len() >= 4);
    }
}
