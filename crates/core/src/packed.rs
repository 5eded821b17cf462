//! Pre-packed dense layers: frozen `Linear`/`Mlp` weights re-laid into
//! the GEMM panel format at freeze time, so serving skips the per-call
//! B-matrix pack entirely. Each packed layer carries its panels at one
//! of three [`Precision`]s — f32 (bitwise-equal serving), bf16, or
//! symmetric int8 (see `stwa_tensor::quant`).
//!
//! Every f32 forward here follows the corresponding `stwa-nn` graph
//! layer op for op; `matmul_packed_lean` is bitwise identical to
//! `matmul` by the kernel accumulation-order contract (the lean entry
//! runs the same prepacked kernel minus the per-call span/counter/pool
//! dispatch), so an f32 packed layer's output matches the
//! training-graph eval path bit-for-bit. The quantized precisions
//! trade that bitwise contract for smaller panels; their correctness is
//! gated by the round-trip error bounds and the end-to-end forecast
//! accuracy gate instead (DESIGN.md §14).

use stwa_nn::layers::{Activation, Linear, Mlp};
use stwa_tensor::linalg::{matmul_packed_lean, PackedMatrix};
use stwa_tensor::quant::{
    matmul_packed_bf16_lean, matmul_packed_int8_lean, PackedMatrixBf16, PackedMatrixInt8,
    Precision,
};
use stwa_tensor::{mathfn, Result, Tensor, TensorError};

/// One weight matrix packed at a chosen [`Precision`].
enum PackedPanels {
    F32(PackedMatrix),
    Bf16(PackedMatrixBf16),
    Int8(PackedMatrixInt8),
}

impl PackedPanels {
    fn pack(w: &Tensor, precision: Precision) -> Result<PackedPanels> {
        Ok(match precision {
            Precision::F32 => PackedPanels::F32(PackedMatrix::pack(w)?),
            Precision::Bf16 => PackedPanels::Bf16(PackedMatrixBf16::pack(w)?),
            Precision::Int8 => PackedPanels::Int8(PackedMatrixInt8::pack(w)?),
        })
    }

    fn matmul_lean(&self, x: &Tensor) -> Result<Tensor> {
        match self {
            PackedPanels::F32(p) => matmul_packed_lean(x, p),
            PackedPanels::Bf16(p) => matmul_packed_bf16_lean(x, p),
            PackedPanels::Int8(p) => matmul_packed_int8_lean(x, p),
        }
    }

    fn packed_bytes(&self) -> usize {
        match self {
            PackedPanels::F32(p) => p.packed_bytes(),
            PackedPanels::Bf16(p) => p.packed_bytes(),
            PackedPanels::Int8(p) => p.packed_bytes(),
        }
    }

    fn precision(&self) -> Precision {
        match self {
            PackedPanels::F32(_) => Precision::F32,
            PackedPanels::Bf16(_) => Precision::Bf16,
            PackedPanels::Int8(_) => Precision::Int8,
        }
    }
}

/// A frozen [`Linear`]: panel-packed weight plus a bias snapshot.
pub struct PackedDense {
    panels: PackedPanels,
    bias: Option<Tensor>,
    in_dim: usize,
    out_dim: usize,
}

impl PackedDense {
    /// Snapshot and pack a linear layer's current parameters at f32
    /// (the bitwise-equal serving precision).
    pub fn from_linear(layer: &Linear) -> Result<PackedDense> {
        PackedDense::from_linear_at(layer, Precision::F32)
    }

    /// Snapshot and pack a linear layer at the given precision. The
    /// bias stays f32 at every precision — it is O(n) against the
    /// weight's O(k·n) and is added post-GEMM in f32 regardless.
    pub fn from_linear_at(layer: &Linear, precision: Precision) -> Result<PackedDense> {
        let w = layer.weight_param().value();
        Ok(PackedDense {
            panels: PackedPanels::pack(&w, precision)?,
            bias: layer.bias_param().map(|b| b.value()),
            in_dim: layer.in_dim(),
            out_dim: layer.out_dim(),
        })
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Storage precision of the packed weight panels.
    pub fn precision(&self) -> Precision {
        self.panels.precision()
    }

    /// Bytes held by the packed weight panels.
    pub fn packed_bytes(&self) -> usize {
        self.panels.packed_bytes()
    }

    /// [`Linear::forward`] on the packed weight.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_act(x, Activation::Identity)
    }

    /// [`Linear::forward_act`] on the packed weight. The bias
    /// add and activation run in place on the uniquely-owned GEMM
    /// output — the same `kind.apply(a + bias)` scalar chain as both
    /// the fused `bias_add_act` zip and the unfused add-then-activate
    /// branch of the graph path (which agree bitwise), minus a dispatch
    /// and a materialization per call.
    pub fn forward_act(&self, x: &Tensor, act: Activation) -> Result<Tensor> {
        let shape = x.shape().to_vec();
        let rank = shape.len();
        if rank == 0 || shape[rank - 1] != self.in_dim {
            return Err(TensorError::Invalid(format!(
                "PackedDense: expected last dim {}, got shape {:?}",
                self.in_dim, shape
            )));
        }
        let lead: usize = shape[..rank - 1].iter().product();
        let flat = x.reshape(&[lead, self.in_dim])?;
        let mut y = self.panels.matmul_lean(&flat)?;
        // Bias pass, then one wide activation pass over the whole
        // buffer — per element the same add-then-apply chain as the
        // interleaved `kind.apply(a + bias)` zip, so both the fused and
        // unfused graph branches (which agree bitwise) are matched.
        if let Some(b) = &self.bias {
            let bd = b.data();
            for row in y.data_mut().chunks_exact_mut(self.out_dim) {
                for (o, &bv) in row.iter_mut().zip(bd.iter()) {
                    *o += bv;
                }
            }
        }
        match act {
            Activation::Identity => {}
            Activation::Tanh => mathfn::tanh_slice(y.data_mut()),
            Activation::Sigmoid => mathfn::sigmoid_slice(y.data_mut()),
            Activation::Relu => {
                for o in y.data_mut().iter_mut() {
                    *o = o.max(0.0);
                }
            }
        }
        let mut out_shape = shape[..rank - 1].to_vec();
        out_shape.push(self.out_dim);
        y.reshape(&out_shape)
    }
}

/// A frozen [`Mlp`]: every layer packed, activations snapshotted.
pub struct PackedMlp {
    layers: Vec<PackedDense>,
    activations: Vec<Activation>,
}

impl PackedMlp {
    pub fn from_mlp(mlp: &Mlp) -> Result<PackedMlp> {
        PackedMlp::from_mlp_at(mlp, Precision::F32)
    }

    pub fn from_mlp_at(mlp: &Mlp, precision: Precision) -> Result<PackedMlp> {
        Ok(PackedMlp {
            layers: mlp
                .layers()
                .iter()
                .map(|l| PackedDense::from_linear_at(l, precision))
                .collect::<Result<Vec<_>>>()?,
            activations: mlp.activations().to_vec(),
        })
    }

    /// [`Mlp::forward`] over the packed layers.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut h = x.clone();
        for (layer, act) in self.layers.iter().zip(&self.activations) {
            h = layer.forward_act(&h, *act)?;
        }
        Ok(h)
    }

    pub fn packed_bytes(&self) -> usize {
        self.layers.iter().map(PackedDense::packed_bytes).sum()
    }
}

/// A frozen bias-free square weight used outside the `Linear` shape
/// discipline (the Eq. 12 gate matrices): packed panels applied to any
/// `[..., k]` input by flattening the leading axes, exactly as the
/// graph path's broadcast matmul does.
pub struct PackedWeight {
    panels: PackedPanels,
}

impl PackedWeight {
    pub fn pack(w: &Tensor) -> Result<PackedWeight> {
        PackedWeight::pack_at(w, Precision::F32)
    }

    pub fn pack_at(w: &Tensor, precision: Precision) -> Result<PackedWeight> {
        Ok(PackedWeight {
            panels: PackedPanels::pack(w, precision)?,
        })
    }

    pub fn matmul(&self, x: &Tensor) -> Result<Tensor> {
        self.panels.matmul_lean(x)
    }

    pub fn packed_bytes(&self) -> usize {
        self.panels.packed_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_autograd::Graph;
    use stwa_nn::ParamStore;
    use stwa_tensor::linalg;

    #[test]
    fn packed_dense_bitwise_matches_linear_graph() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(&store, "l", 9, 13, &mut rng);
        let packed = PackedDense::from_linear(&layer).unwrap();
        let x = Tensor::randn(&[4, 6, 9], &mut rng);
        let g = Graph::new();
        let want = layer
            .forward_act(&g, &g.constant(x.clone()), Activation::Tanh)
            .unwrap()
            .value();
        let got = packed.forward_act(&x, Activation::Tanh).unwrap();
        assert_eq!(want.data(), got.data());
        assert!(packed.packed_bytes() > 0);
        assert_eq!(packed.precision(), Precision::F32);
        // Wrong trailing dim rejected.
        assert!(packed.forward(&Tensor::zeros(&[2, 8])).is_err());
    }

    #[test]
    fn packed_mlp_bitwise_matches_mlp_graph() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(
            &store,
            "m",
            &[7, 11, 5],
            &[Activation::Relu, Activation::Identity],
            &mut rng,
        );
        let packed = PackedMlp::from_mlp(&mlp).unwrap();
        let x = Tensor::randn(&[3, 7], &mut rng);
        let g = Graph::new();
        assert_eq!(
            mlp.forward(&g, &g.constant(x.clone())).unwrap().value().data(),
            packed.forward(&x).unwrap().data()
        );
    }

    #[test]
    fn packed_weight_bitwise_matches_broadcast_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::randn(&[8, 8], &mut rng);
        let packed = PackedWeight::pack(&w).unwrap();
        let x = Tensor::randn(&[2, 3, 4, 8], &mut rng);
        assert_eq!(
            linalg::matmul(&x, &w).unwrap().data(),
            packed.matmul(&x).unwrap().data()
        );
    }

    #[test]
    fn quantized_dense_tracks_its_precision_and_shrinks() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Linear::new(&store, "q", 64, 48, &mut rng);
        let f32p = PackedDense::from_linear(&layer).unwrap();
        let bf16 = PackedDense::from_linear_at(&layer, Precision::Bf16).unwrap();
        let int8 = PackedDense::from_linear_at(&layer, Precision::Int8).unwrap();
        assert_eq!(bf16.precision(), Precision::Bf16);
        assert_eq!(int8.precision(), Precision::Int8);
        assert!(bf16.packed_bytes() < f32p.packed_bytes());
        assert!(int8.packed_bytes() < bf16.packed_bytes());
        // Quantized forwards stay close to the f32 forward on
        // unit-scale inputs.
        let x = Tensor::randn(&[5, 64], &mut rng);
        let want = f32p.forward_act(&x, Activation::Tanh).unwrap();
        for (label, got) in [
            ("bf16", bf16.forward_act(&x, Activation::Tanh).unwrap()),
            ("int8", int8.forward_act(&x, Activation::Tanh).unwrap()),
        ] {
            let mae: f32 = want
                .data()
                .iter()
                .zip(got.data())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / want.len() as f32;
            assert!(mae < 0.05, "{label}: MAE {mae}");
        }
    }
}
