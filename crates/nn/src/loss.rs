//! Loss functions: Huber (paper Eq. 21), MSE/MAE, and the KL regularizer
//! from the paper's Eq. 20.

use stwa_autograd::Var;
use stwa_tensor::Result;

/// Elementwise Huber loss, averaged over all elements (paper Eq. 21).
///
/// ```text
/// H(x, x̂) = 0.5 (x - x̂)^2            if |x - x̂| <= delta
///           delta (|x - x̂| - delta/2)  otherwise
/// ```
///
/// `target` is normally a constant; gradients flow through `pred`.
///
/// When the shapes match exactly this records a single fused tape node
/// instead of the seven-node sub/abs/square/where/mean chain; the fused
/// node replicates the chain's arithmetic bit for bit (see
/// `fused_huber_bitwise_matches_reference`). Shapes that only
/// broadcast together take [`huber_reference`].
pub fn huber(pred: &Var, target: &Var, delta: f32) -> Result<Var> {
    if pred.shape() == target.shape() {
        return pred.huber_loss(target, delta);
    }
    huber_reference(pred, target, delta)
}

/// The unfused Huber chain the fused op must match bit for bit: the
/// path for broadcasting shapes, and the equality oracle for `huber`.
pub fn huber_reference(pred: &Var, target: &Var, delta: f32) -> Result<Var> {
    let diff = pred.sub(target)?;
    let absd = diff.abs();
    // Branch mask from the forward values; constant wrt gradients, which
    // matches the loss being non-smooth only on |diff| == delta.
    let mask = absd.value().map(|x| if x <= delta { 1.0 } else { 0.0 });
    let quadratic = diff.square()?.mul_scalar(0.5);
    let linear = absd.mul_scalar(delta).add_scalar(-0.5 * delta * delta);
    quadratic.where_mask(&mask, &linear)?.mean_all()
}

/// Mean squared error.
pub fn mse(pred: &Var, target: &Var) -> Result<Var> {
    pred.sub(target)?.square()?.mean_all()
}

/// Mean absolute error.
pub fn mae(pred: &Var, target: &Var) -> Result<Var> {
    pred.sub(target)?.abs().mean_all()
}

/// KL divergence `KL(N(mu, diag(exp(logvar))) || N(0, I))`, averaged over
/// every latent coordinate in the batch:
///
/// ```text
/// KL = 0.5 * (exp(logvar) + mu^2 - 1 - logvar)
/// ```
///
/// The paper regularizes the learned posterior of `Theta_t` toward the
/// standard-normal prior (Eq. 20); `alpha` scaling is applied by the
/// caller.
pub fn kl_standard_normal(mu: &Var, logvar: &Var) -> Result<Var> {
    let var = logvar.exp();
    let mu2 = mu.square()?;
    let term = var.add(&mu2)?.add_scalar(-1.0).sub(logvar)?;
    term.mul_scalar(0.5).mean_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stwa_autograd::{check_gradient, Graph};
    use stwa_tensor::Tensor;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn huber_quadratic_inside_delta() {
        let g = Graph::new();
        let pred = g.constant(t(&[0.5], &[1]));
        let target = g.constant(t(&[0.0], &[1]));
        let l = huber(&pred, &target, 1.0).unwrap();
        assert!((l.value().item().unwrap() - 0.125).abs() < 1e-6);
    }

    #[test]
    fn huber_linear_outside_delta() {
        let g = Graph::new();
        let pred = g.constant(t(&[3.0], &[1]));
        let target = g.constant(t(&[0.0], &[1]));
        // delta (|diff| - delta/2) = 1 * (3 - 0.5) = 2.5
        let l = huber(&pred, &target, 1.0).unwrap();
        assert!((l.value().item().unwrap() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn huber_matches_mse_times_half_for_small_errors() {
        let g = Graph::new();
        let pred = g.constant(t(&[0.1, -0.2, 0.05], &[3]));
        let target = g.constant(t(&[0.0, 0.0, 0.0], &[3]));
        let h = huber(&pred, &target, 10.0).unwrap().value().item().unwrap();
        let m = mse(&pred, &target).unwrap().value().item().unwrap();
        assert!((h - 0.5 * m).abs() < 1e-6);
    }

    #[test]
    fn huber_is_less_than_half_mse_for_outliers() {
        let g = Graph::new();
        let pred = g.constant(t(&[100.0], &[1]));
        let target = g.constant(t(&[0.0], &[1]));
        let h = huber(&pred, &target, 1.0).unwrap().value().item().unwrap();
        let m = mse(&pred, &target).unwrap().value().item().unwrap();
        assert!(h < 0.5 * m, "Huber should damp outliers: {h} vs {m}");
    }

    #[test]
    fn huber_gradient_checks() {
        let x = t(&[0.2, -0.4, 2.0, -3.0], &[4]);
        let report = check_gradient(&x, 1e-2, |v| {
            let target = v.graph().constant(Tensor::zeros(&[4]));
            huber(v, &target, 1.0)
        })
        .unwrap();
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn mae_and_mse_values() {
        let g = Graph::new();
        let pred = g.constant(t(&[1.0, -1.0], &[2]));
        let target = g.constant(t(&[0.0, 0.0], &[2]));
        assert_eq!(mae(&pred, &target).unwrap().value().item().unwrap(), 1.0);
        assert_eq!(mse(&pred, &target).unwrap().value().item().unwrap(), 1.0);
    }

    #[test]
    fn kl_zero_at_standard_normal() {
        let g = Graph::new();
        let mu = g.constant(Tensor::zeros(&[4]));
        let logvar = g.constant(Tensor::zeros(&[4]));
        let kl = kl_standard_normal(&mu, &logvar).unwrap();
        assert!(kl.value().item().unwrap().abs() < 1e-7);
    }

    #[test]
    fn kl_positive_away_from_prior() {
        let g = Graph::new();
        for (m, lv) in [(1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (-2.0, 0.5)] {
            let mu = g.constant(Tensor::full(&[4], m));
            let logvar = g.constant(Tensor::full(&[4], lv));
            let kl = kl_standard_normal(&mu, &logvar)
                .unwrap()
                .value()
                .item()
                .unwrap();
            assert!(
                kl > 0.0,
                "KL must be positive at mu={m}, logvar={lv}, got {kl}"
            );
        }
    }

    #[test]
    fn kl_gradient_checks() {
        let mu0 = t(&[0.3, -0.6], &[2]);
        let report = check_gradient(&mu0, 1e-2, |v| {
            let logvar = v.graph().constant(t(&[0.2, -0.3], &[2]));
            kl_standard_normal(v, &logvar)
        })
        .unwrap();
        assert!(report.passes(2e-2), "mu grad: {report:?}");

        let lv0 = t(&[0.4, -0.5], &[2]);
        let report = check_gradient(&lv0, 1e-2, |v| {
            let mu = v.graph().constant(t(&[0.1, 0.7], &[2]));
            kl_standard_normal(&mu, v)
        })
        .unwrap();
        assert!(report.passes(2e-2), "logvar grad: {report:?}");
    }
}
