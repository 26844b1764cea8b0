//! Central finite-difference gradient checking.
//!
//! [`check_gradient`] compares an analytic gradient against the
//! central-difference estimate `(f(x+ε) − f(x−ε)) / 2ε` coordinate by
//! coordinate and reports the worst relative error. `ull-nn`'s tests check
//! its manual backward pass for conv weights and the threshold μ with it.

use ull_tensor::Tensor;

/// Outcome of a finite-difference gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest relative error found across checked coordinates.
    pub max_rel_error: f32,
    /// Largest absolute error found across checked coordinates.
    pub max_abs_error: f32,
    /// Largest per-coordinate `min(rel, abs)` error. A coordinate is only
    /// genuinely wrong when *both* its relative and absolute errors are
    /// large: near-zero gradients inflate rel, large gradients inflate abs.
    pub max_pointwise_error: f32,
    /// Index of the worst coordinate.
    pub worst_index: usize,
    /// Number of coordinates checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// `true` if every checked coordinate has either a relative or an
    /// absolute error below `tol`.
    ///
    /// The criterion is per-coordinate: taking the OR of the *global*
    /// maxima instead would couple unrelated coordinates (one with a
    /// harmless large-rel/small-abs error and another with a harmless
    /// small-rel/large-abs error would jointly fail).
    pub fn passes(&self, tol: f32) -> bool {
        self.max_pointwise_error < tol
    }
}

/// Checks `analytic` against finite differences of `f` at `x`.
///
/// `f` must be a pure function of `x` (deterministic, no internal RNG
/// advancement), and should return the *scalar* loss. When `stride > 1`
/// only every `stride`-th coordinate is probed — useful for big tensors.
///
/// # Panics
///
/// Panics if `analytic.shape() != x.shape()` or `stride == 0`.
pub fn check_gradient(
    f: &mut dyn FnMut(&Tensor) -> f32,
    x: &Tensor,
    analytic: &Tensor,
    eps: f32,
    stride: usize,
) -> GradCheckReport {
    assert_eq!(
        x.shape(),
        analytic.shape(),
        "gradient shape must match input shape"
    );
    assert!(stride > 0, "stride must be positive");
    let mut max_rel = 0.0f32;
    let mut max_abs = 0.0f32;
    let mut max_pointwise = 0.0f32;
    let mut worst = 0usize;
    let mut checked = 0usize;
    for i in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
        let an = analytic.data()[i];
        let abs = (fd - an).abs();
        let rel = abs / fd.abs().max(an.abs()).max(1e-4);
        if rel.min(abs) > max_pointwise {
            max_pointwise = rel.min(abs);
            worst = i;
        }
        max_rel = max_rel.max(rel);
        max_abs = max_abs.max(abs);
        checked += 1;
    }
    GradCheckReport {
        max_rel_error: max_rel,
        max_abs_error: max_abs,
        max_pointwise_error: max_pointwise,
        worst_index: worst,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catches_a_wrong_gradient() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        // f = sum of squares, true grad = 2x, feed a wrong one.
        let wrong = Tensor::from_slice(&[2.0, 100.0]);
        let mut f = |t: &Tensor| t.data().iter().map(|v| v * v).sum::<f32>();
        let rep = check_gradient(&mut f, &x, &wrong, 1e-3, 1);
        assert!(!rep.passes(1e-2));
        assert_eq!(rep.worst_index, 1);
    }

    #[test]
    fn passes_a_correct_gradient() {
        let x = Tensor::from_slice(&[1.0, -2.0, 0.5]);
        let correct = x.scale(2.0);
        let mut f = |t: &Tensor| t.data().iter().map(|v| v * v).sum::<f32>();
        let rep = check_gradient(&mut f, &x, &correct, 1e-3, 1);
        assert!(rep.passes(1e-3), "worst rel {}", rep.max_rel_error);
        assert_eq!(rep.checked, 3);
    }

    #[test]
    fn stride_skips_coordinates() {
        let x = Tensor::zeros(&[10]);
        let g = Tensor::zeros(&[10]);
        let mut f = |_: &Tensor| 0.0;
        let rep = check_gradient(&mut f, &x, &g, 1e-3, 3);
        assert_eq!(rep.checked, 4); // indices 0,3,6,9
    }
}
