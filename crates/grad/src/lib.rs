//! Finite-difference gradient checking over [`ull_tensor::Tensor`].
//!
//! This crate is the *gradient oracle* of the workspace: the hand-written
//! backward passes in `ull-nn` are checked against central finite
//! differences with [`check_gradient`]. It is not the training hot path —
//! the manual layer implementations are — so it favours clarity over
//! speed.
//!
//! # Example
//!
//! ```
//! use ull_grad::check_gradient;
//! use ull_tensor::Tensor;
//!
//! // f(x) = Σ x², whose gradient is 2x.
//! let x = Tensor::from_slice(&[1.0, -2.0, 0.5]);
//! let analytic = x.scale(2.0);
//! let mut f = |t: &Tensor| t.data().iter().map(|v| v * v).sum::<f32>();
//! let report = check_gradient(&mut f, &x, &analytic, 1e-3, 1);
//! assert!(report.passes(1e-3));
//! assert_eq!(report.checked, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;

pub use check::{check_gradient, GradCheckReport};
