//! Training and evaluation loops for DNNs.

use std::fmt;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use ull_data::{Augment, Dataset};

use crate::{cross_entropy_grad, cross_entropy_loss, LrSchedule, Network, Sgd};

/// Typed numeric-failure errors raised by the training loops.
///
/// Training close to degenerate regimes (trainable thresholds, surrogate
/// gradients on a near-step function) can blow up into NaN/Inf; the
/// `_with_hook` epoch loops surface that as data instead of poisoning the
/// run, so a supervisor can roll back to a checkpoint and retry.
/// (No serde: a NaN loss has no faithful JSON representation; recovery
/// logs record `Display` strings instead.)
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The batch loss came out NaN or ±∞.
    NonFiniteLoss {
        /// 0-based batch index within the epoch.
        batch: usize,
        /// The offending loss value (serialized as `null` in JSON).
        loss: f32,
    },
    /// A parameter gradient contains NaN or ±∞ (caught *before* the
    /// optimizer step, so parameter values are still clean).
    NonFiniteGrad {
        /// 0-based batch index within the epoch.
        batch: usize,
        /// Index of the parameter in `visit_params` order.
        param: usize,
        /// How many of its elements are non-finite.
        bad_elems: usize,
    },
    /// A recovery supervisor exhausted its retry budget: the run kept
    /// failing numerically even after rollback and LR backoff.
    Diverged {
        /// Phase label of the failing training loop (e.g. `"dnn-train"`).
        phase: String,
        /// Epoch that kept failing.
        epoch: usize,
        /// Number of rollback-and-retry attempts that were made.
        retries: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NonFiniteLoss { batch, loss } => {
                write!(f, "non-finite loss {loss} at batch {batch}")
            }
            TrainError::NonFiniteGrad {
                batch,
                param,
                bad_elems,
            } => write!(
                f,
                "non-finite gradient in param {param} ({bad_elems} element(s)) at batch {batch}"
            ),
            TrainError::Diverged {
                phase,
                epoch,
                retries,
            } => write!(
                f,
                "training diverged in phase {phase} at epoch {epoch} after {retries} retries"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Configuration of one DNN training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Augmentation padding for random crops (0 disables).
    pub augment_pad: usize,
    /// Whether to apply random horizontal flips.
    pub augment_flip: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 32,
            augment_pad: 2,
            augment_flip: true,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Training top-1 accuracy over the epoch (with augmentation applied).
    pub accuracy: f32,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

/// Runs one training epoch of `net` on `train`, updating parameters with
/// `sgd` at learning-rate factor `lr_factor` (see [`LrSchedule::factor`]).
///
/// # Panics
///
/// Panics with the [`TrainError`] message on the first non-finite loss or
/// gradient; [`train_epoch_with_hook`] returns it instead.
pub fn train_epoch(
    net: &mut Network,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &TrainConfig,
    rng: &mut StdRng,
) -> EpochStats {
    train_epoch_with_hook(net, train, sgd, lr_factor, cfg, rng, &mut |_, _| {})
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The DNN epoch loop. Validates the loss and every gradient before each
/// optimizer step and aborts the epoch with a typed [`TrainError`] on the
/// first NaN/Inf, leaving parameter *values* untouched by the bad step.
///
/// `hook` is called with `(net, batch_index)` after the backward pass and
/// *before* the finite checks and the optimizer step. It is the seam the
/// deterministic fault-injection harness (`ull-core`'s `FaultPlan`) uses to
/// poison a gradient tensor at an exact, reproducible point; pass
/// `&mut |_, _| {}` for none.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] or [`TrainError::NonFiniteGrad`] at the
/// first numerically broken batch.
pub fn train_epoch_with_hook(
    net: &mut Network,
    train: &Dataset,
    sgd: &Sgd,
    lr_factor: f32,
    cfg: &TrainConfig,
    rng: &mut StdRng,
    hook: &mut dyn FnMut(&mut Network, usize),
) -> Result<EpochStats, TrainError> {
    let _span = ull_obs::span("nn.train_epoch");
    let start = std::time::Instant::now();
    let augment = Augment {
        pad: cfg.augment_pad,
        flip: cfg.augment_flip,
    };
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let mut seen = 0usize;
    for (b, mut batch) in train.epoch_batches(cfg.batch_size, rng).enumerate() {
        ull_obs::counter_add("nn.train.batches", 1);
        augment.apply(&mut batch.images, rng);
        let tape = net.forward_train(&batch.images, rng);
        let logits = &tape[net.output()].activation;
        let loss = cross_entropy_loss(logits, &batch.labels);
        if !loss.is_finite() {
            return Err(TrainError::NonFiniteLoss { batch: b, loss });
        }
        let grad = cross_entropy_grad(logits, &batch.labels);
        for (pred, &label) in logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        total_loss += loss as f64 * batch.labels.len() as f64;
        seen += batch.labels.len();
        net.zero_grad();
        net.backward(&tape, &grad);
        hook(net, b);
        check_grads_finite(net, b)?;
        sgd.step(net, lr_factor);
    }
    Ok(EpochStats {
        loss: (total_loss / seen.max(1) as f64) as f32,
        accuracy: correct as f32 / seen.max(1) as f32,
        seconds: start.elapsed().as_secs_f64(),
    })
}

fn check_grads_finite(net: &Network, batch: usize) -> Result<(), TrainError> {
    let mut bad: Option<(usize, usize)> = None;
    let mut idx = 0usize;
    net.visit_params(|p| {
        if bad.is_none() && !p.grad.all_finite() {
            bad = Some((idx, p.grad.count_nonfinite()));
        }
        idx += 1;
    });
    match bad {
        Some((param, bad_elems)) => Err(TrainError::NonFiniteGrad {
            batch,
            param,
            bad_elems,
        }),
        None => Ok(()),
    }
}

/// Top-1 accuracy of `net` on `data` (evaluation mode, no augmentation).
pub fn evaluate(net: &Network, data: &Dataset, batch_size: usize) -> f32 {
    let _span = ull_obs::span("nn.evaluate");
    let mut correct = 0usize;
    let mut seen = 0usize;
    for batch in data.eval_batches(batch_size) {
        let logits = net.forward_eval(&batch.images);
        for (pred, &label) in logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        seen += batch.labels.len();
    }
    correct as f32 / seen.max(1) as f32
}

/// Trains `net` for `epochs` epochs with the paper's LR schedule, returning
/// per-epoch statistics. Convenience wrapper over [`train_epoch`].
pub fn train(
    net: &mut Network,
    train_data: &Dataset,
    epochs: usize,
    sgd: &Sgd,
    cfg: &TrainConfig,
    rng: &mut StdRng,
) -> Vec<EpochStats> {
    let schedule = LrSchedule::paper(epochs);
    (0..epochs)
        .map(|e| train_epoch(net, train_data, sgd, schedule.factor(e), cfg, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkBuilder, SgdConfig};
    use ull_data::{generate, SynthCifarConfig};
    use ull_tensor::init::seeded_rng;

    fn small_net(classes: usize, size: usize) -> Network {
        let mut b = NetworkBuilder::new(3, size, 17);
        b.conv2d(8, 3, 1, 1);
        b.threshold_relu(4.0);
        b.maxpool(2);
        b.conv2d(16, 3, 1, 1);
        b.threshold_relu(4.0);
        b.maxpool(2);
        b.flatten();
        b.linear(classes);
        b.build()
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let cfg = SynthCifarConfig::tiny(4);
        let (train_data, test_data) = generate(&cfg);
        let mut net = small_net(4, cfg.image_size);
        let sgd = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        });
        let tcfg = TrainConfig {
            batch_size: 16,
            augment_pad: 0,
            augment_flip: false,
        };
        let mut rng = seeded_rng(5);
        let stats = train(&mut net, &train_data, 8, &sgd, &tcfg, &mut rng);
        assert!(
            stats.last().unwrap().loss < stats.first().unwrap().loss,
            "loss did not decrease: {:?}",
            stats.iter().map(|s| s.loss).collect::<Vec<_>>()
        );
        let acc = evaluate(&net, &test_data, 16);
        assert!(acc > 0.4, "test accuracy {acc} not above chance 0.25");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let cfg = SynthCifarConfig::tiny(4);
        let (_, test_data) = generate(&cfg);
        let net = small_net(4, cfg.image_size);
        assert_eq!(evaluate(&net, &test_data, 8), evaluate(&net, &test_data, 8));
    }

    /// `small_net` with a NaN in each weight tensor (not in the scalar
    /// thresholds μ, whose NaN would panic `clip` before the loss is even
    /// computed).
    fn nan_weight_net(classes: usize, size: usize) -> Network {
        let mut net = small_net(classes, size);
        net.visit_params_mut(|p| {
            if p.len() > 1 {
                p.value.data_mut()[0] = f32::NAN;
            }
        });
        net
    }

    #[test]
    #[should_panic(expected = "non-finite loss")]
    fn train_epoch_panics_on_nan_weights() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut net = nan_weight_net(3, cfg.image_size);
        let sgd = Sgd::new(SgdConfig::default());
        let mut rng = seeded_rng(31);
        train_epoch(
            &mut net,
            &train_data,
            &sgd,
            1.0,
            &TrainConfig::default(),
            &mut rng,
        );
    }

    #[test]
    fn checked_epoch_detects_injected_nan_gradient() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut net = small_net(3, cfg.image_size);
        let before = net.clone();
        let sgd = Sgd::new(SgdConfig::default());
        let mut rng = seeded_rng(32);
        let r = train_epoch_with_hook(
            &mut net,
            &train_data,
            &sgd,
            1.0,
            &TrainConfig::default(),
            &mut rng,
            &mut |n, b| {
                if b == 0 {
                    n.visit_params_mut(|p| p.grad.data_mut()[0] = f32::NAN);
                }
            },
        );
        match r {
            Err(TrainError::NonFiniteGrad { batch: 0, .. }) => {}
            other => panic!("expected NonFiniteGrad at batch 0, got {other:?}"),
        }
        // Caught before the step: parameter values are unpoisoned.
        let mut va = Vec::new();
        before.visit_params(|p| va.extend_from_slice(p.value.data()));
        let mut vb = Vec::new();
        net.visit_params(|p| vb.extend_from_slice(p.value.data()));
        assert_eq!(va, vb);
    }

    #[test]
    fn checked_epoch_detects_nan_weights_as_nonfinite_loss() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut net = nan_weight_net(3, cfg.image_size);
        let sgd = Sgd::new(SgdConfig::default());
        let mut rng = seeded_rng(33);
        let r = train_epoch_with_hook(
            &mut net,
            &train_data,
            &sgd,
            1.0,
            &TrainConfig::default(),
            &mut rng,
            &mut |_, _| {},
        );
        assert!(
            matches!(r, Err(TrainError::NonFiniteLoss { batch: 0, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn epoch_stats_fields_are_sane() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut net = small_net(3, cfg.image_size);
        let sgd = Sgd::new(SgdConfig::default());
        let mut rng = seeded_rng(2);
        let s = train_epoch(
            &mut net,
            &train_data,
            &sgd,
            1.0,
            &TrainConfig::default(),
            &mut rng,
        );
        assert!(s.loss.is_finite() && s.loss > 0.0);
        assert!((0.0..=1.0).contains(&s.accuracy));
        assert!(s.seconds >= 0.0);
    }
}
