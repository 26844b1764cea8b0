//! Surrogate-gradient learning (SGL): BPTT over the unrolled SNN.
//!
//! After conversion, the paper fine-tunes the SNN in the spike domain,
//! jointly training weights, thresholds and leaks [7]. The spike function
//! is discontinuous, so the backward pass uses a boxcar surrogate
//! (`∂s/∂u ≈ 1/(2V^th)` for membrane potentials in `[0, 2V^th]`, matching
//! the paper's `∂s'/∂s ≈ 1 on [0, 2αμ]`), with the membrane reset treated
//! as detached (standard in DIET-SNN-style training).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use ull_data::{Augment, Dataset};
use ull_nn::{cross_entropy_grad, cross_entropy_loss, Param, SgdConfig, TrainError};
use ull_tensor::conv::conv2d_backward;
use ull_tensor::pool::{avgpool2d_backward, maxpool2d_backward};
use ull_tensor::{matmul, matmul_transpose_a, Tensor};

use crate::network::{SnnNetwork, SnnOp, SnnTape, StepAux};
use crate::stats::SpikeStats;

impl SnnNetwork {
    /// BPTT backward pass: accumulates gradients of the mean cross-entropy
    /// (whose logit-gradient is `grad_logits`) into every parameter.
    ///
    /// # Panics
    ///
    /// Panics if the tape does not belong to this network or shapes
    /// disagree.
    pub fn backward(&mut self, tape: &SnnTape, grad_logits: &Tensor) {
        assert_eq!(
            tape.acts.first().map(|a| a.len()),
            Some(self.nodes().len()),
            "tape does not match network"
        );
        let t_steps = tape.steps;
        // dL/d(out_t) — logits are the mean over steps.
        let g_out_t = grad_logits.scale(1.0 / t_steps as f32);
        // Gradient w.r.t. each spike node's membrane U(t), carried backward
        // in time.
        let mut g_state: Vec<Option<Tensor>> = vec![None; self.nodes().len()];
        let output = self.output();
        for t in (0..t_steps).rev() {
            let mut g_node: Vec<Option<Tensor>> = vec![None; self.nodes().len()];
            g_node[output] = Some(g_out_t.clone());
            for i in (0..self.nodes().len()).rev() {
                let inputs = self.nodes()[i].inputs.clone();
                let g_spike_out = g_node[i].take();
                let has_state = g_state[i].is_some();
                if g_spike_out.is_none()
                    && !(has_state && matches!(self.nodes()[i].op, SnnOp::Spike(_)))
                {
                    continue;
                }
                match &mut self.nodes_mut()[i].op {
                    SnnOp::Input => {}
                    SnnOp::Conv2d { weight, bias, geo } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let x = &tape.acts[t][inputs[0]];
                        let (dx, dw, db) = conv2d_backward(x, &weight.value, &g, *geo);
                        weight.grad.add_assign(&dw);
                        if let Some(b) = bias {
                            b.grad.add_assign(&db);
                        }
                        accumulate(&mut g_node[inputs[0]], dx);
                    }
                    SnnOp::Linear { weight, bias } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let x = &tape.acts[t][inputs[0]];
                        let dx = matmul(&g, &weight.value);
                        let dw = matmul_transpose_a(&g, x);
                        weight.grad.add_assign(&dw);
                        if let Some(b) = bias {
                            b.grad.add_assign(&g.sum_rows());
                        }
                        accumulate(&mut g_node[inputs[0]], dx);
                    }
                    SnnOp::Spike(layer) => {
                        let (u_temp, u_prev) = match &tape.aux[t][i] {
                            StepAux::Spike { u_temp, u_prev } => (u_temp, u_prev),
                            _ => panic!("tape entry ({t},{i}) missing spike aux"),
                        };
                        let v = layer.v_th.scalar_value();
                        let lam = layer.leak.scalar_value();
                        let amp = layer.amp;
                        let inv2v = 1.0 / (2.0 * v.max(1e-6));
                        // Boxcar surrogate window 0 ≤ u ≤ 2V^th.
                        let win = u_temp.map(|u| if u >= 0.0 && u <= 2.0 * v { 1.0 } else { 0.0 });
                        // dL/dU_temp = g_s·amp·win/(2v) + g_state (detached reset).
                        let mut g_u = match &g_spike_out {
                            Some(gs) => {
                                let mut m = gs.mul(&win);
                                m.scale_in_place(amp * inv2v);
                                m
                            }
                            None => Tensor::zeros(u_temp.shape()),
                        };
                        if let Some(gst) = g_state[i].take() {
                            // Reset path threshold gradient: dU(t)/dV^th = −s.
                            let dvth_reset: f32 = u_temp
                                .data()
                                .iter()
                                .zip(gst.data())
                                .filter(|(&u, _)| u > v)
                                .map(|(_, &g)| -g)
                                .sum();
                            layer.v_th.grad.data_mut()[0] += dvth_reset;
                            g_u.add_assign(&gst);
                        }
                        // Spike-height threshold gradient via the surrogate:
                        // dS/dV^th ≈ −amp·win/(2v).
                        if let Some(gs) = &g_spike_out {
                            let dvth: f32 = gs
                                .data()
                                .iter()
                                .zip(win.data())
                                .map(|(&g, &w)| -g * w * amp * inv2v)
                                .sum();
                            layer.v_th.grad.data_mut()[0] += dvth;
                        }
                        // Leak gradient: dU_temp/dλ = U(t−1).
                        let dlam: f32 = g_u
                            .data()
                            .iter()
                            .zip(u_prev.data())
                            .map(|(&g, &u)| g * u)
                            .sum();
                        layer.leak.grad.data_mut()[0] += dlam;
                        // Into the input current of this step.
                        accumulate(&mut g_node[inputs[0]], g_u.clone());
                        // Across time: dU_temp/dU(t−1) = λ.
                        if t > 0 {
                            g_u.scale_in_place(lam);
                            g_state[i] = Some(g_u);
                        }
                    }
                    SnnOp::MaxPool2d { .. } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let argmax = match &tape.aux[t][i] {
                            StepAux::MaxPool { argmax } => argmax,
                            _ => panic!("tape entry ({t},{i}) missing argmax"),
                        };
                        let shape = tape.acts[t][inputs[0]].shape().to_vec();
                        accumulate(
                            &mut g_node[inputs[0]],
                            maxpool2d_backward(&g, argmax, &shape),
                        );
                    }
                    SnnOp::AvgPool2d { k } => {
                        let k = *k;
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let shape = tape.acts[t][inputs[0]].shape().to_vec();
                        accumulate(&mut g_node[inputs[0]], avgpool2d_backward(&g, &shape, k));
                    }
                    SnnOp::Dropout { .. } => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let dx = match &tape.masks[i] {
                            Some(mask) => g.mul(mask),
                            None => g,
                        };
                        accumulate(&mut g_node[inputs[0]], dx);
                    }
                    SnnOp::Flatten => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        let shape = tape.acts[t][inputs[0]].shape().to_vec();
                        accumulate(
                            &mut g_node[inputs[0]],
                            g.reshape(&shape).expect("flatten backward"),
                        );
                    }
                    SnnOp::Add => {
                        let g = g_spike_out.expect("non-spike nodes only carry direct grads");
                        accumulate(&mut g_node[inputs[0]], g.clone());
                        accumulate(&mut g_node[inputs[1]], g);
                    }
                }
            }
        }
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(acc) => acc.add_assign(&g),
        None => *slot = Some(g),
    }
}

/// SGD with momentum for SNNs, with stability clamps on the neuron
/// parameters after each step (`V^th ≥ 0.01`, `λ ∈ [0, 1]`).
#[derive(Debug, Clone, Copy)]
pub struct SnnSgd {
    /// Optimizer hyper-parameters (shared struct with the DNN trainer).
    pub config: SgdConfig,
    /// Optional global gradient-norm clip — BPTT through many spike layers
    /// benefits from the same stabiliser as deep batch-norm-free DNNs.
    pub max_grad_norm: Option<f32>,
}

impl SnnSgd {
    /// Creates an optimizer with the given configuration (no clipping).
    pub fn new(config: SgdConfig) -> Self {
        SnnSgd {
            config,
            max_grad_norm: None,
        }
    }

    /// Enables global gradient-norm clipping at `max_norm`.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// One update step at learning-rate factor `lr_factor`; gradients are
    /// left in place (call [`SnnNetwork::zero_grad`] afterwards).
    pub fn step(&self, net: &mut SnnNetwork, lr_factor: f32) {
        let lr = self.config.lr * lr_factor;
        let cfg = self.config;
        if let Some(max) = self.max_grad_norm {
            clip_snn_grads(net, max);
        }
        net.visit_params_mut(|p| update_param(p, lr, cfg));
        // Clamp neuron parameters to their physical ranges.
        for node in net.nodes_mut() {
            if let SnnOp::Spike(layer) = &mut node.op {
                let v = layer.v_th.value.data_mut();
                v[0] = v[0].max(0.01);
                let l = layer.leak.value.data_mut();
                l[0] = l[0].clamp(0.0, 1.0);
            }
        }
    }
}

/// Scales every gradient of `net` so the global L2 norm is at most `max`.
pub fn clip_snn_grads(net: &mut SnnNetwork, max: f32) {
    let mut total = 0.0f32;
    net.visit_params(|p| total += p.grad.norm_sq());
    let norm = total.sqrt();
    if norm > max && norm > 0.0 {
        let scale = max / norm;
        net.visit_params_mut(|p| p.grad.scale_in_place(scale));
    }
}

fn update_param(p: &mut Param, lr: f32, cfg: SgdConfig) {
    let wd = if p.decay { cfg.weight_decay } else { 0.0 };
    let n = p.value.len();
    let vals = p.value.data().to_vec();
    let grads = p.grad.data().to_vec();
    let mom = p.momentum.data_mut();
    for i in 0..n {
        mom[i] = cfg.momentum * mom[i] + grads[i] + wd * vals[i];
    }
    let mom_copy = mom.to_vec();
    let vd = p.value.data_mut();
    for i in 0..n {
        vd[i] -= lr * mom_copy[i];
    }
}

/// Configuration of SNN fine-tuning (SGL).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnnTrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of simulation time steps T.
    pub time_steps: usize,
    /// Augmentation padding (0 disables).
    pub augment_pad: usize,
    /// Random horizontal flips.
    pub augment_flip: bool,
}

impl Default for SnnTrainConfig {
    fn default() -> Self {
        SnnTrainConfig {
            batch_size: 32,
            time_steps: 2,
            augment_pad: 2,
            augment_flip: true,
        }
    }
}

/// Statistics of one SGL epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnnEpochStats {
    /// Mean training loss.
    pub loss: f32,
    /// Training accuracy.
    pub accuracy: f32,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Peak BPTT tape bytes observed (per batch).
    pub tape_bytes: usize,
}

/// One epoch of surrogate-gradient fine-tuning (paper §III-B: joint
/// training of weights, thresholds and leak after conversion).
///
/// # Panics
///
/// Panics with the [`TrainError`] message on the first non-finite loss or
/// gradient; [`train_snn_epoch_with_hook`] returns it instead.
pub fn train_snn_epoch(
    net: &mut SnnNetwork,
    train: &Dataset,
    sgd: &SnnSgd,
    lr_factor: f32,
    cfg: &SnnTrainConfig,
    rng: &mut StdRng,
) -> SnnEpochStats {
    train_snn_epoch_with_hook(net, train, sgd, lr_factor, cfg, rng, &mut |_, _| {})
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The SGL epoch loop. Validates the loss and every gradient before each
/// optimizer step and aborts the epoch with a typed [`TrainError`] on the
/// first NaN/Inf, leaving parameter *values* untouched by the bad step.
///
/// `hook` is called with `(net, batch_index)` after the BPTT backward pass
/// and *before* the finite checks and the optimizer step. It is the seam
/// the deterministic fault-injection harness (`ull-core`'s `FaultPlan`)
/// uses to poison a gradient tensor at an exact, reproducible point; pass
/// `&mut |_, _| {}` for none.
///
/// # Errors
///
/// [`TrainError::NonFiniteLoss`] or [`TrainError::NonFiniteGrad`] at the
/// first numerically broken batch.
#[allow(clippy::too_many_arguments)]
pub fn train_snn_epoch_with_hook(
    net: &mut SnnNetwork,
    train: &Dataset,
    sgd: &SnnSgd,
    lr_factor: f32,
    cfg: &SnnTrainConfig,
    rng: &mut StdRng,
    hook: &mut dyn FnMut(&mut SnnNetwork, usize),
) -> Result<SnnEpochStats, TrainError> {
    let _span = ull_obs::span("snn.train_epoch");
    let start = std::time::Instant::now();
    let augment = Augment {
        pad: cfg.augment_pad,
        flip: cfg.augment_flip,
    };
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let mut seen = 0usize;
    let mut tape_bytes = 0usize;
    for (b, mut batch) in train.epoch_batches(cfg.batch_size, rng).enumerate() {
        ull_obs::counter_add("snn.train.batches", 1);
        augment.apply(&mut batch.images, rng);
        let tape = net.forward_train(&batch.images, cfg.time_steps, rng);
        tape_bytes = tape_bytes.max(tape.memory_bytes());
        let loss = cross_entropy_loss(&tape.logits, &batch.labels);
        if !loss.is_finite() {
            return Err(TrainError::NonFiniteLoss { batch: b, loss });
        }
        let grad = cross_entropy_grad(&tape.logits, &batch.labels);
        for (pred, &label) in tape.logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        total_loss += loss as f64 * batch.labels.len() as f64;
        seen += batch.labels.len();
        net.zero_grad();
        net.backward(&tape, &grad);
        hook(net, b);
        check_snn_grads_finite(net, b)?;
        sgd.step(net, lr_factor);
    }
    Ok(SnnEpochStats {
        loss: (total_loss / seen.max(1) as f64) as f32,
        accuracy: correct as f32 / seen.max(1) as f32,
        seconds: start.elapsed().as_secs_f64(),
        tape_bytes,
    })
}

fn check_snn_grads_finite(net: &SnnNetwork, batch: usize) -> Result<(), TrainError> {
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

/// Top-1 accuracy (and merged spike statistics) of `net` on `data` with `t`
/// time steps.
pub fn evaluate_snn(
    net: &SnnNetwork,
    data: &Dataset,
    t: usize,
    batch_size: usize,
) -> (f32, SpikeStats) {
    let _span = ull_obs::span("snn.evaluate");
    let mut correct = 0usize;
    let mut seen = 0usize;
    let mut merged: Option<SpikeStats> = None;
    for batch in data.eval_batches(batch_size) {
        let out = net.forward(&batch.images, t);
        for (pred, &label) in out.logits.argmax_rows().iter().zip(&batch.labels) {
            if *pred == label {
                correct += 1;
            }
        }
        seen += batch.labels.len();
        match &mut merged {
            Some(m) => m.merge(&out.stats),
            None => merged = Some(out.stats),
        }
    }
    let stats = merged.unwrap_or_else(|| SpikeStats::new(net.nodes().len(), 0, t));
    (correct as f32 / seen.max(1) as f32, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SpikeSpec;
    use ull_data::{generate, SynthCifarConfig};
    use ull_nn::{models, NetworkBuilder};
    use ull_tensor::init::{normal, seeded_rng};

    fn make_snn(seed: u64) -> SnnNetwork {
        let mut b = NetworkBuilder::new(2, 4, seed);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(1.0);
        b.maxpool(2);
        b.flatten();
        b.linear(3);
        let dnn = b.build();
        SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(1.0)]).unwrap()
    }

    #[test]
    fn backward_produces_finite_grads_everywhere() {
        let mut snn = make_snn(1);
        let x = normal(&[2, 2, 4, 4], 0.0, 1.5, &mut seeded_rng(2));
        let tape = snn.forward_train(&x, 3, &mut seeded_rng(3));
        let grad = cross_entropy_grad(&tape.logits, &[0, 1]);
        snn.backward(&tape, &grad);
        let mut nonzero = 0;
        snn.visit_params(|p| {
            assert!(p.grad.data().iter().all(|g| g.is_finite()));
            if p.grad.data().iter().any(|&g| g != 0.0) {
                nonzero += 1;
            }
        });
        assert!(nonzero >= 3, "only {nonzero} params received gradient");
    }

    #[test]
    fn output_layer_gradient_is_exact() {
        // The path logits → final Linear is differentiable (no spike in
        // between), so finite differences must match exactly there.
        let snn = make_snn(4);
        let x = normal(&[1, 2, 4, 4], 0.0, 1.5, &mut seeded_rng(5));
        let labels = [2usize];

        let loss_of = |net: &SnnNetwork| {
            let out = net.forward(&x, 3);
            cross_entropy_loss(&out.logits, &labels)
        };

        let mut snn2 = snn.clone();
        let tape = snn2.forward_train(&x, 3, &mut seeded_rng(0));
        let grad = cross_entropy_grad(&tape.logits, &labels);
        snn2.backward(&tape, &grad);
        // Find the linear node and check a few weight coordinates.
        let lin_id = snn
            .nodes()
            .iter()
            .position(|n| matches!(n.op, SnnOp::Linear { .. }))
            .unwrap();
        let wg = match &snn2.nodes()[lin_id].op {
            SnnOp::Linear { weight, .. } => weight.grad.clone(),
            _ => unreachable!(),
        };
        let eps = 1e-2;
        for &i in &[0usize, 3, 7, 11] {
            let mut np = snn.clone();
            if let SnnOp::Linear { weight, .. } = &mut np.nodes_mut()[lin_id].op {
                weight.value.data_mut()[i] += eps;
            }
            let mut nm = snn.clone();
            if let SnnOp::Linear { weight, .. } = &mut nm.nodes_mut()[lin_id].op {
                weight.value.data_mut()[i] -= eps;
            }
            let fd = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
            assert!(
                (fd - wg.data()[i]).abs() < 1e-3,
                "i={i}: fd {fd} vs analytic {}",
                wg.data()[i]
            );
        }
    }

    #[test]
    fn sgl_training_improves_accuracy() {
        // End-to-end sanity: SGL on a tiny SynthCifar should beat chance.
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, test_data) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.5, 7);
        let specs = vec![SpikeSpec::identity(2.0); dnn.threshold_nodes().len()];
        let mut snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let sgd = SnnSgd::new(SgdConfig {
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        let tcfg = SnnTrainConfig {
            batch_size: 16,
            time_steps: 2,
            augment_pad: 0,
            augment_flip: false,
        };
        let mut rng = seeded_rng(8);
        let (acc_before, _) = evaluate_snn(&snn, &test_data, 2, 16);
        let mut last = 0.0;
        for _ in 0..6 {
            let s = train_snn_epoch(&mut snn, &train_data, &sgd, 1.0, &tcfg, &mut rng);
            last = s.accuracy;
        }
        let (acc_after, _) = evaluate_snn(&snn, &test_data, 2, 16);
        assert!(
            acc_after > acc_before.max(0.34),
            "SGL failed: before {acc_before}, after {acc_after}, train {last}"
        );
    }

    #[test]
    fn clamps_keep_neuron_params_physical() {
        let mut snn = make_snn(9);
        // Adversarial gradient pushing v_th negative and leak above 1.
        for node in snn.nodes_mut() {
            if let SnnOp::Spike(layer) = &mut node.op {
                layer.v_th.grad.data_mut()[0] = 1000.0;
                layer.leak.grad.data_mut()[0] = -1000.0;
            }
        }
        let sgd = SnnSgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        sgd.step(&mut snn, 1.0);
        for node in snn.nodes() {
            if let SnnOp::Spike(layer) = &node.op {
                assert!(layer.v_th.scalar_value() >= 0.01);
                assert!(layer.leak.scalar_value() <= 1.0);
            }
        }
    }

    #[test]
    fn clip_snn_grads_bounds_global_norm() {
        let mut snn = make_snn(20);
        snn.visit_params_mut(|p| p.grad.fill(10.0));
        clip_snn_grads(&mut snn, 2.0);
        let mut total = 0.0f32;
        snn.visit_params(|p| total += p.grad.norm_sq());
        assert!((total.sqrt() - 2.0).abs() < 1e-3, "norm {}", total.sqrt());
    }

    #[test]
    fn sgd_with_clip_is_stable_under_huge_grads() {
        let mut snn = make_snn(21);
        snn.visit_params_mut(|p| p.grad.fill(1e6));
        let sgd = SnnSgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        })
        .with_clip(1.0);
        sgd.step(&mut snn, 1.0);
        snn.visit_params(|p| {
            assert!(p
                .value
                .data()
                .iter()
                .all(|v| v.is_finite() && v.abs() < 10.0));
        });
    }

    #[test]
    fn evaluate_merges_stats_across_batches() {
        let cfg = SynthCifarConfig::tiny(3);
        let (_, test_data) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.25, 11);
        let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
        let snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let (_, stats) = evaluate_snn(&snn, &test_data, 2, 8);
        assert_eq!(stats.batch(), test_data.len());
    }

    #[test]
    #[should_panic(expected = "non-finite loss")]
    fn train_snn_epoch_panics_on_nan_bias() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let mut b = NetworkBuilder::new(3, cfg.image_size, 7);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(1.0);
        b.maxpool(2);
        b.flatten();
        b.linear_opts(3, true);
        let mut snn = SnnNetwork::from_network(&b.build(), &[SpikeSpec::identity(1.0)]).unwrap();
        // A NaN upstream of a spike layer only silences its spikes; the
        // classifier bias reaches the logits directly.
        for node in snn.nodes_mut() {
            if let SnnOp::Linear {
                bias: Some(bias), ..
            } = &mut node.op
            {
                bias.value.data_mut()[0] = f32::NAN;
            }
        }
        let sgd = SnnSgd::new(SgdConfig::default());
        let mut rng = seeded_rng(40);
        train_snn_epoch(
            &mut snn,
            &train_data,
            &sgd,
            1.0,
            &SnnTrainConfig::default(),
            &mut rng,
        );
    }

    #[test]
    fn checked_snn_epoch_detects_injected_nan_gradient() {
        let cfg = SynthCifarConfig::tiny(3);
        let (train_data, _) = generate(&cfg);
        let dnn = models::vgg_micro(3, cfg.image_size, 0.5, 7);
        let specs = vec![SpikeSpec::identity(2.0); dnn.threshold_nodes().len()];
        let mut snn = SnnNetwork::from_network(&dnn, &specs).unwrap();
        let before: Vec<u32> = {
            let mut v = Vec::new();
            snn.visit_params(|p| v.extend(p.value.data().iter().map(|x| x.to_bits())));
            v
        };
        let sgd = SnnSgd::new(SgdConfig::default());
        let tcfg = SnnTrainConfig::default();
        let mut rng = seeded_rng(41);
        let err = train_snn_epoch_with_hook(
            &mut snn,
            &train_data,
            &sgd,
            1.0,
            &tcfg,
            &mut rng,
            &mut |net, b| {
                if b == 0 {
                    net.visit_params_mut(|p| p.grad.data_mut()[0] = f32::NAN);
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::NonFiniteGrad { batch: 0, .. }));
        // The poisoned step never ran: parameter values are untouched.
        let mut after = Vec::new();
        snn.visit_params(|p| after.extend(p.value.data().iter().map(|x| x.to_bits())));
        assert_eq!(before, after, "NaN gradient leaked into parameters");
    }

    #[test]
    fn leak_gradient_sign_matches_effect() {
        // With a positive membrane and a loss that rewards more spiking on
        // the true class, check the leak gradient is finite and the
        // training step changes the leak.
        let mut snn = make_snn(12);
        let x = normal(&[2, 2, 4, 4], 0.5, 1.0, &mut seeded_rng(13));
        let tape = snn.forward_train(&x, 3, &mut seeded_rng(0));
        let grad = cross_entropy_grad(&tape.logits, &[0, 1]);
        snn.backward(&tape, &grad);
        for node in snn.nodes() {
            if let SnnOp::Spike(layer) = &node.op {
                assert!(layer.leak.grad.data()[0].is_finite());
                assert!(layer.v_th.grad.data()[0].is_finite());
            }
        }
    }
}
