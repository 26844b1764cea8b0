//! The shared served model and the offline references the output checks
//! compare against.
//!
//! Set-up is the paper's offline flow up to deployment: generate
//! SynthCifar-10 at `Scale::Small` (3×16×16), train a VGG-11 at width
//! 0.25, α/β-convert it (Algorithm 1) at T = 3, calibrate the anytime
//! margin schedule and the Full/Reduced spike-rate envelopes, build a
//! two-replica engine and start the server. The model is pinned (data,
//! initialisation and shuffle order are fixed constants), so every run
//! serves the same network and the accuracy figures are a function of
//! the code alone; the workload seed drives only the request stream.

use ull_core::{convert, ConversionMethod};
use ull_data::{generate, Dataset, SynthCifarConfig};
use ull_nn::{evaluate, train_epoch, LrSchedule, Network, Sgd, SgdConfig, TrainConfig};
use ull_robust::{
    calibrate_margin_schedule, profile_envelope_batches, AnytimeSchedule, RateEnvelope,
};
use ull_serve::{Engine, ReplicaSpec, Request, ServeConfig};
use ull_snn::SnnNetwork;
use ull_tensor::init::seeded_rng;
use ull_tensor::Tensor;

pub const CLASSES: usize = 10;
pub const IMAGE: usize = 16;
pub const T_FULL: usize = 3;
pub const T_REDUCED: usize = 2;
pub const MAX_BATCH: usize = 8;
/// DNN epochs in set-up.
pub const DNN_EPOCHS: usize = 4;
/// Shuffle-order seed of the pinned training run. Four epochs from this
/// order converge (test accuracy > 0.9); other orders can stall at
/// chance for the first epochs, which would make the served network —
/// and every accuracy figure — depend on the workload seed.
pub const MODEL_SHUFFLE_SEED: u64 = 1;
/// Initialisation seed of the VGG-11 (the experiment binaries' value).
pub const MODEL_INIT_SEED: u64 = 7;
/// Distinct request images (the held-out split); requests draw from it.
pub const POOL: usize = 256;
/// Images the envelopes are profiled on, at every batch size 1..=8.
const ENVELOPE_IMAGES: usize = 32;

/// Everything a workload serves and checks against.
pub struct Served {
    pub dnn: Network,
    pub snn: SnnNetwork,
    pub train: Dataset,
    pub pool: Dataset,
    pub schedule: AnytimeSchedule,
    pub cfg: ServeConfig,
    pub envelope_full: RateEnvelope,
    pub envelope_reduced: RateEnvelope,
    pub dnn_accuracy: f32,
    /// Wall seconds of each DNN epoch.
    pub epoch_s: Vec<f64>,
}

/// Serving settings: 2 workers, batches of up to 8 with a 2 ms linger,
/// Full at T = 3, Reduced at T = 2, and the default ladder thresholds.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        input_shape: vec![3, IMAGE, IMAGE],
        t_full: T_FULL,
        t_reduced: T_REDUCED,
        workers: 2,
        queue_capacity: 64,
        max_batch: MAX_BATCH,
        max_linger_ms: 2,
        default_deadline_ms: 1_000,
        // A tripped breaker stays open for the rest of the run.
        backoff_base_ms: 600_000,
        backoff_max_ms: 3_600_000,
        ..ServeConfig::default()
    }
}

fn data() -> (Dataset, Dataset) {
    let mut cfg = SynthCifarConfig::small(CLASSES);
    cfg.test_size = POOL;
    generate(&cfg)
}

fn train_dnn(train: &Dataset) -> (Network, Vec<f64>) {
    let mut net = ull_nn::models::vgg11(CLASSES, IMAGE, 0.25, MODEL_INIT_SEED);
    let sgd = Sgd::new(SgdConfig {
        lr: 0.02,
        momentum: 0.9,
        weight_decay: 1e-4,
    })
    .with_clip(5.0);
    let tcfg = TrainConfig {
        batch_size: 32,
        augment_pad: 0,
        augment_flip: false,
    };
    let schedule = LrSchedule::paper(DNN_EPOCHS).with_warmup(DNN_EPOCHS / 10);
    let mut rng = seeded_rng(MODEL_SHUFFLE_SEED);
    let epoch_s = (0..DNN_EPOCHS)
        .map(|e| train_epoch(&mut net, train, &sgd, schedule.factor(e), &tcfg, &mut rng).seconds)
        .collect();
    (net, epoch_s)
}

/// Elementwise min/max envelope over batches of every size the batcher
/// can assemble.
fn envelope(net: &SnnNetwork, pool: &Dataset, t: usize) -> RateEnvelope {
    let batches: Vec<Tensor> = (1..=MAX_BATCH)
        .flat_map(|size| {
            (0..ENVELOPE_IMAGES / size).map(move |b| {
                let idx: Vec<usize> = (b * size..(b + 1) * size).collect();
                pool.batch(&idx).images
            })
        })
        .collect();
    profile_envelope_batches(net, &batches, t, 0.5, 0.05)
}

/// Builds the served model (timed by the caller as `setup_s`).
pub fn build() -> Served {
    let (train, pool) = data();
    let (dnn, epoch_s) = train_dnn(&train);
    let dnn_accuracy = evaluate(&dnn, &pool, 32);
    let (snn, _) = convert(&dnn, &train, ConversionMethod::AlphaBeta, T_FULL)
        .expect("α/β conversion of a VGG-11");
    let cfg = serve_config();
    let schedule = calibrate_margin_schedule(&snn, &pool, T_FULL, MAX_BATCH, 0.95);
    let envelope_full = envelope(&snn, &pool, T_FULL);
    let envelope_reduced = envelope(&snn, &pool, T_REDUCED);
    Served {
        dnn,
        snn,
        train,
        pool,
        schedule,
        cfg,
        envelope_full,
        envelope_reduced,
        dnn_accuracy,
        epoch_s,
    }
}

impl Served {
    /// The primary and fallback replicas, both serving the converted
    /// network behind its profiled envelopes.
    pub fn replicas(&self) -> Vec<ReplicaSpec> {
        ["primary", "fallback"]
            .iter()
            .map(|name| ReplicaSpec {
                name: name.to_string(),
                net: self.snn.clone(),
                envelope_full: Some(self.envelope_full.clone()),
                envelope_reduced: Some(self.envelope_reduced.clone()),
            })
            .collect()
    }

    /// A fresh engine over the served replicas.
    pub fn engine(&self) -> Engine {
        Engine::new(
            self.cfg.clone(),
            self.replicas(),
            Some(self.schedule.clone()),
        )
    }

    /// The request for pool image `sample`.
    pub fn request(&self, id: u64, sample: usize, deadline_ms: Option<u64>) -> Request {
        Request {
            id,
            pixels: self.pool.image(sample).data().to_vec(),
            shape: vec![3, IMAGE, IMAGE],
            deadline_ms,
        }
    }

    /// One pool image as a batch of one.
    pub fn single(&self, sample: usize) -> Tensor {
        self.pool.batch(&[sample]).images
    }

    /// The first `n` pool images as one batch.
    pub fn first(&self, n: usize) -> Tensor {
        self.pool.batch(&(0..n).collect::<Vec<_>>()).images
    }
}

/// Offline references: each pool image's logits from `SnnNetwork::forward`
/// of that image alone, at the Full and Reduced step counts.
pub struct References {
    pub full: Vec<Vec<f32>>,
    pub reduced: Vec<Vec<f32>>,
    pub labels: Vec<usize>,
}

impl References {
    pub fn compute(served: &Served) -> References {
        let logits = |sample: usize, t: usize| {
            served
                .snn
                .forward(&served.single(sample), t)
                .logits
                .data()
                .to_vec()
        };
        References {
            full: (0..POOL).map(|s| logits(s, T_FULL)).collect(),
            reduced: (0..POOL).map(|s| logits(s, T_REDUCED)).collect(),
            labels: served.pool.labels().to_vec(),
        }
    }
}
