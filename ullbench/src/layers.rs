//! Per-layer measurements: the benchmark's own timers around each
//! layer's public entry points, plus readings of the `ull_obs` registry
//! taken during the traced pass.

use std::time::Instant;

use ull_core::{collect_preactivations, scale_layers};
use ull_obs::MetricsSnapshot;
use ull_robust::anytime_forward_scheduled;
use ull_serve::{write_reply, Reply, Request, RungLabel};
use ull_snn::{packed_for, train_snn_epoch, SnnSgd, SnnTrainConfig};
use ull_tensor::init::seeded_rng;
use ull_tensor::Tensor;

use crate::setup::{Served, POOL, T_FULL};
use crate::stats::{median, ratio, Metrics};

/// Median wall time of `reps` calls of `f`, in ms.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Layer timings that need no registry: `snn`, `serve::engine`,
/// `serve::protocol`, `core` and `snn::train`. Runs with `ull_obs` off.
pub fn timings(served: &Served, m: &mut Metrics) {
    let net = &served.snn;
    for (b, reps) in [(1usize, 40usize), (8, 15), (32, 6)] {
        let x = served.first(b);
        let ms = time_ms(reps, || {
            std::hint::black_box(net.forward(std::hint::black_box(&x), T_FULL));
        });
        m.add(format!("snn.forward_ms.b{b}"), ms, "ms", reps);
    }
    let x8 = served.first(8);
    let ms = time_ms(10, || {
        std::hint::black_box(net.forward_until(&x8, T_FULL, |_, _| true));
    });
    m.add("snn.forward_until_ms.b8", ms, "ms", 10);
    let lookups = 400;
    let us = time_ms(lookups, || {
        std::hint::black_box(packed_for(std::hint::black_box(net)));
    }) * 1e3;
    m.add("snn.pack_lookup_us", us, "us", lookups);

    // A separate engine, so the serving engine's counters stay untouched.
    let engine = served.engine();
    for (rung, name) in [
        (RungLabel::Full, "full"),
        (RungLabel::Anytime, "anytime"),
        (RungLabel::Reduced, "reduced"),
    ] {
        let ms = time_ms(10, || {
            std::hint::black_box(engine.execute(&x8, rung));
        });
        m.add(format!("engine.execute_ms.{name}"), ms, "ms", 10);
    }

    // The workload's own frames: every pool image as a request.
    let frames: Vec<String> = (0..POOL)
        .map(|s| serde_json::to_string(&served.request(s as u64, s, None)).expect("serialise"))
        .collect();
    let decode: Vec<f64> = frames
        .iter()
        .map(|f| {
            let t = Instant::now();
            std::hint::black_box(serde_json::from_str::<Request>(f).expect("decode a request"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.add("protocol.decode_us", median(&decode), "us", decode.len());
    m.add(
        "protocol.frame_bytes",
        frames.iter().map(String::len).sum::<usize>() as f64 / frames.len() as f64,
        "bytes",
        frames.len(),
    );
    let refs_logits = net.forward(&served.first(32), T_FULL).logits;
    let encode: Vec<f64> = refs_logits
        .data()
        .chunks(refs_logits.shape()[1])
        .enumerate()
        .map(|(i, row)| {
            let reply = Reply::Prediction {
                id: i as u64,
                trace: i as u64,
                class: 0,
                logits: row.to_vec(),
                rung: RungLabel::Full,
                steps: T_FULL,
            };
            let mut sink = Vec::with_capacity(512);
            let t = Instant::now();
            write_reply(&mut sink, &reply).expect("encode into memory");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.add("protocol.encode_us", median(&encode), "us", encode.len());

    let layers = collect_preactivations(&served.dnn, &served.train, 128, 20_000);
    let t = Instant::now();
    std::hint::black_box(scale_layers(&layers, T_FULL));
    m.add("convert.search_s", t.elapsed().as_secs_f64(), "s", 1);
    m.add(
        "dnn.epoch_s",
        crate::stats::mean(&served.epoch_s),
        "s",
        served.epoch_s.len(),
    );

    let mut snn = served.snn.clone();
    let sgd = SnnSgd::new(ull_nn::SgdConfig {
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 1e-4,
    })
    .with_clip(5.0);
    let cfg = SnnTrainConfig {
        batch_size: 32,
        time_steps: T_FULL,
        augment_pad: 0,
        augment_flip: false,
    };
    // Half the training set keeps a traced run well inside its time limit.
    let half = served.train.take(served.train.len() / 2);
    let stats = train_snn_epoch(&mut snn, &half, &sgd, 1.0, &cfg, &mut seeded_rng(1));
    m.add("sgl.epoch_s", stats.seconds, "s", 1);
    m.add("sgl.tape_bytes", stats.tape_bytes as f64, "bytes", 1);
}

/// Class each pool image gets from `ull_robust::anytime_forward_scheduled`
/// under the served schedule (batches of 32; rows are independent).
pub fn offline_anytime(served: &Served) -> Vec<usize> {
    (0..POOL)
        .step_by(32)
        .flat_map(|start| {
            let idx: Vec<usize> = (start..(start + 32).min(POOL)).collect();
            let x = served.pool.batch(&idx).images;
            anytime_forward_scheduled(&served.snn, &x, &served.schedule).predictions
        })
        .collect()
}

/// Work counts of one traced forward of a fixed batch of 32 at T = 3.
pub fn tensor_counts(served: &Served, m: &mut Metrics) {
    let x: Tensor = served.first(32);
    ull_obs::reset();
    std::hint::black_box(served.snn.forward(&x, T_FULL));
    let snap = ull_obs::snapshot();
    let per_img = |key: &str| snap.counters.get(key).copied().unwrap_or(0) as f64 / 32.0;
    m.add("tensor.acs_per_img", per_img("tensor.acs"), "count", 32);
    m.add("tensor.macs_per_img", per_img("tensor.macs"), "count", 32);
    m.add(
        "tensor.im2col_bytes_per_img",
        per_img("tensor.im2col.bytes"),
        "bytes",
        32,
    );
}

fn counter(snap: &MetricsSnapshot, key: &str) -> f64 {
    snap.counters.get(key).copied().unwrap_or(0) as f64
}

fn hist_quantile(snap: &MetricsSnapshot, key: &str, p: f64) -> f64 {
    snap.histograms
        .get(key)
        .map_or(0.0, |h| h.quantile(p) as f64)
}

fn hist_count(snap: &MetricsSnapshot, key: &str) -> usize {
    snap.histograms.get(key).map_or(0, |h| h.count as usize)
}

/// Registry readings of one traced serving phase.
pub fn phase_registry(phase: &str, snap: &MetricsSnapshot, max_batch: usize, m: &mut Metrics) {
    let queued = hist_count(snap, "serve.lat.queue");
    m.add(
        format!("server.queue_wait_us.p50.{phase}"),
        hist_quantile(snap, "serve.lat.queue", 0.5),
        "us",
        queued,
    );
    m.add(
        format!("server.queue_wait_us.p99.{phase}"),
        hist_quantile(snap, "serve.lat.queue", 0.99),
        "us",
        queued,
    );
    m.add(
        format!("server.batch_form_us.p50.{phase}"),
        hist_quantile(snap, "serve.lat.batch", 0.5),
        "us",
        hist_count(snap, "serve.lat.batch"),
    );
    m.add(
        format!("engine.forward_us.p50.{phase}"),
        hist_quantile(snap, "serve.lat.forward", 0.5),
        "us",
        hist_count(snap, "serve.lat.forward"),
    );
    let batches = counter(snap, "serve.batches");
    m.add(
        format!("server.batch_fill.{phase}"),
        ratio(counter(snap, "serve.served"), batches * max_batch as f64),
        "ratio",
        batches as usize,
    );
}

/// Registry readings summed over a whole traced pass.
pub fn pass_registry(snaps: &[MetricsSnapshot], m: &mut Metrics) {
    let sum = |key: &str| snaps.iter().map(|s| counter(s, key)).sum::<f64>();
    let prefix = |p: &str| {
        snaps
            .iter()
            .map(|s| s.counter_prefix_sum(p) as f64)
            .sum::<f64>()
    };
    m.add("engine.retried", sum("serve.retried"), "count", 1);
    let hits = sum("snn.pack.hits");
    m.add(
        "snn.pack_hit_ratio",
        ratio(hits, hits + sum("snn.pack.builds")),
        "ratio",
        (hits + sum("snn.pack.builds")) as usize,
    );
    let sparse = prefix("snn.dispatch.sparse.");
    let dense = prefix("snn.dispatch.dense.");
    m.add(
        "snn.dispatch_sparse_share",
        ratio(sparse, sparse + dense),
        "ratio",
        (sparse + dense) as usize,
    );
}

/// Agreement of served Anytime classes with the offline anytime forward,
/// and how early the served rows exited.
pub fn anytime_metrics(replies: &[(usize, usize, usize)], offline: &[usize], m: &mut Metrics) {
    let n = replies.len();
    let agree = replies
        .iter()
        .filter(|&&(sample, class, _)| offline[sample] == class)
        .count();
    let steps: Vec<f64> = replies.iter().map(|&(_, _, s)| s as f64).collect();
    let early = replies.iter().filter(|&&(_, _, s)| s < T_FULL).count();
    m.add("anytime.mean_steps", crate::stats::mean(&steps), "steps", n);
    m.add(
        "anytime.exit_share",
        ratio(early as f64, n as f64),
        "ratio",
        n,
    );
    m.add(
        "anytime.offline_agreement",
        ratio(agree as f64, n as f64),
        "ratio",
        n,
    );
}
