//! Packed-kernel benchmark: measures the weight-stationary packed dense
//! kernels ([`ull_tensor::packed`]) against the unpacked kernels on a
//! representative conv+linear SNN at T ∈ {2, 3, 5}, with the sparse
//! cutoff forced off so every step runs the dense GEMMs being compared.
//!
//! ```sh
//! cargo run --release -p ull-bench --bin kernel_bench
//! cargo run --release -p ull-bench --bin kernel_bench -- --gate
//! ```
//!
//! Packing changes only the weight memory layout, so the counted work must
//! not move at all: `tensor.macs`, `tensor.acs` and `tensor.im2col.bytes`
//! deltas are asserted to be exactly zero and logits bit-identical at
//! every T. `--gate` runs the CI acceptance gate (`scripts/kernel_smoke.sh`):
//! bit-identity across `ULL_THREADS` {1, 4} × packed/unpacked, plus the
//! pack-reuse check (`snn.pack.builds == 1` across repeated forwards).
//!
//! Batch-1 rows time a lone forward at `ULL_THREADS=1` and at the default
//! thread count, and measure the two costs `MIN_FORK_MACS` rests on: the
//! spawn+join cost of one fork and the packed GEMM's ns per MAC. `--gate`
//! also asserts that batch-1 forwards at 2 and 4 threads fork zero times
//! (`tensor.par.forks`), a count, not a time.
//!
//! Wall-clock times are printed for context only; on a small shared
//! container the *counted* work and the bit-identity claims are the
//! reliable metrics, which is why the gate never reads a timer.
//!
//! Artifact: `BENCH_kernels.json` at the workspace root.

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;
use ull_nn::NetworkBuilder;
use ull_snn::packing::clear_pack_cache;
use ull_snn::{set_sparse_cutoff, SnnNetwork, SnnOutput, SpikeSpec};
use ull_tensor::init::{normal, seeded_rng};
use ull_tensor::matmul::MIN_FORK_MACS;
use ull_tensor::{matmul_tb_packed, parallel, set_packed, PackedWeights, Tensor};

const SEED: u64 = 2022;
const BATCH: usize = 32;
const IMAGE: usize = 16;
const CHANNELS: usize = 3;
const T_SWEEP: [usize; 3] = [2, 3, 5];
/// Timed repetitions per configuration; the minimum is reported, which is
/// the standard way to shave scheduler noise off a small-kernel benchmark.
const REPS: usize = 5;
/// Repetitions of the fork and GEMM microbenchmarks; the median is
/// reported.
const MICRO_REPS: usize = 200;
/// Dense `[m, k] · [n, k]ᵀ` GEMM the ns/MAC figure is taken on: the
/// bench net's second conv at batch 4 (below `MIN_FORK_MACS`, so serial).
const GEMM_DIMS: (usize, usize, usize) = (256, 72, 32);

#[derive(Serialize)]
struct KernelRow {
    t_steps: usize,
    wall_ms_unpacked: f64,
    wall_ms_packed: f64,
    /// wall_ms_unpacked / wall_ms_packed (info only on shared hardware).
    speedup: f64,
    nominal_macs: u64,
    executed_acs: u64,
    im2col_bytes: u64,
    /// Counted-work deltas packed-vs-unpacked — zero by construction.
    macs_delta: i64,
    acs_delta: i64,
    im2col_bytes_delta: i64,
    logits_bit_identical: bool,
}

#[derive(Serialize)]
struct Batch1Row {
    t_steps: usize,
    wall_ms_threads_1: f64,
    wall_ms_default_threads: f64,
}

/// A lone request's forward, and the costs that size `MIN_FORK_MACS`.
#[derive(Serialize)]
struct Batch1 {
    /// Thread count of the `wall_ms_default_threads` column.
    default_threads: usize,
    rows: Vec<Batch1Row>,
    /// `tensor.par.forks` across batch-1 forwards at 2 and 4 threads.
    b1_forks: u64,
    /// Median wall µs of a fork with one helper and no work.
    spawn_join_us: f64,
    /// Median serial packed-GEMM ns per MAC on a dense lhs.
    packed_ns_per_mac: f64,
    /// MACs at which a two-thread fork's saving (half the serial GEMM
    /// time) equals its spawn+join cost.
    break_even_macs: f64,
    min_fork_macs: usize,
}

#[derive(Serialize)]
struct KernelBench {
    batch: usize,
    channels: usize,
    image: usize,
    /// Pack builds observed across the whole sweep (one network).
    pack_builds: u64,
    rows: Vec<KernelRow>,
    batch1: Batch1,
}

fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir
}

/// Same VGG-style stack as `sparse_forward`, so the two artifacts describe
/// one model family.
fn build_snn() -> SnnNetwork {
    let mut b = NetworkBuilder::new(CHANNELS, IMAGE, SEED);
    b.conv2d(8, 3, 1, 1);
    b.threshold_relu(4.0);
    b.maxpool(2);
    b.conv2d(32, 3, 1, 1);
    b.threshold_relu(4.0);
    b.maxpool(2);
    b.flatten();
    b.linear(10);
    let dnn = b.build();
    SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(4.0), SpikeSpec::identity(4.0)]).unwrap()
}

struct Measured {
    out: SnnOutput,
    macs: u64,
    acs: u64,
    im2col_bytes: u64,
    /// `tensor.par.forks` of one forward.
    forks: u64,
    wall_ms: f64,
}

fn measure(snn: &SnnNetwork, x: &Tensor, t_steps: usize, packed: bool) -> Measured {
    set_packed(Some(packed));
    // Warm-up: grow the workspace, thread pool and (when packing) the pack
    // cache outside the timed region.
    snn.forward(x, 1);
    ull_obs::reset();
    ull_obs::set_enabled(true);
    let out = snn.forward(x, t_steps);
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    ull_obs::reset();
    let mut wall_ms = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let _ = snn.forward(x, t_steps);
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    set_packed(None);
    Measured {
        out,
        macs: snap.counters.get("tensor.macs").copied().unwrap_or(0),
        acs: snap.counters.get("tensor.acs").copied().unwrap_or(0),
        im2col_bytes: snap
            .counters
            .get("tensor.im2col.bytes")
            .copied()
            .unwrap_or(0),
        forks: snap.counters.get("tensor.par.forks").copied().unwrap_or(0),
        wall_ms,
    }
}

fn median_us(mut run: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Times a batch-1 forward per T at 1 and at the default thread count,
/// counts its forks at 2 and 4 threads, and measures the fork and GEMM
/// costs behind `MIN_FORK_MACS`.
fn batch1(snn: &SnnNetwork, x1: &Tensor) -> Batch1 {
    let at = |threads: usize, t: usize| {
        parallel::set_threads(threads);
        measure(snn, x1, t, true)
    };
    let rows = T_SWEEP
        .iter()
        .map(|&t| Batch1Row {
            t_steps: t,
            wall_ms_threads_1: at(1, t).wall_ms,
            wall_ms_default_threads: at(0, t).wall_ms,
        })
        .collect();
    let default_threads = parallel::num_threads();
    let b1_forks = [2, 4].iter().map(|&threads| at(threads, 3).forks).sum();

    parallel::set_threads(2);
    let spawn_join_us = median_us(|| {
        std::hint::black_box(parallel::par_map(2, |i| i));
    });
    parallel::set_threads(1);
    let (m, k, n) = GEMM_DIMS;
    let mut rng = seeded_rng(SEED);
    let a = normal(&[m, k], 0.0, 1.0, &mut rng);
    let b = PackedWeights::pack_rhs_t(&normal(&[n, k], 0.0, 1.0, &mut rng));
    let gemm_us = median_us(|| {
        std::hint::black_box(matmul_tb_packed(std::hint::black_box(&a), &b));
    });
    parallel::set_threads(0);
    let packed_ns_per_mac = gemm_us * 1e3 / (m * k * n) as f64;
    Batch1 {
        default_threads,
        rows,
        b1_forks,
        spawn_join_us,
        packed_ns_per_mac,
        break_even_macs: 2.0 * spawn_join_us * 1e3 / packed_ns_per_mac,
        min_fork_macs: MIN_FORK_MACS,
    }
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let snn = build_snn();
    let x = normal(
        &[BATCH, CHANNELS, IMAGE, IMAGE],
        0.0,
        1.0,
        &mut seeded_rng(SEED ^ 0x5eed),
    );
    // Force the dense route so the packed-vs-unpacked comparison covers
    // every conv/linear call, not just the first-step dense pass.
    set_sparse_cutoff(Some(-1.0));
    clear_pack_cache();

    // Count pack builds across the whole sweep: one network, so the cache
    // must build exactly once no matter how many forwards follow.
    ull_obs::reset();
    ull_obs::set_enabled(true);
    set_packed(Some(true));
    snn.forward(&x, 1);
    snn.forward(&x, 1);
    set_packed(None);
    ull_obs::set_enabled(false);
    let pack_builds = ull_obs::snapshot()
        .counters
        .get("snn.pack.builds")
        .copied()
        .unwrap_or(0);
    ull_obs::reset();

    println!("batch {BATCH}, {CHANNELS}x{IMAGE}x{IMAGE} input, dense-forced");
    let mut rows = Vec::new();
    for t in T_SWEEP {
        let unpacked = measure(&snn, &x, t, false);
        let packed = measure(&snn, &x, t, true);
        let identical = bits_equal(&unpacked.out.logits, &packed.out.logits)
            && unpacked.out.stats == packed.out.stats;
        let row = KernelRow {
            t_steps: t,
            wall_ms_unpacked: unpacked.wall_ms,
            wall_ms_packed: packed.wall_ms,
            speedup: unpacked.wall_ms / packed.wall_ms.max(1e-9),
            nominal_macs: unpacked.macs,
            executed_acs: unpacked.acs,
            im2col_bytes: unpacked.im2col_bytes,
            macs_delta: packed.macs as i64 - unpacked.macs as i64,
            acs_delta: packed.acs as i64 - unpacked.acs as i64,
            im2col_bytes_delta: packed.im2col_bytes as i64 - unpacked.im2col_bytes as i64,
            logits_bit_identical: identical,
        };
        println!(
            "T={t}: {:.2} ms unpacked -> {:.2} ms packed ({:.2}x), macs {} (Δ{}), acs {} (Δ{}), im2col {} B (Δ{}), bit-identical {}",
            row.wall_ms_unpacked,
            row.wall_ms_packed,
            row.speedup,
            row.nominal_macs,
            row.macs_delta,
            row.executed_acs,
            row.acs_delta,
            row.im2col_bytes,
            row.im2col_bytes_delta,
            row.logits_bit_identical,
        );
        assert!(
            row.logits_bit_identical,
            "packed kernels changed the logits at T={t}"
        );
        assert_eq!(row.macs_delta, 0, "packing moved the nominal MAC count");
        assert_eq!(row.acs_delta, 0, "packing moved the executed AC count");
        assert_eq!(
            row.im2col_bytes_delta, 0,
            "packing moved the im2col traffic"
        );
        rows.push(row);
    }
    println!("pack builds across sweep: {pack_builds}");

    let batch1 = batch1(&snn, &x.slice_batch(0, 1));
    for row in &batch1.rows {
        println!(
            "batch 1, T={}: {:.3} ms at 1 thread, {:.3} ms at {} (default)",
            row.t_steps, row.wall_ms_threads_1, row.wall_ms_default_threads, batch1.default_threads
        );
    }
    println!(
        "fork: {:.1} us spawn+join, packed GEMM {:.3} ns/MAC, two-thread break-even {:.0} MACs \
         (MIN_FORK_MACS {}); batch-1 forks at 2 and 4 threads: {}",
        batch1.spawn_join_us,
        batch1.packed_ns_per_mac,
        batch1.break_even_macs,
        batch1.min_fork_macs,
        batch1.b1_forks
    );

    let bench = KernelBench {
        batch: BATCH,
        channels: CHANNELS,
        image: IMAGE,
        pack_builds,
        rows,
        batch1,
    };
    let bench_path = workspace_root().join("BENCH_kernels.json");
    std::fs::write(
        &bench_path,
        serde_json::to_string_pretty(&bench).expect("serialize bench"),
    )
    .expect("write BENCH_kernels.json");
    println!("wrote {}", bench_path.display());

    if gate {
        assert_eq!(
            pack_builds, 1,
            "pack cache must build once per network, not once per forward"
        );
        assert_eq!(
            bench.batch1.b1_forks, 0,
            "a batch-1 forward must run serially at any thread count"
        );
        // Bit-identity across thread counts × packing — the full
        // correctness matrix the differential harness fuzzes, on the
        // bench network.
        let reference = {
            parallel::set_threads(1);
            set_packed(Some(false));
            let out = snn.forward(&x, 3);
            set_packed(None);
            out
        };
        for threads in [1usize, 4] {
            parallel::set_threads(threads);
            for packed in [false, true] {
                set_packed(Some(packed));
                let out = snn.forward(&x, 3);
                set_packed(None);
                assert!(
                    bits_equal(&out.logits, &reference.logits),
                    "logits diverged at threads={threads} packed={packed}"
                );
                assert_eq!(
                    out.stats, reference.stats,
                    "spike stats diverged at threads={threads} packed={packed}"
                );
            }
        }
        parallel::set_threads(0);
        println!("kernel gate passed");
    }
    set_sparse_cutoff(None);
}
