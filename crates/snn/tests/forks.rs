//! Counts the thread forks of a serving-sized forward pass.
//!
//! A lone request is a batch-1 forward, and every GEMM in a batch-1
//! VGG-11 (width 0.25, 16×16) is below `ull_tensor::matmul::MIN_FORK_MACS`,
//! so the forward must run on the calling thread without spawning once,
//! at any thread count and on every dispatch route. A batch-8 forward
//! still forks exactly once: the batch-chunk fan-out, with one helper per
//! extra thread, while the kernels nested inside it run inline.
//!
//! The counts come from `tensor.par.forks` / `tensor.par.helpers`, so the
//! test holds `ull_obs::test_lock()` and lives in its own binary.

use ull_snn::{set_sparse_cutoff, SnnNetwork, SpikeSpec};
use ull_tensor::init::{normal, seeded_rng};
use ull_tensor::parallel;

const IMAGE: usize = 16;
const T_STEPS: usize = 3;

fn vgg11_snn() -> SnnNetwork {
    let dnn = ull_nn::models::vgg11(10, IMAGE, 0.25, 7);
    let specs = vec![SpikeSpec::identity(1.0); dnn.threshold_nodes().len()];
    SnnNetwork::from_network(&dnn, &specs).unwrap()
}

/// `(forks, helpers)` recorded by one forward of a `batch`-image input.
fn count_forks(snn: &SnnNetwork, batch: usize) -> (u64, u64) {
    let x = normal(&[batch, 3, IMAGE, IMAGE], 0.0, 1.0, &mut seeded_rng(11));
    ull_obs::reset();
    ull_obs::set_enabled(true);
    let _ = snn.forward(&x, T_STEPS);
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    ull_obs::reset();
    let count = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
    (count("tensor.par.forks"), count("tensor.par.helpers"))
}

#[test]
fn batch1_forward_never_forks_and_batch8_forks_once() {
    let _obs = ull_obs::test_lock();
    let _threads = parallel::override_lock();
    let snn = vgg11_snn();
    // Default dispatch, dense-forced and sparse-wherever-legal routes.
    for cutoff in [None, Some(-1.0), Some(1.0)] {
        set_sparse_cutoff(cutoff);
        for threads in [2usize, 4] {
            parallel::set_threads(threads);
            assert_eq!(
                count_forks(&snn, 1),
                (0, 0),
                "batch-1 forward forked at threads={threads} cutoff={cutoff:?}"
            );
            assert_eq!(
                count_forks(&snn, 8),
                (1, threads as u64 - 1),
                "batch-8 forward at threads={threads} cutoff={cutoff:?}"
            );
        }
    }
    set_sparse_cutoff(None);
    parallel::set_threads(0);
}
