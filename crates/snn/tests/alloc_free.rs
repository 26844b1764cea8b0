//! Proves the steady-state step loop of the event-driven forward pass
//! (and of `forward_until`, which runs the same stepper) is
//! allocation-free: once the `StepWorkspace` buffers have grown to their
//! working sizes (and every layer's dispatch route has been exercised),
//! additional time steps must not touch the allocator.
//!
//! The check compares total allocator hits for a short run against a
//! longer run of the same network and input: per-step routing decisions
//! are deterministic per step index, so every allocation the long run
//! performs beyond the short run would have to come from the extra steady
//! steps — the assertion is that there are none.
//!
//! Hits are counted per thread: the measured runs execute inline on the
//! test's own thread (`ULL_THREADS=1`), while the test harness and other
//! tests' set-up allocate concurrently on theirs.
//!
//! This lives in an integration test because the library crates
//! `forbid(unsafe_code)` and a counting `#[global_allocator]` needs an
//! `unsafe impl`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ull_nn::NetworkBuilder;
use ull_snn::packing::clear_pack_cache;
use ull_snn::{dispatch, set_sparse_cutoff, SnnNetwork, SnnOp, SpikeSpec, StepTamper};
use ull_tensor::init::{normal, seeded_rng};
use ull_tensor::{parallel, set_packed, Tensor};

thread_local! {
    static ALLOC_HITS: Cell<u64> = const { Cell::new(0) };
}

fn count_hit() {
    // `try_with`: never panic inside the allocator, even during thread
    // teardown.
    let _ = ALLOC_HITS.try_with(|h| h.set(h.get() + 1));
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_hit();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_hit();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_hit();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn test_net(seed: u64) -> SnnNetwork {
    let mut b = NetworkBuilder::new(2, 8, seed);
    b.conv2d(4, 3, 1, 1);
    b.threshold_relu(0.7);
    b.conv2d(5, 3, 1, 1);
    b.threshold_relu(0.9);
    b.maxpool(2);
    b.flatten();
    b.linear(5);
    let dnn = b.build();
    SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.7), SpikeSpec::identity(0.9)]).unwrap()
}

/// Allocator hits made by the calling thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_HITS.with(Cell::get);
    f();
    ALLOC_HITS.with(Cell::get) - before
}

#[test]
fn steady_state_step_loop_does_not_allocate() {
    let snn = test_net(42);
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(99));
    // Single thread (inline execution, no pool hand-off buffers) and a
    // fixed sparse-everywhere cutoff so both kernel families are hit.
    let _threads = parallel::override_lock();
    let _cutoff = dispatch::cutoff_lock();
    parallel::set_threads(1);

    for cutoff in [2.0f32, -1.0] {
        set_sparse_cutoff(Some(cutoff));
        // Warm up lazily initialised process state (thread-count cache,
        // cutoff cell, allocator internals).
        snn.forward(&x, 1);

        // By the end of step 2 every buffer has reached its working size:
        // step 1 routes dense everywhere (first-step rule) and grows the
        // dense scratch; step 2 flips the uniform low-activity layers to
        // the event path and grows the event buffers. Steps 3+ must be
        // allocation-free, so T=8 may not out-allocate T=2.
        let short = allocs_during(|| {
            snn.forward(&x, 2);
        });
        let long = allocs_during(|| {
            snn.forward(&x, 8);
        });
        assert!(
            long <= short,
            "steady-state steps allocated: T=2 cost {short} hits, T=8 cost {long} (cutoff {cutoff})"
        );
    }

    set_sparse_cutoff(None);
    parallel::set_threads(0);
}

/// `forward_until` runs the same workspace stepper and reuses one
/// running-mean buffer: with a callback that allocates nothing, steps
/// after the first allocate nothing either.
#[test]
fn forward_until_steady_state_does_not_allocate() {
    let snn = test_net(31);
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(32));
    let _threads = parallel::override_lock();
    let _cutoff = dispatch::cutoff_lock();
    parallel::set_threads(1);

    for cutoff in [2.0f32, -1.0] {
        set_sparse_cutoff(Some(cutoff));
        snn.forward_until(&x, 1, |_, _| true);
        let mut checksum = 0.0f32;
        let mut run = |t_max: usize| {
            allocs_during(|| {
                snn.forward_until(&x, t_max, |_, mean| {
                    checksum += mean.data()[0];
                    true
                });
            })
        };
        let short = run(2);
        let long = run(8);
        assert!(
            long <= short,
            "forward_until steady-state steps allocated: T=2 cost {short} hits, T=8 cost {long} (cutoff {cutoff})"
        );
        assert!(checksum.is_finite());
    }

    set_sparse_cutoff(None);
    parallel::set_threads(0);
}

/// Packed weights are built exactly once per network: after the first
/// forward, extra timesteps, batches and whole forward calls hit the pack
/// cache and allocate nothing new.
#[test]
fn packed_weights_build_once_and_steady_state_stays_alloc_free() {
    let snn = test_net(7);
    let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(17));
    let x_small = normal(&[1, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(18));
    // override_lock also serializes against the other alloc tests here,
    // which must not see the pack cache cleared mid-measurement.
    let _threads = parallel::override_lock();
    let _cutoff = dispatch::cutoff_lock();
    let _packed = ull_tensor::packed::packed_lock();
    let _obs = ull_obs::test_lock();
    parallel::set_threads(1);
    // Force the dense route everywhere so every step exercises the packed
    // kernels.
    set_sparse_cutoff(Some(-1.0));
    set_packed(Some(true));
    clear_pack_cache();

    ull_obs::reset();
    ull_obs::set_enabled(true);
    snn.forward(&x, 1); // builds the pack, grows workspace buffers
    snn.forward(&x, 8); // extra timesteps: same pack
    snn.forward(&x_small, 2); // different batch shape: same pack
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    assert_eq!(
        snap.counters.get("snn.pack.builds"),
        Some(&1),
        "pack must be built exactly once across forwards, timesteps and batches"
    );
    assert!(
        snap.counters.get("snn.pack.hits").is_some_and(|&h| h >= 2),
        "subsequent forwards must hit the cached pack: {:?}",
        snap.counters.get("snn.pack.hits")
    );

    // With the pack warm (and obs off — its records allocate), extra
    // steady-state steps must not touch the allocator.
    let short = allocs_during(|| {
        snn.forward(&x, 2);
    });
    let long = allocs_during(|| {
        snn.forward(&x, 8);
    });
    assert!(
        long <= short,
        "packed steady-state steps allocated: T=2 cost {short} hits, T=8 cost {long}"
    );

    ull_obs::reset();
    set_packed(None);
    set_sparse_cutoff(None);
    parallel::set_threads(0);
    clear_pack_cache();
}

struct NoopTamper;

impl StepTamper for NoopTamper {
    fn tamper_spikes(&self, _: usize, _: ull_nn::NodeId, _: usize, _: f32, _: &mut Tensor) {}
}

/// Stale-pack guard: weights mutated between (tampered) forwards change
/// the network fingerprint, so the next forward re-packs instead of using
/// the stale layout — and stays bit-identical to the unpacked path.
#[test]
fn tampered_weight_mutation_triggers_repack() {
    let mut snn = test_net(11);
    let x = normal(&[2, 2, 8, 8], 0.0, 1.0, &mut seeded_rng(23));
    let _threads = parallel::override_lock();
    let _cutoff = dispatch::cutoff_lock();
    let _packed = ull_tensor::packed::packed_lock();
    let _obs = ull_obs::test_lock();
    parallel::set_threads(1);
    set_sparse_cutoff(Some(-1.0));
    set_packed(Some(true));
    clear_pack_cache();

    ull_obs::reset();
    ull_obs::set_enabled(true);
    snn.forward_tampered(&x, 3, &NoopTamper);
    // Simulate an in-place weight fault between inference calls.
    for node in snn.nodes_mut() {
        if let SnnOp::Conv2d { weight, .. } = &mut node.op {
            weight.value.data_mut()[0] += 0.25;
        }
    }
    let packed_out = snn.forward_tampered(&x, 3, &NoopTamper);
    ull_obs::set_enabled(false);
    let snap = ull_obs::snapshot();
    assert_eq!(
        snap.counters.get("snn.pack.builds"),
        Some(&2),
        "mutated weights must miss the pack cache and re-pack"
    );

    // The re-packed result must match the unpacked path on the mutated
    // weights bit for bit — a stale pack would reproduce the old weights.
    set_packed(Some(false));
    let unpacked_out = snn.forward_tampered(&x, 3, &NoopTamper);
    assert_eq!(packed_out.logits.shape(), unpacked_out.logits.shape());
    for (p, u) in packed_out
        .logits
        .data()
        .iter()
        .zip(unpacked_out.logits.data())
    {
        assert_eq!(p.to_bits(), u.to_bits(), "{p} vs {u}");
    }

    ull_obs::reset();
    set_packed(None);
    set_sparse_cutoff(None);
    parallel::set_threads(0);
    clear_pack_cache();
}
