//! Dependency-free data parallelism for the hot kernels.
//!
//! Two entry points over `std::thread::scope`:
//!
//! * [`par_chunks_mut`] — split a mutable slice into contiguous chunks and
//!   process them concurrently (row-blocked matmul, im2col).
//! * [`par_map`] — evaluate `f(0..n)` concurrently and return the results
//!   in index order (batch-parallel SNN simulation, per-layer α/β search).
//!
//! # Thread count
//!
//! [`num_threads`] resolves, in order: the programmatic [`set_threads`]
//! override, the `ULL_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. `ULL_THREADS=1` (or
//! `set_threads(1)`) is a guaranteed serial fallback: every entry point
//! runs its work inline on the calling thread without spawning.
//!
//! # Determinism
//!
//! The pool only ever hands out *work distribution*; callers keep each
//! output element's accumulation order identical to the serial loop
//! (contiguous row/batch blocks, reductions folded in index order). Under
//! that contract — upheld by every kernel in this workspace — results are
//! **bit-identical for every thread count**. The property tests in
//! `crates/tensor/tests/proptests.rs` and `crates/snn/tests/proptests.rs`
//! assert exact equality between 1-, 2-, 3- and 4-thread runs.
//!
//! # Forks
//!
//! A call that has more than one work item *forks*: it spawns
//! `width − 1` scoped helper threads, works through the shared queue on
//! the calling thread as well, and joins the helpers before returning.
//! The pool therefore holds no global state beyond the thread-count
//! override and borrows (not moves) the caller's data. A fork costs a
//! spawn and a join per helper, so callers whose work is small run it
//! serially instead (the GEMMs fork only above
//! [`crate::matmul::MIN_FORK_MACS`]). Calls nested inside a fork run
//! inline on the thread that issued them — an outer fan-out
//! (batch-parallel SNN steps) already owns every core, so inner kernels
//! (matmul, im2col) do not spawn a second generation of threads.
//!
//! With `ull_obs` collecting, every fork adds 1 to `tensor.par.forks` and
//! its helper count to `tensor.par.helpers`; disabled, each costs one
//! relaxed load.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set while a pool worker runs caller code. Nested parallel calls
    /// (e.g. a batch-parallel SNN step invoking the row-parallel matmul)
    /// then run inline instead of spawning threads quadratically — the
    /// outer fan-out already owns every core.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Marks the current thread as a pool worker for the duration of `f`.
/// The mark is cleared even if `f` panics: the caller of a fork works as
/// a pool worker too, and a serve worker that catches a kernel panic
/// must not run every later kernel inline.
fn as_pool_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Unmark;
    impl Drop for Unmark {
        fn drop(&mut self) {
            IN_POOL.with(|p| p.set(false));
        }
    }
    IN_POOL.with(|p| p.set(true));
    let _unmark = Unmark;
    f()
}

/// Programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `ULL_THREADS` is read once — changing the environment mid-process does
/// not retune the pool (the override exists for that).
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Parses one `ULL_THREADS` value. `Err` carries the reason the value was
/// rejected (not an integer, empty, or zero — zero workers is meaningless;
/// `1` is the serial fallback).
fn parse_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value".to_string());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("0 workers is not meaningful (use 1 for serial)".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("`{raw}` is not a positive integer")),
    }
}

/// Resolves an environment-supplied thread count: well-formed values are
/// used, malformed values (`abc`, `0`, whitespace) warn once on stderr and
/// fall back to the default resolution (`None`) instead of being silently
/// dropped — mirroring the `ULL_SPARSE_CUTOFF` handling in `ull-snn`.
fn resolve_env_threads(raw: Option<&str>) -> Option<usize> {
    match raw {
        None => None,
        Some(s) => match parse_threads(s) {
            Ok(n) => Some(n),
            Err(why) => {
                eprintln!(
                    "warning: ignoring malformed ULL_THREADS ({why}); \
                     using available parallelism"
                );
                None
            }
        },
    }
}

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| resolve_env_threads(std::env::var("ULL_THREADS").ok().as_deref()))
}

/// [`std::thread::available_parallelism`] resolved once per process. The
/// OS query sits on the resolution path of every kernel call; caching it
/// keeps `num_threads` to two atomic loads on the hot path. The count a
/// process observes is therefore stable even if the OS would report a
/// different value later (cgroup resize, CPU hotplug) — acceptable, since
/// the pool's sizing is a performance hint, never a correctness input.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count every parallel entry point will use.
///
/// Resolution order: [`set_threads`] override → `ULL_THREADS` environment
/// variable (malformed values warn once and are ignored) →
/// [`std::thread::available_parallelism`] (queried once, then cached) → 1.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    default_threads()
}

/// Overrides the worker count process-wide; `set_threads(0)` restores the
/// `ULL_THREADS`/`available_parallelism` default. Mainly for tests and
/// benches that compare thread counts within one process.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// How many threads a call over `items` independent work items should
/// use: 1 (run inline) under the serial fallback, for a single item, or
/// when already on a pool worker; otherwise one per item up to
/// [`num_threads`].
fn width(items: usize) -> usize {
    if in_pool() {
        1
    } else {
        num_threads().min(items)
    }
}

/// Runs `work` on the calling thread and on `width − 1` scoped helper
/// threads, returning once every thread has finished. `work` pulls its
/// items from a shared queue, so the caller does its share instead of
/// idling in a join. Every thread runs as a pool worker (nested calls
/// run inline), and helpers adopt the caller's open-span path so spans
/// inside `work` roll up under the span that issued the call.
///
/// A panic on any thread reaches the caller with its original payload
/// once every thread has stopped.
fn fork(width: usize, work: impl Fn() + Sync) {
    ull_obs::counter_add("tensor.par.forks", 1);
    ull_obs::counter_add("tensor.par.helpers", (width - 1) as u64);
    let parent = ull_obs::current_path();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width)
            .map(|_| s.spawn(|| as_pool_worker(|| ull_obs::with_parent_path(&parent, &work))))
            .collect();
        as_pool_worker(&work);
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Splits `data` into contiguous `chunk_len`-sized pieces (the last may be
/// shorter) and calls `f(chunk_index, chunk)` once per piece, distributing
/// pieces over the calling thread and the pool's helpers.
///
/// Chunks are disjoint, so any execution order yields the same memory
/// contents; pass a chunk-index-addressed `f` so each piece knows which
/// rows it owns.
///
/// # Panics
///
/// Panics if `chunk_len == 0`, or with `f`'s payload if `f` panics.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let width = width(data.len().div_ceil(chunk_len));
    if width <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // A locked iterator hands each chunk to exactly one thread. The lock
    // is taken once per chunk; chunks are coarse (whole row blocks), so
    // contention is negligible against the work inside `f`.
    let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    fork(width, || loop {
        let next = queue.lock().expect("chunk queue poisoned").next();
        match next {
            Some((i, chunk)) => f(i, chunk),
            None => break,
        }
    });
}

/// Evaluates `f(i)` for `i in 0..n` across the calling thread and the
/// pool's helpers and returns the results **in index order**, exactly as
/// the serial `(0..n).map(f)` would.
///
/// # Panics
///
/// Panics with `f`'s payload if `f` panics.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = width(n);
    if width <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    fork(width, || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let value = f(i);
        *slots[i].lock().expect("result slot poisoned") = Some(value);
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("a thread filled every slot")
        })
        .collect()
}

/// Serializes tests that mutate the global thread override so they do not
/// race each other (test binaries run tests concurrently).
#[doc(hidden)]
pub fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let _guard = override_lock();
        for threads in [1, 2, 4] {
            set_threads(threads);
            let mut v = vec![0u32; 103];
            par_chunks_mut(&mut v, 10, |i, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x += (i * 10 + j) as u32 + 1;
                }
            });
            assert!(
                v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1),
                "threads={threads}"
            );
        }
        set_threads(0);
    }

    #[test]
    fn par_map_preserves_index_order() {
        let _guard = override_lock();
        for threads in [1, 3, 8] {
            set_threads(threads);
            let out = par_map(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn serial_fallback_spawns_no_threads() {
        let _guard = override_lock();
        set_threads(1);
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        let mut v = vec![0u8; 16];
        par_chunks_mut(&mut v, 4, |_, _| {});
        let ids = par_map(4, |_| std::thread::current().id());
        seen.extend(ids);
        assert!(seen.iter().all(|&id| id == caller));
        set_threads(0);
    }

    /// Runs a `threads`-wide fork in which exactly one chunk panics: the
    /// one on the calling thread (`on_caller`) or one on a helper. Every
    /// chunk waits at a barrier first, so each thread holds exactly one
    /// chunk when the panic fires. Returns the payload the caller saw.
    fn panic_payload(threads: usize, on_caller: bool, use_map: bool) -> String {
        set_threads(threads);
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(threads);
        let helper_panicked = AtomicUsize::new(0);
        let work = || {
            barrier.wait();
            let here = std::thread::current().id() == caller;
            let fire = if on_caller {
                here
            } else {
                !here && helper_panicked.fetch_add(1, Ordering::Relaxed) == 0
            };
            if fire {
                panic!("chunk panicked (on_caller={on_caller})");
            }
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if use_map {
                par_map(threads, |_| work());
            } else {
                let mut v = vec![0u8; threads];
                par_chunks_mut(&mut v, 1, |_, _| work());
            }
        }));
        set_threads(0);
        assert!(!in_pool(), "the caller must leave the pool mark behind");
        let payload = result.expect_err("the panic must reach the caller");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the original payload, not a generic join error")
    }

    #[test]
    fn panics_in_caller_and_helper_chunks_reach_the_caller() {
        let _guard = override_lock();
        for threads in [2, 4] {
            for on_caller in [true, false] {
                for use_map in [false, true] {
                    assert_eq!(
                        panic_payload(threads, on_caller, use_map),
                        format!("chunk panicked (on_caller={on_caller})"),
                        "threads={threads} use_map={use_map}"
                    );
                }
            }
        }
    }

    #[test]
    fn well_formed_thread_counts_parse() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 4 "), Ok(4), "whitespace is trimmed");
        assert_eq!(resolve_env_threads(Some("3")), Some(3));
        assert_eq!(resolve_env_threads(None), None);
    }

    #[test]
    fn malformed_thread_counts_warn_and_default() {
        // Regression: these used to be silently dropped by a
        // `.parse().ok()` chain, so `ULL_THREADS=abc` behaved exactly like
        // an unset variable with no hint to the operator. The resolution
        // layer must reject each one (warning once) and fall back.
        assert!(parse_threads("abc").is_err());
        assert!(parse_threads("0").is_err(), "0 workers is meaningless");
        assert!(parse_threads("").is_err());
        assert!(parse_threads("  ").is_err());
        assert!(parse_threads("-2").is_err());
        assert!(parse_threads("2.5").is_err());
        for bad in ["abc", "0", "", "  ", "-2", "2.5", "4x"] {
            assert_eq!(resolve_env_threads(Some(bad)), None, "input {bad:?}");
        }
    }

    #[test]
    fn resolved_default_thread_count_is_cached_and_stable() {
        // Regression: `num_threads` used to re-query
        // `available_parallelism` on every call — a per-kernel-call OS
        // query on the hot path. The resolved count must now come from the
        // `OnceLock` cache: positive and identical on every call.
        let first = default_threads();
        assert!(first >= 1);
        for _ in 0..1000 {
            assert_eq!(default_threads(), first);
        }
        // And the full resolution chain stays stable too.
        let _guard = override_lock();
        set_threads(0);
        let resolved = num_threads();
        for _ in 0..100 {
            assert_eq!(num_threads(), resolved);
        }
    }

    #[test]
    fn override_beats_environment() {
        let _guard = override_lock();
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let _guard = override_lock();
        set_threads(4);
        let outer = par_map(4, |i| {
            let worker = std::thread::current().id();
            // The nested call must not spawn: every inner closure runs on
            // the same pool worker that owns the outer item.
            let inner = par_map(3, |_| std::thread::current().id());
            (i, inner.into_iter().all(|id| id == worker))
        });
        assert!(outer.iter().all(|&(_, same)| same));
        set_threads(0);
    }

    #[test]
    fn worker_spans_roll_up_under_the_callers_span() {
        let _guard = override_lock();
        let _obs = ull_obs::test_lock();
        ull_obs::reset();
        ull_obs::set_enabled(true);
        set_threads(4);
        {
            let _outer = ull_obs::span("outer");
            let _ = par_map(8, |i| {
                let _inner = ull_obs::span("work");
                i * 2
            });
        }
        set_threads(0);
        ull_obs::set_enabled(false);
        let snap = ull_obs::snapshot();
        // Every per-item span lands on the parent path, none at top level.
        assert_eq!(snap.spans["outer/work"].count, 8);
        assert!(!snap.spans.contains_key("work"));
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let _guard = override_lock();
        set_threads(4);
        let mut empty: Vec<f32> = Vec::new();
        par_chunks_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        assert_eq!(par_map(0, |i| i).len(), 0);
        let mut one = vec![1.0f32];
        par_chunks_mut(&mut one, 8, |i, c| {
            assert_eq!(i, 0);
            c[0] = 2.0;
        });
        assert_eq!(one, vec![2.0]);
        set_threads(0);
    }
}
