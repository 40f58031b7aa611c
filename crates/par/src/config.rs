//! Thread-count configuration.
//!
//! The worker count resolution order is:
//! 1. a value set programmatically with [`set_num_threads`],
//! 2. the `TWOSTAGE_NUM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! The environment variable and the hardware thread count are read once per
//! process, on first use.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// 0 means "not set": fall back to the cached default.
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The hardware thread count ([`std::thread::available_parallelism`]),
/// read once per process.
pub(crate) fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The automatic default, resolved once: `TWOSTAGE_NUM_THREADS` if it holds
/// a positive integer, else the hardware thread count.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("TWOSTAGE_NUM_THREADS")
            .ok()
            .and_then(|value| value.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(hardware_threads)
    })
}

/// Override the number of worker threads used by all parallel regions.
///
/// Passing `0` resets to the automatic default (environment variable or
/// available parallelism).  Values are clamped to at least one thread when
/// used.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// The maximum number of worker threads a parallel region may use.
pub fn max_threads() -> usize {
    match NUM_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        configured => configured,
    }
}

/// The number of threads to actually use for a problem of `len` work items.
///
/// Small problems are run with fewer threads (at least one work item per
/// thread, and never more threads than `max_threads()`); a `len` of zero
/// yields one thread so callers never need to special-case empty inputs.
pub fn num_threads_for(len: usize) -> usize {
    if len == 0 {
        return 1;
    }
    // Require a minimum grain per thread so tiny kernels (e.g. s-by-s
    // triangular updates) stay serial instead of paying dispatch overhead.
    const MIN_GRAIN: usize = 1024;
    let by_grain = len.div_ceil(MIN_GRAIN).max(1);
    by_grain.min(max_threads()).max(1)
}

/// Like [`num_threads_for`], but sized from cache geometry instead of item
/// count: each thread's chunk must cover at least 128 KiB of traversed data
/// (`len * bytes_per_item`).
///
/// The row-blocked `dense` kernels use this with `bytes_per_item` = bytes
/// per matrix row actually touched, so a panel with few columns is split
/// into fewer, larger chunks than one with many — chunk size tracks the
/// memory actually streamed, not the lane count.  Changing the panel shape
/// changes the thread count and therefore (for reductions) the combine
/// tree, but for a fixed `(len, bytes_per_item, max_threads)` the chunking
/// — and thus every reduction result — is fully deterministic.
pub fn num_threads_for_bytes(len: usize, bytes_per_item: usize) -> usize {
    if len == 0 {
        return 1;
    }
    // A chunk should amortize dispatch over several ROW_BLOCK-sized cache
    // panels: 128 KiB is ~4 panels of 256 rows x 16 columns of f64.
    const MIN_GRAIN_BYTES: usize = 128 * 1024;
    let bytes = len.saturating_mul(bytes_per_item.max(1));
    let by_grain = bytes.div_ceil(MIN_GRAIN_BYTES).max(1);
    by_grain.min(max_threads()).max(1)
}

/// Serializes tests (across this crate's modules) that mutate the
/// process-global thread-count override, so the parallel test harness
/// cannot interleave one test's `set_num_threads` with another's asserts.
#[cfg(test)]
pub(crate) fn test_override_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("thread-count test lock poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn override_is_respected_and_resettable() {
        let _guard = test_override_lock();
        let default = max_threads();
        set_num_threads(3);
        assert_eq!(max_threads(), 3);
        set_num_threads(0);
        assert_eq!(max_threads(), default);
    }

    #[test]
    fn small_problems_use_one_thread() {
        assert_eq!(num_threads_for(0), 1);
        assert_eq!(num_threads_for(1), 1);
        assert_eq!(num_threads_for(100), 1);
    }

    #[test]
    fn large_problems_use_multiple_threads_when_available() {
        let _guard = test_override_lock();
        set_num_threads(8);
        assert_eq!(num_threads_for(1 << 20), 8);
        assert_eq!(num_threads_for(2048), 2);
        set_num_threads(0);
    }

    #[test]
    fn byte_weighted_grain_tracks_row_width() {
        let _guard = test_override_lock();
        set_num_threads(8);
        // 40k rows x 64 B (s = 8 panel) is 2.5 MB: every lane gets a chunk.
        assert_eq!(num_threads_for_bytes(40_000, 64), 8);
        // The same row count at 8 B per row is only 320 KB: fewer chunks.
        assert_eq!(num_threads_for_bytes(40_000, 8), 3);
        // Tiny panels stay serial no matter how wide the pool is.
        assert_eq!(num_threads_for_bytes(1024, 40), 1);
        assert_eq!(num_threads_for_bytes(0, 64), 1);
        set_num_threads(0);
    }
}
