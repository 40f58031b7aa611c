//! # parkit — lightweight data-parallel primitives
//!
//! This crate provides the minimal data-parallel substrate used by every
//! compute kernel in the two-stage GMRES reproduction: chunked parallel
//! `for` loops over mutable slices and row ranges, and chunk-ordered
//! reductions.  It is deliberately small — the kernels in this workspace
//! only need "split the rows into `p` contiguous chunks and run them on
//! `p` lanes" style parallelism.
//!
//! Design points (following the HPC-Rust guidance used for this project):
//!
//! * **Persistent worker pool.**  Workers are spawned once (lazily, on the
//!   first parallel call) and parallel regions are dispatched to them with
//!   a generation-counted protocol (see the `pool` module) — inside the
//!   GMRES inner loop a kernel launch costs a few atomic stores plus
//!   targeted `unpark`s of exactly the participating lanes, instead of an
//!   OS thread spawn or a full-pool broadcast.  Chunks are pre-assigned to
//!   lanes in deterministic contiguous ownership bands (with stealing for
//!   balance), so the same lane touches the same row ranges across
//!   successive kernel calls and panels stay hot in its core's cache.
//!   The pool serves one region at a time: a region opened while another
//!   is in flight (e.g. by a second simulated `distsim` rank) or from
//!   inside a pooled chunk runs inline, chunk by chunk in index order, on
//!   the calling thread, so any thread may open a parallel region at any
//!   time.
//! * **Deterministic chunking.**  A given `(len, nthreads)` pair always
//!   produces the same chunk boundaries, and reductions combine per-chunk
//!   partials in chunk order, so results do not depend on which thread
//!   ran which chunk and runs are reproducible.  Band ownership, stealing
//!   and inline execution move *execution*, never chunk identity.
//! * **Configurable thread count.**  The number of chunks a region is split
//!   into defaults to the available parallelism and can be overridden with
//!   the `TWOSTAGE_NUM_THREADS` environment variable (read once, at first
//!   use) or programmatically via [`set_num_threads`]; the pool itself is
//!   sized once at first use ([`pool_lanes`] reports it).
//!
//! ```
//! use parkit::{parallel_for_chunks, parallel_reduce_chunks};
//!
//! let mut v = vec![0.0f64; 1000];
//! parallel_for_chunks(&mut v, |chunk, offset| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (offset + i) as f64;
//!     }
//! });
//! let sum = parallel_reduce_chunks(&v, 0.0, |c, _| c.iter().sum::<f64>(), |a, b| a + b);
//! assert_eq!(sum, 499_500.0);
//! ```

mod chunk;
mod config;
mod parallel;
mod pool;
mod reduce;

pub use chunk::{chunk_ranges, ChunkRange};
pub use config::{max_threads, num_threads_for, num_threads_for_bytes, set_num_threads};
pub use parallel::{parallel_for_chunks, parallel_for_range_bytes, parallel_zip_chunks};
pub use pool::pool_lanes;
pub use reduce::{parallel_reduce_chunks, parallel_reduce_ranges_bytes};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_holds() {
        let mut v = vec![0.0f64; 1000];
        parallel_for_chunks(&mut v, |chunk, offset| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (offset + i) as f64;
            }
        });
        let sum = parallel_reduce_chunks(&v, 0.0, |c, _| c.iter().sum::<f64>(), |a, b| a + b);
        assert_eq!(sum, 499_500.0);
    }
}
