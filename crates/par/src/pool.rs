//! The persistent worker pool behind every parallel region.
//!
//! Workers are spawned once (lazily, on the first parallel call) and then
//! dispatched to with a generation-counted protocol — inside the GMRES
//! inner loop a kernel launch costs a handful of atomic stores and
//! targeted `unpark`s instead of an OS thread creation.
//!
//! Dispatch protocol (one "job" = one parallel region of `nchunks` chunks):
//!
//! 1. The submitter serializes on [`Pool::submit`], picks the number of
//!    *participants* `P = min(nchunks, lanes)`, publishes the job
//!    (type-erased closure pointer + chunk count), resets the per-band
//!    chunk cursors, and publishes `(generation, P)` packed into one
//!    atomic word with release ordering.  It then unparks exactly the
//!    `P - 1` participating workers — idle lanes are never woken and never
//!    acknowledge, so launch latency scales with the region width, not the
//!    pool width.
//! 2. Chunk indices are pre-assigned to participants in contiguous
//!    *ownership bands* (participant `p` owns the `p`-th of `P` contiguous
//!    index ranges, computed with the same splitting rule as
//!    [`crate::chunk_ranges`]).  Because callers also derive `nchunks` from
//!    the thread count, participant `p` claims the *same* chunk — hence the
//!    same row ranges of the same arrays — across successive kernel calls,
//!    which keeps panels hot in that core's private cache (first-touch
//!    affinity).  A participant that drains its own band steals from the
//!    other bands (own-band-first, then cyclic scan), so imbalance still
//!    load-balances.
//! 3. Each participating worker *acknowledges* by decrementing
//!    [`Pool::remaining`]; the submitter participates as the last band and
//!    returns only after every participant has acknowledged, so the
//!    borrowed closure can never be observed after the region ends — that
//!    hand-shake is what makes the lifetime-erasing pointer sound.
//!
//! Workers spin briefly on the generation word before parking, so
//! back-to-back sub-millisecond kernel launches (the s-step inner loop)
//! usually dispatch without any futex traffic at all.
//!
//! Chunk *identity* (which slice range a chunk index covers) is fixed by
//! the caller before dispatch, so band ownership and stealing change which
//! thread runs a chunk but never what the chunk computes; reductions stay
//! deterministic because partial results are combined in chunk order by
//! the caller.
//!
//! When the pool cannot take a region — it has no workers, another thread
//! (e.g. a second simulated `distsim` rank) has a region in flight, or the
//! region is opened from inside a pooled chunk — the calling thread runs
//! every chunk itself, in index order.  That is the only other execution
//! path, and for the reason above it changes which thread runs a chunk,
//! never a result.

use crate::config::{hardware_threads, max_threads};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::Thread;

/// Minimum number of execution lanes (workers + submitter) the pool is
/// created with, so a thread count raised with `set_num_threads` after the
/// pool exists still finds live workers.  (`TWOSTAGE_NUM_THREADS` is read
/// once, before the pool is sized.)
const MIN_LANES: usize = 8;

/// Spins on the generation word before parking (worker side): long enough
/// that back-to-back kernel launches in the s-step inner loop are caught
/// in user space, short enough that an idle pool stops burning cycles
/// quickly (one `spin_loop` hint is tens of cycles).
const WORKER_SPIN: u32 = 1024;

/// Spins on the remaining-count before the submitter blocks on the
/// completion condvar.  Workers usually finish within the submitter's own
/// band time, so this window almost always hits.
const SUBMIT_SPIN: u32 = 256;

/// `(generation, participants)` packed into one atomic word: the low
/// [`PART_BITS`] bits carry the participant count of the current job, the
/// rest the generation.  Packing them lets non-participating workers
/// decide "not my job" from a single acquire load without ever touching
/// the job slot (which only participants may read while it is valid).
const PART_BITS: u32 = 16;
const PART_MASK: u64 = (1 << PART_BITS) - 1;

/// Aligns the per-band chunk cursors to cache lines so owners and thieves
/// on different cores do not false-share.
#[repr(align(64))]
struct CacheLine(AtomicUsize);

/// The job slot holds a type-erased borrowed parallel-region body.  The
/// `'static` in the stored pointer type is a lie told only for storage; the
/// submit/acknowledge hand-shake guarantees the pointee outlives every
/// dereference.
struct JobSlot {
    func: UnsafeCell<Option<*const (dyn Fn(usize) + Sync + 'static)>>,
    nchunks: UnsafeCell<usize>,
}

// SAFETY: the slot is only written by the unique submitter (holder of
// `Pool::submit`) while no participant is between generation-observe and
// acknowledge, and only read by participants after the acquire load of
// `Pool::gen_word` that the release store made the write happen-before.
// Non-participants never touch the slot.
unsafe impl Sync for JobSlot {}

struct Pool {
    /// Number of spawned worker threads (excluding submitters).  Written
    /// once during pool construction, before the pool is published.
    workers: AtomicUsize,
    /// Packed `(generation << PART_BITS) | participants`; bumped once per
    /// dispatched region with release ordering.
    gen_word: AtomicU64,
    /// Worker thread handles for targeted `unpark`; index = worker lane.
    /// Set once at pool construction, after the workers are spawned.
    handles: OnceLock<Vec<Thread>>,
    /// The published job.
    slot: JobSlot,
    /// Per-participant band cursors: `cursors[p]` is the next unclaimed
    /// offset *within* participant `p`'s ownership band.
    cursors: Vec<CacheLine>,
    /// Participating workers that have not yet acknowledged.
    remaining: AtomicUsize,
    /// Set when a worker caught a panic from the region body.
    panicked: AtomicBool,
    /// Submitter-side completion parking (taken only after the spin window
    /// misses).
    done_lock: Mutex<()>,
    done: Condvar,
    /// Serializes job submission; a submitter whose `try_lock` fails runs
    /// its region inline on its own thread.
    submit: Mutex<()>,
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let lanes = max_threads().max(hardware_threads()).max(MIN_LANES);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            workers: AtomicUsize::new(0),
            gen_word: AtomicU64::new(0),
            handles: OnceLock::new(),
            slot: JobSlot {
                func: UnsafeCell::new(None),
                nchunks: UnsafeCell::new(0),
            },
            cursors: (0..lanes).map(|_| CacheLine(AtomicUsize::new(0))).collect(),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            submit: Mutex::new(()),
        }));
        let mut handles = Vec::new();
        for w in 0..lanes.saturating_sub(1) {
            let spawned = std::thread::Builder::new()
                .name(format!("parkit-worker-{w}"))
                .spawn(move || worker_loop(pool, w));
            match spawned {
                Ok(handle) => handles.push(handle.thread().clone()),
                Err(_) => break, // run with however many workers we got
            }
        }
        // Written once before `get_or_init` publishes the pool; submitters
        // observe both through the OnceLock's release/acquire pair.
        pool.workers.store(handles.len(), Ordering::Release);
        let _ = pool.handles.set(handles);
        pool
    })
}

/// Total execution lanes the pool dispatches to (workers + the submitting
/// thread).  This is the upper bound on simultaneously running chunks of a
/// single region.
pub fn pool_lanes() -> usize {
    pool().workers.load(Ordering::Relaxed) + 1
}

/// Start of participant `p`'s ownership band over `nchunks` chunks split
/// across `participants` bands — same splitting rule as
/// [`crate::chunk_ranges`] (first `nchunks % participants` bands get one
/// extra chunk), in closed form so dispatch never allocates.
#[inline]
fn band_start(nchunks: usize, participants: usize, p: usize) -> usize {
    let base = nchunks / participants;
    let rem = nchunks % participants;
    p * base + p.min(rem)
}

/// Claim-and-run loop for participant `p`: drain the own band first (so
/// repeated same-shape jobs touch the same rows from the same lane), then
/// steal from the other bands in cyclic order.  Returns the number of
/// chunks this participant executed.
fn run_band(
    pool: &Pool,
    participants: usize,
    nchunks: usize,
    p: usize,
    body: &(dyn Fn(usize) + Sync),
) -> u64 {
    let mut claimed = 0u64;
    for scan in 0..participants {
        let band = (p + scan) % participants;
        let start = band_start(nchunks, participants, band);
        let len = band_start(nchunks, participants, band + 1) - start;
        loop {
            let offset = pool.cursors[band].0.fetch_add(1, Ordering::Relaxed);
            if offset >= len {
                break;
            }
            claimed += 1;
            body(start + offset);
        }
    }
    claimed
}

fn worker_loop(pool: &'static Pool, lane: usize) {
    let mut seen = 0u64;
    loop {
        // Spin briefly — the s-step inner loop launches kernels
        // back-to-back, and catching the next generation in the spin
        // window skips the park/unpark round trip entirely.
        let mut word = pool.gen_word.load(Ordering::Acquire);
        let mut spins = 0u32;
        while word == seen {
            if spins < WORKER_SPIN {
                std::hint::spin_loop();
                spins += 1;
            } else {
                // A stale unpark token makes the first park return
                // immediately; the loop re-checks and parks again.
                std::thread::park();
            }
            word = pool.gen_word.load(Ordering::Acquire);
        }
        seen = word;
        let participants = (word & PART_MASK) as usize;
        if lane + 1 >= participants {
            // Not a participant of this job: the slot may already be
            // gone by the time we got here, so never touch it.
            continue;
        }
        // SAFETY: this lane participates, so the submitter cannot retire
        // the job (or start the next one) until we acknowledge below; the
        // acquire load above synchronizes with the release publication.
        let (func, nchunks) = unsafe {
            (
                (*pool.slot.func.get()).expect("pool job missing"),
                *pool.slot.nchunks.get(),
            )
        };
        let body = unsafe { &*func };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let t0 = trace::enabled().then(trace::now_ns);
            let claimed = run_band(pool, participants, nchunks, lane, body);
            if let Some(t0) = t0 {
                trace::complete_span2(
                    "pool",
                    "chunks",
                    t0,
                    "claimed",
                    claimed,
                    "nchunks",
                    nchunks as u64,
                );
            }
        }));
        if outcome.is_err() {
            pool.panicked.store(true, Ordering::Relaxed);
        }
        if pool.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = pool.done_lock.lock().expect("pool done lock poisoned");
            pool.done.notify_one();
        }
    }
}

/// Execute `body(0..nchunks)` with each chunk index run exactly once,
/// distributed over the persistent pool (the calling thread participates),
/// or, when the pool cannot take the region, in index order on the calling
/// thread.  Returns after every chunk has completed.
pub(crate) fn run_chunks(nchunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let pool = pool();
    let workers = pool.workers.load(Ordering::Relaxed);
    let submit_guard = if nchunks > 1 && workers > 0 {
        pool.submit.try_lock().ok()
    } else {
        None
    };
    let Some(submit_guard) = submit_guard else {
        let _span = trace::span1("pool", "inline", "nchunks", nchunks as u64);
        for i in 0..nchunks {
            body(i);
        }
        return;
    };
    let t_dispatch = trace::enabled().then(trace::now_ns);
    let participants = nchunks.min(workers + 1);
    // Publish the job.  The lifetime transmute is sound because this
    // function does not return until every participant acknowledges
    // (below), so no worker can hold the pointer past the borrow.
    let ptr: *const (dyn Fn(usize) + Sync + '_) = body;
    let ptr: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(ptr)
    };
    unsafe {
        *pool.slot.func.get() = Some(ptr);
        *pool.slot.nchunks.get() = nchunks;
    }
    for cursor in pool.cursors.iter().take(participants) {
        cursor.0.store(0, Ordering::Relaxed);
    }
    pool.panicked.store(false, Ordering::Relaxed);
    pool.remaining.store(participants - 1, Ordering::Release);
    let generation = (pool.gen_word.load(Ordering::Relaxed) >> PART_BITS).wrapping_add(1);
    pool.gen_word.store(
        (generation << PART_BITS) | participants as u64,
        Ordering::Release,
    );
    // Wake exactly the participating workers; idle lanes keep sleeping.
    for handle in pool
        .handles
        .get()
        .into_iter()
        .flatten()
        .take(participants - 1)
    {
        handle.unpark();
    }
    if let Some(t0) = t_dispatch {
        trace::complete_span1("pool", "dispatch", t0, "nchunks", nchunks as u64);
    }
    // Participate as the last band (catching panics so workers are never
    // left holding a dangling job pointer while we unwind).
    let caller_outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let t0 = trace::enabled().then(trace::now_ns);
        let claimed = run_band(pool, participants, nchunks, participants - 1, body);
        if let Some(t0) = t0 {
            trace::complete_span2(
                "pool",
                "chunks",
                t0,
                "claimed",
                claimed,
                "nchunks",
                nchunks as u64,
            );
        }
    }));
    {
        let t0 = trace::enabled().then(trace::now_ns);
        let mut spins = 0u32;
        while pool.remaining.load(Ordering::Acquire) != 0 && spins < SUBMIT_SPIN {
            std::hint::spin_loop();
            spins += 1;
        }
        if pool.remaining.load(Ordering::Acquire) != 0 {
            let mut done_guard = pool.done_lock.lock().expect("pool done lock poisoned");
            while pool.remaining.load(Ordering::Acquire) != 0 {
                done_guard = pool.done.wait(done_guard).expect("pool done lock poisoned");
            }
            drop(done_guard);
        }
        if let Some(t0) = t0 {
            trace::complete_span1("pool", "barrier_wait", t0, "nchunks", nchunks as u64);
        }
    }
    drop(submit_guard);
    if let Err(payload) = caller_outcome {
        std::panic::resume_unwind(payload);
    }
    assert!(
        !pool.panicked.load(Ordering::Relaxed),
        "parkit: a pooled worker panicked inside a parallel region"
    );
}

/// A raw pointer that may cross thread boundaries; used to hand disjoint
/// chunk slices of one allocation to pool workers.
///
/// Access goes through [`SendPtr::get`] so closures capture the wrapper
/// (whose `Sync` impl encodes the disjointness argument) rather than the
/// bare pointer field.
pub(crate) struct SendPtr<T>(pub *mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: callers only ever dereference disjoint index ranges from
// different threads, which is the same guarantee `split_at_mut` encodes.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn every_chunk_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        run_chunks(97, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_and_one_chunk_take_the_fast_path() {
        run_chunks(0, &|_| panic!("must not run"));
        let ran = AtomicU64::new(0);
        run_chunks(1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bands_tile_the_chunk_space() {
        for nchunks in [2usize, 3, 7, 8, 97] {
            for participants in 1..=nchunks.min(9) {
                assert_eq!(band_start(nchunks, participants, 0), 0);
                assert_eq!(band_start(nchunks, participants, participants), nchunks);
                for p in 0..participants {
                    let lo = band_start(nchunks, participants, p);
                    let hi = band_start(nchunks, participants, p + 1);
                    assert!(lo <= hi, "bands must be ordered");
                    assert!(hi - lo <= nchunks.div_ceil(participants));
                }
            }
        }
    }

    #[test]
    fn narrow_jobs_leave_idle_lanes_unwoken() {
        // A 2-chunk job has 2 participants regardless of pool width; it
        // must complete with only worker 0 woken.
        let hits: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        run_chunks(2, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_survives_many_small_jobs() {
        let total = AtomicU64::new(0);
        for round in 0..200 {
            run_chunks(4, &|i| {
                total.fetch_add((round * 4 + i) as u64 % 7, Ordering::Relaxed);
            });
        }
        let expect: u64 = (0..800u64).map(|x| x % 7).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        // Simulated distsim ranks submit in parallel; losers of the submit
        // race run their regions inline and still finish.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sum = AtomicU64::new(0);
                    run_chunks(16, &|i| {
                        sum.fetch_add(i as u64, Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), 120);
                });
            }
        });

        // A submitter that finds the pool busy runs every chunk on its own
        // thread, in index order.  The holder's chunk 1 (the submitter's
        // own band) waits until chunk 0 is claimed, so in a pooled region
        // worker 0 runs chunk 0 and keeps the region in flight (and the
        // submit lock taken) until the second submitter is done.  Chunk 0
        // on the holder's thread means the region ran inline (another
        // test held the pool): retry.
        let held = Barrier::new(2);
        let released = Barrier::new(2);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let holder = std::thread::current().id();
                let on_worker = AtomicBool::new(false);
                while !on_worker.load(Ordering::Acquire) {
                    let started = AtomicBool::new(false);
                    run_chunks(2, &|i| {
                        if i == 1 {
                            while !started.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        } else {
                            started.store(true, Ordering::Release);
                            if std::thread::current().id() != holder {
                                on_worker.store(true, Ordering::Release);
                                held.wait();
                                released.wait();
                            }
                        }
                    });
                }
            });
            held.wait();
            run_chunks(16, &|i| {
                order.lock().unwrap().push((std::thread::current().id(), i));
            });
            released.wait();
        });
        let me = std::thread::current().id();
        let expect: Vec<_> = (0..16).map(|i| (me, i)).collect();
        assert_eq!(order.into_inner().unwrap(), expect);
    }

    #[test]
    fn pool_lanes_is_positive() {
        assert!(pool_lanes() >= 1);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            run_chunks(8, &|i| {
                if i % 2 == 1 {
                    panic!("chunk {i} failed");
                }
            });
        });
        assert!(result.is_err());
    }
}
