//! Exclusive hold on the process-global `parkit` thread count.
//!
//! Kernel reductions are bitwise reproducible for a fixed thread count, but
//! `cargo test` runs a binary's tests in parallel and `parkit::set_num_threads`
//! is process-wide.  A test that compares solves bit for bit, or that changes
//! the count, holds this guard for its whole body, so no solve ever runs
//! while another test has the count changed.  Dropping the guard restores the
//! automatic default.

use std::sync::{Mutex, MutexGuard, OnceLock};

pub struct PoolGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        parkit::set_num_threads(0);
    }
}

pub fn pool_guard() -> PoolGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    PoolGuard {
        _lock: LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner()),
    }
}
