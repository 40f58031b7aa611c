//! Tier-1 battery for the tracing layer's core contract: observability is
//! **free**.  With tracing disabled a solve must be bitwise identical to an
//! untraced one — solution bits, iteration counts, and every `CommStats`
//! counter including the per-peer p2p tallies — and enabling it must add
//! spans, not communication: zero extra reductions, every span balanced,
//! across thread-pool widths and simulated rank counts (extendable via
//! `DISTSIM_TEST_RANKS=6,8` as in the other sweep batteries).

#[path = "support/pool.rs"]
mod pool;

use distsim::{run_ranks, Communicator, DistCsr};
use pool::pool_guard;
use sparse::{block_row_partition, laplace2d_9pt, Laplace2d9ptRows};
use ssgmres::{GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The enable flag, capacity, and ring registry of `trace` are process
/// globals; tests that toggle them must not interleave (integration tests
/// run on parallel threads within one binary).
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Rank counts to sweep: defaults plus any from `DISTSIM_TEST_RANKS`.
fn ranks_under_test() -> Vec<usize> {
    let mut ranks = vec![1usize, 2, 4];
    if let Ok(spec) = std::env::var("DISTSIM_TEST_RANKS") {
        for tok in spec.split(',') {
            if let Ok(r) = tok.trim().parse::<usize>() {
                if r >= 1 && !ranks.contains(&r) {
                    ranks.push(r);
                }
            }
        }
    }
    ranks
}

fn config() -> GmresConfig {
    GmresConfig {
        restart: 30,
        step_size: 5,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel: 30 },
        ..GmresConfig::default()
    }
}

fn assert_identical(tag: &str, x0: &[f64], r0: &SolveResult, x1: &[f64], r1: &SolveResult) {
    assert_eq!(x0, x1, "{tag}: solutions must be bitwise identical");
    assert_eq!(r0.iterations, r1.iterations, "{tag}: iterations");
    assert_eq!(r0.relres_history, r1.relres_history, "{tag}: residuals");
    // CommStatsSnapshot equality covers every counter *and* the per-peer
    // p2p tallies, so this is also the zero-extra-reductions assertion.
    assert_eq!(r0.comm_total, r1.comm_total, "{tag}: comm stats");
    assert_eq!(r0.comm_ortho, r1.comm_ortho, "{tag}: ortho comm stats");
}

#[test]
fn toggling_tracing_keeps_serial_solves_bitwise_identical() {
    let _guard = trace_lock();
    let a = laplace2d_9pt(18, 18);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let solver = SStepGmres::new(config());

    trace::set_enabled(false);
    let (x_off, r_off) = solver.solve_serial(&a, &b);
    assert!(r_off.converged);
    assert!(
        r_off.cycle_timings.iter().all(|t| t.sync_ns == 0),
        "sync attribution must be exactly 0 with tracing disabled"
    );

    trace::set_enabled(!trace::compiled_out());
    let (x_on, r_on) = solver.solve_serial(&a, &b);
    trace::set_enabled(false);
    assert_identical("disabled vs enabled", &x_off, &r_off, &x_on, &r_on);

    // And back off again: enabling must leave no residue in the solver.
    let (x_off2, r_off2) = solver.solve_serial(&a, &b);
    assert_identical("disabled after enabled", &x_off, &r_off, &x_off2, &r_off2);
}

#[test]
fn toggling_tracing_keeps_distributed_solves_bitwise_identical() {
    let _guard = trace_lock();
    let (nx, ny) = (16, 16);
    let rows = Laplace2d9ptRows { nx, ny };
    let a = laplace2d_9pt(nx, ny);
    let n = a.nrows();
    let b = a.spmv_alloc(&vec![1.0; n]);
    let nranks = 3;
    let part = block_row_partition(n, nranks);
    let run = || {
        run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_row_source(comm_dyn.clone(), &part, &rows);
            let mut x = vec![0.0; hi - lo];
            let result = SStepGmres::new(config()).solve(&dist, &Identity, &b[lo..hi], &mut x);
            (x, result, comm_dyn.stats().snapshot())
        })
    };

    trace::set_enabled(false);
    let off = run();
    trace::set_enabled(!trace::compiled_out());
    let on = run();
    trace::set_enabled(false);

    for (rank, ((x0, r0, s0), (x1, r1, s1))) in off.iter().zip(&on).enumerate() {
        assert!(r0.converged, "rank {rank}");
        assert_identical(&format!("rank {rank}"), x0, r0, x1, r1);
        // The whole endpoint's traffic — halo p2p per peer included — must
        // be identical counter for counter.
        assert_eq!(s0, s1, "rank {rank}: endpoint comm stats");
        if nranks > 1 {
            assert!(
                !s0.p2p_peers.is_empty(),
                "rank {rank}: halo exchange must produce per-peer tallies"
            );
            let peer_msgs: usize = s0.p2p_peers.iter().map(|p| p.messages).sum();
            let peer_words: usize = s0.p2p_peers.iter().map(|p| p.words).sum();
            assert_eq!(peer_msgs, s0.p2p_messages, "rank {rank}: tally split");
            assert_eq!(peer_words, s0.p2p_words, "rank {rank}: tally split");
        }
    }
}

#[test]
fn spans_balance_across_thread_and_rank_sweeps() {
    if trace::compiled_out() {
        return;
    }
    let _guard = trace_lock();
    let _pool = pool_guard();
    let a = laplace2d_9pt(14, 14);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let rows = Laplace2d9ptRows { nx: 14, ny: 14 };
    let n = a.nrows();

    for threads in [1usize, 4] {
        parkit::set_num_threads(threads);
        trace::clear();
        trace::set_enabled(true);
        let (_, result) = SStepGmres::new(config()).solve_serial(&a, &b);
        trace::set_enabled(false);
        assert!(result.converged, "threads {threads}");
        let stats = trace::stats();
        assert!(stats.events > 0, "threads {threads}: no spans recorded");
        assert_eq!(
            stats.open_spans, 0,
            "threads {threads}: unbalanced spans left open"
        );
    }
    parkit::set_num_threads(0);

    for nranks in ranks_under_test() {
        let part = block_row_partition(n, nranks);
        trace::clear();
        trace::set_enabled(true);
        let results = run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_row_source(comm_dyn, &part, &rows);
            let mut x = vec![0.0; hi - lo];
            SStepGmres::new(config())
                .solve(&dist, &Identity, &b[lo..hi], &mut x)
                .converged
        });
        trace::set_enabled(false);
        assert!(results.iter().all(|&c| c), "nranks {nranks}");
        let stats = trace::stats();
        assert_eq!(
            stats.open_spans, 0,
            "nranks {nranks}: unbalanced spans left open"
        );
    }
}

#[test]
fn chrome_timeline_validates_and_has_one_lane_per_rank() {
    if trace::compiled_out() {
        return;
    }
    let _guard = trace_lock();
    let (nx, ny) = (12, 12);
    let rows = Laplace2d9ptRows { nx, ny };
    let a = laplace2d_9pt(nx, ny);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let nranks = 3;
    let part = block_row_partition(a.nrows(), nranks);

    trace::clear();
    trace::set_enabled(true);
    run_ranks(nranks, |comm| {
        let (lo, hi) = part.range(comm.rank());
        let comm_dyn: Arc<dyn Communicator> = comm;
        let dist = DistCsr::from_row_source(comm_dyn, &part, &rows);
        let mut x = vec![0.0; hi - lo];
        SStepGmres::new(config()).solve(&dist, &Identity, &b[lo..hi], &mut x);
    });
    trace::set_enabled(false);

    let timeline = trace::collect();
    let json = timeline.to_chrome_json();
    trace::validate_json(&json).expect("chrome trace JSON must be syntactically valid");
    for rank in 0..nranks {
        let label = format!("\"rank {rank}\"");
        assert!(json.contains(&label), "timeline is missing lane {label}");
    }
    // The rank lanes must actually contain comm spans (allreduce waits and
    // the halo exchange p2p), not just their thread-name metadata.
    assert!(
        timeline.category_ns("comm") > 0,
        "no comm span time recorded"
    );
    assert!(
        timeline
            .merged_spans()
            .iter()
            .any(|row| row.cat == "comm" && row.name == "send"),
        "halo exchange must record p2p send spans"
    );
}

#[test]
fn cycle_timings_partition_every_cycle() {
    let _guard = trace_lock();
    let a = laplace2d_9pt(16, 16);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    trace::set_enabled(!trace::compiled_out());
    let (_, result) = SStepGmres::new(config()).solve_serial(&a, &b);
    trace::set_enabled(false);
    assert!(result.converged);
    assert_eq!(
        result.cycle_timings.len(),
        result.step_history.len(),
        "one timing record per started cycle"
    );
    for (c, t) in result.cycle_timings.iter().enumerate() {
        assert_eq!(t.cycle, c);
        assert_eq!(t.step, result.step_history[c]);
        assert!(t.total_ns > 0);
        assert_eq!(
            t.segments_ns(),
            t.total_ns,
            "cycle {c}: phase buckets must partition the cycle"
        );
        assert!(t.sync_ns <= t.total_ns, "cycle {c}: sync exceeds total");
        assert_eq!(t.compute_ns(), t.total_ns - t.sync_ns);
    }
}
