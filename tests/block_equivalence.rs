//! Block/single-RHS equivalence battery: the contract that lets
//! `SStepGmres::solve` be the one-column case of the block cycle.
//!
//! A one-column block solve is not "numerically close to" the scalar
//! solver — it **is** the scalar solver: every kernel call, reduce, and
//! branch happens in the identical order with the identical operands, so
//! solution bits, every per-cycle history, and the full communication
//! ledger (`CommStatsSnapshot` implements `PartialEq`) must match
//! exactly.  Since `solve` now runs through the block cycle, the scalar
//! side of each comparison is additionally pinned to the committed golden
//! fingerprints (`support/goldens.rs`), captured from the dedicated
//! single-RHS loop before it was deleted.  The battery covers
//! orthogonalization schemes, basis strategies, step policies, detection
//! guards, thread-pool widths (explicitly here; the CI test matrix
//! additionally sweeps `TWOSTAGE_NUM_THREADS`), and simulated rank counts
//! (`DISTSIM_TEST_RANKS`, comma-separated, extends the sweep like the
//! other distributed batteries; goldens exist for 1–4 ranks).

#[path = "support/goldens.rs"]
mod goldens;
#[path = "support/pool.rs"]
mod pool;

use std::sync::Arc;

use distsim::{run_ranks, Communicator, DistCsr};
use pool::pool_guard;
use sparse::{block_row_partition, laplace2d_9pt, Csr};
use ssgmres::{BlockSolveResult, GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult};

fn rhs_for(a: &Csr, seed: usize) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
        .collect()
}

/// Rank counts to sweep: defaults plus any from `DISTSIM_TEST_RANKS`
/// (comma-separated), the same hook the CI test matrix drives.
fn ranks_under_test() -> Vec<usize> {
    let mut ranks = vec![2usize, 3];
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

/// The full bitwise contract between a scalar solve and the k = 1 block
/// solve of the same system: solution, counts, every history, and both
/// communication ledgers.
fn assert_block_matches_scalar(
    tag: &str,
    x_scalar: &[f64],
    scalar: &SolveResult,
    x_block: &[f64],
    block: &BlockSolveResult,
) {
    assert_eq!(x_scalar, x_block, "{tag}: solution bits diverge");
    assert_eq!(scalar.converged, block.converged, "{tag}: converged");
    assert_eq!(vec![scalar.converged], block.col_converged, "{tag}");
    assert_eq!(scalar.iterations, block.iterations, "{tag}: iterations");
    assert_eq!(scalar.restarts, block.restarts, "{tag}: restarts");
    assert_eq!(
        scalar.final_relres.to_bits(),
        block.final_relres[0].to_bits(),
        "{tag}: final relres bits"
    );
    assert_eq!(
        scalar.relres_history, block.relres_history[0],
        "{tag}: relres history"
    );
    assert_eq!(
        scalar.shift_history, block.shift_history,
        "{tag}: shift history"
    );
    assert_eq!(scalar.step_history, block.step_history, "{tag}: steps");
    assert_eq!(scalar.spmv_count, block.spmv_count, "{tag}: spmv count");
    assert_eq!(
        scalar.precond_count, block.precond_count,
        "{tag}: precond count"
    );
    assert_eq!(scalar.rescues, block.rescues, "{tag}: rescues");
    assert_eq!(scalar.breakdown, block.breakdown, "{tag}: breakdown");
    assert_eq!(
        scalar.ortho_fallbacks, block.ortho_fallbacks,
        "{tag}: fallbacks"
    );
    assert_eq!(
        scalar.comm_total, block.comm_total,
        "{tag}: total communication ledger"
    );
    assert_eq!(
        scalar.comm_ortho, block.comm_ortho,
        "{tag}: ortho communication ledger"
    );
    // Health decisions must agree cycle by cycle (the block report adds
    // the per-column condition vector on top of the scalar fields).
    assert_eq!(
        scalar.health_history.len(),
        block.health_history.len(),
        "{tag}: health history length"
    );
    for (hs, hb) in scalar.health_history.iter().zip(&block.health_history) {
        assert_eq!(hs.verdict, hb.verdict, "{tag}: cycle verdict");
        assert_eq!(
            hs.kappa_est.to_bits(),
            hb.kappa_est.to_bits(),
            "{tag}: kappa bits"
        );
        assert_eq!(hb.kappa_per_col.len(), 1, "{tag}: one column, one kappa");
        assert_eq!(
            hb.kappa_per_col[0].to_bits(),
            hb.kappa_est.to_bits(),
            "{tag}: block kappa aggregates its only column"
        );
    }
}

#[test]
fn k1_block_solve_is_bitwise_the_scalar_solve_on_every_scheme() {
    let _pool = pool_guard();
    let a = laplace2d_9pt(18, 18);
    let b = rhs_for(&a, 0);
    for ortho in goldens::schemes() {
        for basis in goldens::bases() {
            let tag = format!("{ortho:?}/{basis:?}");
            let solver = SStepGmres::new(goldens::matrix_config(ortho, &basis, false, false));
            let (x_scalar, scalar) = solver.solve_serial(&a, &b);
            assert!(scalar.converged, "{tag}: {:?}", scalar.breakdown);
            goldens::assert_golden(
                &goldens::matrix_key(ortho, &basis, false, false, 1),
                &[(x_scalar.clone(), scalar.clone())],
            );
            let (x_block, block) = solver.solve_block_serial(&a, std::slice::from_ref(&b));
            assert_block_matches_scalar(&tag, &x_scalar, &scalar, x_block.col(0), &block);
            assert_eq!(block.deflated_at, vec![Some(block.restarts)], "{tag}");
            assert_eq!(block.deflation_order, vec![0], "{tag}");
        }
    }
}

#[test]
fn k1_equivalence_survives_auto_stepping_and_guards() {
    // Auto step policy exercises the controller/health plumbing; enabled
    // guards route the norm reduce through the guarded path — the block
    // solver must follow both bitwise at k = 1.
    let _pool = pool_guard();
    let case = goldens::auto_guards_case();
    let a = laplace2d_9pt(16, 16);
    let b = rhs_for(&a, 3);
    let solver = SStepGmres::new(case.config.clone());
    let (x_scalar, scalar) = solver.solve_serial(&a, &b);
    assert!(scalar.converged, "{:?}", scalar.breakdown);
    goldens::assert_golden(&case.key, &[(x_scalar.clone(), scalar.clone())]);
    let (x_block, block) = solver.solve_block_serial(&a, std::slice::from_ref(&b));
    assert_block_matches_scalar("auto+guards", &x_scalar, &scalar, x_block.col(0), &block);
    assert_eq!(scalar.faults_detected, block.faults_detected);
    assert_eq!(scalar.faults_recovered, block.faults_recovered);
}

#[test]
fn k1_equivalence_is_bitwise_on_every_thread_count() {
    // The pool width changes intra-reduce accumulation order in the fused
    // kernels; the scalar/block identity must hold at *each* width, and
    // the solves themselves must be width-invariant (the workspace-wide
    // determinism claim).
    let _pool = pool_guard();
    let case = goldens::threads_case();
    let a = laplace2d_9pt(16, 16);
    let b = rhs_for(&a, 1);
    let solver = SStepGmres::new(case.config.clone());
    let mut per_width: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for threads in [1usize, 4] {
        parkit::set_num_threads(threads);
        let (x_scalar, scalar) = solver.solve_serial(&a, &b);
        assert!(scalar.converged, "threads {threads}");
        goldens::assert_golden(&case.key, &[(x_scalar.clone(), scalar.clone())]);
        let (x_block, block) = solver.solve_block_serial(&a, std::slice::from_ref(&b));
        assert_block_matches_scalar(
            &format!("threads {threads}"),
            &x_scalar,
            &scalar,
            x_block.col(0),
            &block,
        );
        per_width.push((x_scalar, x_block.col(0).to_vec()));
    }
    parkit::set_num_threads(0); // restore the automatic default
    let (x1_scalar, x1_block) = &per_width[0];
    for (xs, xb) in &per_width[1..] {
        assert_eq!(x1_scalar, xs, "scalar solve must be width-invariant");
        assert_eq!(x1_block, xb, "block solve must be width-invariant");
    }
}

#[test]
fn k1_equivalence_is_bitwise_on_every_rank_count() {
    let _pool = pool_guard();
    let (nx, ny) = (18, 18);
    let a = laplace2d_9pt(nx, ny);
    let n = a.nrows();
    let b = rhs_for(&a, 2);
    for nranks in ranks_under_test() {
        let case = goldens::ranks_case(nranks);
        let part = block_row_partition(n, nranks);
        let outcomes = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_global(comm_dyn, &a, &part);
            let solver = SStepGmres::new(case.config.clone());
            let mut x_scalar = vec![0.0; hi - lo];
            let scalar = solver.solve(&dist, &Identity, &b[lo..hi], &mut x_scalar);
            let mut bm = dense::Matrix::zeros(hi - lo, 1);
            bm.col_mut(0).copy_from_slice(&b[lo..hi]);
            let mut x_block = dense::Matrix::zeros(hi - lo, 1);
            let block = solver.solve_block(&dist, &Identity, &bm, &mut x_block);
            (x_scalar, scalar, x_block, block)
        });
        if nranks <= 4 {
            let scalar_ranks: Vec<(Vec<f64>, SolveResult)> = outcomes
                .iter()
                .map(|(x, r, _, _)| (x.clone(), r.clone()))
                .collect();
            goldens::assert_golden(&case.key, &scalar_ranks);
        }
        for (rank, (x_scalar, scalar, x_block, block)) in outcomes.iter().enumerate() {
            assert!(scalar.converged, "nranks {nranks} rank {rank}");
            assert_block_matches_scalar(
                &format!("nranks {nranks} rank {rank}"),
                x_scalar,
                scalar,
                x_block.col(0),
                block,
            );
        }
    }
}

#[test]
fn wide_block_schedule_is_rank_count_invariant() {
    let _pool = pool_guard();
    // Beyond k = 1: across rank counts the solve follows the same
    // contract the scalar solver pins in `distributed_equivalence.rs` —
    // the cycle-granular *schedule* (restart count, step history,
    // per-column history lengths, deflation order and deflation cycles)
    // is exactly reproduced because it derives only from replicated
    // reduce results with order-of-magnitude margins, while solution and
    // residual values agree to reduction-reordering accuracy (summation
    // order inside an allreduce legitimately depends on the rank count,
    // which can also move the panel-granular in-cycle early exit).
    let (nx, ny) = (16, 16);
    let a = laplace2d_9pt(nx, ny);
    let n = a.nrows();
    let bs: Vec<Vec<f64>> = (0..3).map(|j| rhs_for(&a, j)).collect();
    let config = GmresConfig {
        restart: 20,
        step_size: 5,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 20 },
        ..GmresConfig::default()
    };
    let solver = SStepGmres::new(config.clone());
    let (x_serial, r_serial) = solver.solve_block_serial(&a, &bs);
    assert!(r_serial.converged, "{:?}", r_serial.breakdown);
    for nranks in ranks_under_test() {
        let part = block_row_partition(n, nranks);
        let outcomes = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_global(comm_dyn, &a, &part);
            let mut bm = dense::Matrix::zeros(hi - lo, 3);
            let mut x = dense::Matrix::zeros(hi - lo, 3);
            for (j, b) in bs.iter().enumerate() {
                bm.col_mut(j).copy_from_slice(&b[lo..hi]);
            }
            let block = SStepGmres::new(config.clone()).solve_block(&dist, &Identity, &bm, &mut x);
            (lo, x, block)
        });
        let mut x_dist = dense::Matrix::zeros(n, 3);
        for (lo, x, block) in &outcomes {
            assert!(block.converged, "nranks {nranks}");
            assert_eq!(block.deflated_at, r_serial.deflated_at, "nranks {nranks}");
            assert_eq!(
                block.deflation_order, r_serial.deflation_order,
                "nranks {nranks}: deflation order must be deterministic"
            );
            assert_eq!(block.restarts, r_serial.restarts, "nranks {nranks}");
            assert_eq!(block.step_history, r_serial.step_history, "nranks {nranks}");
            for (j, (hd, hs)) in block
                .relres_history
                .iter()
                .zip(&r_serial.relres_history)
                .enumerate()
            {
                assert_eq!(
                    hd.len(),
                    hs.len(),
                    "nranks {nranks} col {j}: history length"
                );
                assert!(
                    hd.last().unwrap() <= &1e-8,
                    "nranks {nranks} col {j}: final relres {}",
                    hd.last().unwrap()
                );
            }
            for j in 0..3 {
                x_dist.col_mut(j)[*lo..lo + x.nrows()].copy_from_slice(x.col(j));
            }
        }
        for (p, q) in x_dist.data().iter().zip(x_serial.data()) {
            assert!(
                (p - q).abs() < 1e-6,
                "nranks {nranks}: distributed and serial block solutions differ: {p} vs {q}"
            );
        }
        // And the assembled distributed solution is a genuine solve.
        for (j, b_col) in bs.iter().enumerate() {
            let ax = a.spmv_alloc(x_dist.col(j));
            let rn: f64 = ax
                .iter()
                .zip(b_col)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = b_col.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                rn / bn < 1e-7,
                "nranks {nranks} col {j}: relres {}",
                rn / bn
            );
        }
    }
}
