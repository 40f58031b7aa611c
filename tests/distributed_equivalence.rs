//! Integration tests of the distributed path: the same solve run on one
//! serial rank and on several simulated (thread) ranks must converge to the
//! same solution, and the block orthogonalization must behave identically.

use distsim::{run_ranks, Communicator, DistCsr, DistMultiVector, SerialComm};
use sparse::{block_row_partition, laplace2d_9pt, Laplace2d9ptRows};
use ssgmres::{GmresConfig, Identity, OrthoKind, SStepGmres};
use std::sync::Arc;

#[test]
fn distributed_solve_matches_serial_solution() {
    let a = laplace2d_9pt(24, 24);
    let n = a.nrows();
    let b = a.spmv_alloc(&vec![1.0; n]);
    let config = GmresConfig {
        restart: 30,
        step_size: 5,
        tol: 1e-9,
        ortho: OrthoKind::TwoStage { big_panel: 30 },
        ..GmresConfig::default()
    };
    let (x_serial, serial_result) = SStepGmres::new(config.clone()).solve_serial(&a, &b);
    assert!(serial_result.converged);

    for nranks in [2usize, 3] {
        let part = block_row_partition(n, nranks);
        let pieces = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let comm_dyn: Arc<dyn Communicator> = comm;
            let dist = DistCsr::from_global(comm_dyn, &a, &part);
            let mut x = vec![0.0; hi - lo];
            let result =
                SStepGmres::new(config.clone()).solve(&dist, &Identity, &b[lo..hi], &mut x);
            (lo, x, result.converged, result.iterations)
        });
        let mut x_dist = vec![0.0; n];
        for (lo, x, converged, iterations) in &pieces {
            assert!(*converged, "nranks {nranks}");
            assert_eq!(
                *iterations, serial_result.iterations,
                "iteration counts must match"
            );
            x_dist[*lo..*lo + x.len()].copy_from_slice(x);
        }
        for (p, q) in x_dist.iter().zip(&x_serial) {
            assert!(
                (p - q).abs() < 1e-8,
                "nranks {nranks}: distributed and serial solutions differ: {p} vs {q}"
            );
        }
    }
}

#[test]
fn streamed_assembly_solve_is_bitwise_identical_to_replicated() {
    // The scaling refactor's contract: the whole solve — operator assembly
    // from a row provider (no rank holds the global matrix), halo
    // exchanges, orthogonalization, solution — reproduces the
    // replicated-construction solve bit for bit, with identical
    // communication counts, on every rank count.
    let (nx, ny) = (20, 20);
    let rows = Laplace2d9ptRows { nx, ny };
    let a = laplace2d_9pt(nx, ny);
    let n = a.nrows();
    let b = a.spmv_alloc(&vec![1.0; n]);
    let config = GmresConfig {
        restart: 30,
        step_size: 5,
        tol: 1e-8,
        ortho: OrthoKind::TwoStage { big_panel: 30 },
        ..GmresConfig::default()
    };
    for nranks in [1usize, 2, 4] {
        let part = block_row_partition(n, nranks);
        let outcomes = run_ranks(nranks, |comm| {
            let (lo, hi) = part.range(comm.rank());
            let solver = SStepGmres::new(config.clone());
            // Replicated path.
            let dist = DistCsr::from_global(comm.clone(), &a, &part);
            let mut x_rep = vec![0.0; hi - lo];
            let rep = solver.solve(&dist, &Identity, &b[lo..hi], &mut x_rep);
            // Streamed path: the operator assembled from the row provider.
            let dist_str = DistCsr::from_row_source(comm, &part, &rows);
            let mut x_str = vec![0.0; hi - lo];
            let streamed = solver.solve(&dist_str, &Identity, &b[lo..hi], &mut x_str);
            assert_eq!(x_rep, x_str, "solutions must be bitwise identical");
            assert_eq!(rep.iterations, streamed.iterations);
            assert_eq!(rep.comm_total, streamed.comm_total);
            assert_eq!(rep.comm_ortho, streamed.comm_ortho);
            rep.converged && streamed.converged
        });
        assert!(outcomes.into_iter().all(|c| c), "nranks {nranks}");
    }
}

#[test]
fn distributed_block_orthogonalization_matches_serial() {
    // Orthogonalize the same global multivector serially and across 4 ranks;
    // the resulting R factors must agree to rounding.
    let n = 400;
    let cols = 16;
    let full = dense::Matrix::from_fn(n, cols, |i, j| {
        ((i * 13 + j * 7) % 23) as f64 * 0.17 - 1.0 + if (i + j) % 6 == 0 { 2.0 } else { 0.0 }
    });
    let run_with = |kind: OrthoKind| -> dense::Matrix {
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), full.clone());
        let mut r = dense::Matrix::zeros(cols, cols);
        let mut ortho = blockortho::make_orthogonalizer(kind, cols);
        let mut c = 0;
        while c < cols {
            ortho
                .orthogonalize_panel(&mut basis, c..c + 4, &mut r)
                .unwrap();
            c += 4;
        }
        ortho.finish(&mut basis, &mut r).unwrap();
        r
    };
    for kind in [OrthoKind::BcgsPip2, OrthoKind::TwoStage { big_panel: 8 }] {
        let r_serial = run_with(kind);
        let nranks = 4;
        let part = block_row_partition(n, nranks);
        let r_dist_all = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let comm_dyn: Arc<dyn Communicator> = comm;
            let mut basis = DistMultiVector::zeros(comm_dyn, n, hi - lo, lo, cols);
            for j in 0..cols {
                basis
                    .local_mut()
                    .col_mut(j)
                    .copy_from_slice(&full.col(j)[lo..hi]);
            }
            let mut r = dense::Matrix::zeros(cols, cols);
            let mut ortho = blockortho::make_orthogonalizer(kind, cols);
            let mut c = 0;
            while c < cols {
                ortho
                    .orthogonalize_panel(&mut basis, c..c + 4, &mut r)
                    .unwrap();
                c += 4;
            }
            ortho.finish(&mut basis, &mut r).unwrap();
            r
        });
        for r_dist in &r_dist_all {
            for j in 0..cols {
                for i in 0..cols {
                    assert!(
                        (r_dist[(i, j)] - r_serial[(i, j)]).abs() < 1e-9 * r_serial.max_abs(),
                        "{kind:?}: R({i},{j}) differs between serial and distributed"
                    );
                }
            }
        }
    }
}

#[test]
fn distributed_ortho_reduce_counts_are_rank_independent() {
    // The number of global reductions per rank must not depend on the rank
    // count — only their cost does (which the performance model captures).
    let n = 600;
    let cols = 21;
    let full = dense::Matrix::from_fn(n, cols, |i, j| {
        ((i * 3 + j * 11) % 17) as f64 - 8.0 + (i as f64 * (j as f64 + 1.0) * 0.01).sin()
    });
    let count_for = |nranks: usize| -> usize {
        let part = block_row_partition(n, nranks);
        let counts = run_ranks(nranks, |comm| {
            let rank = comm.rank();
            let (lo, hi) = part.range(rank);
            let stats = comm.clone();
            let comm_dyn: Arc<dyn Communicator> = comm;
            let mut basis = DistMultiVector::zeros(comm_dyn, n, hi - lo, lo, cols);
            for j in 0..cols {
                basis
                    .local_mut()
                    .col_mut(j)
                    .copy_from_slice(&full.col(j)[lo..hi]);
            }
            let mut r = dense::Matrix::zeros(cols, cols);
            let mut ortho =
                blockortho::make_orthogonalizer(OrthoKind::TwoStage { big_panel: 20 }, cols);
            ortho.orthogonalize_panel(&mut basis, 0..1, &mut r).unwrap();
            let mut c = 1;
            while c < cols {
                ortho
                    .orthogonalize_panel(&mut basis, c..c + 5, &mut r)
                    .unwrap();
                c += 5;
            }
            ortho.finish(&mut basis, &mut r).unwrap();
            stats.stats().snapshot().allreduces
        });
        assert!(counts.iter().all(|&c| c == counts[0]));
        counts[0]
    };
    assert_eq!(count_for(1), count_for(4));
}
