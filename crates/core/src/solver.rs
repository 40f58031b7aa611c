//! Configuration, result type and single-RHS entry points of the
//! restarted s-step GMRES solver (Fig. 1 / Fig. 5 of the paper).  The
//! cycle itself lives in [`crate::block`]: a single right-hand side is the
//! one-column block.

use crate::basis::BasisStrategy;
use crate::control::{CycleHealth, StepPolicy};
use crate::precond::{Identity, Preconditioner};
use crate::timing::CycleTiming;
use blockortho::OrthoKind;
use dense::Matrix;
use distsim::{CommStatsSnapshot, DistCsr, GuardEvent, GuardPolicy, SerialComm, SketchConfig};
use sparse::{block_row_partition, Csr};

/// Configuration of the (s-step) GMRES solver.
#[derive(Debug, Clone)]
pub struct GmresConfig {
    /// Restart length `m` (the paper uses 60).
    pub restart: usize,
    /// Step size `s` of the matrix-powers kernel (`1` = standard GMRES; the
    /// paper's conservative default is 5).
    pub step_size: usize,
    /// Convergence tolerance on the relative residual `‖b − A·x‖ / ‖r₀‖`
    /// (the paper uses 1e-6).
    pub tol: f64,
    /// Hard cap on the total number of iterations (basis vectors generated).
    pub max_iters: usize,
    /// Hard cap on the number of restart cycles.
    pub max_restarts: usize,
    /// Block orthogonalization scheme.
    pub ortho: OrthoKind,
    /// Krylov basis policy of the matrix-powers kernel (fixed monomial or
    /// Newton shifts, adaptive Ritz harvesting, or a replayed schedule).
    pub basis: BasisStrategy,
    /// Step-size policy: [`StepPolicy::Fixed`] (the default, bitwise the
    /// pre-controller solver), the self-rescuing [`StepPolicy::Auto`], or
    /// a replayed [`StepPolicy::Scheduled`] step schedule.
    pub step_policy: StepPolicy,
    /// Fault-detection guards (Gram screening, halo checksums, agreement
    /// probes) and the in-place recovery budget.  All off by default: no
    /// [`GuardContext`](distsim::GuardContext) is allocated and every
    /// collective is bitwise the unguarded operation.
    pub guards: GuardPolicy,
    /// Sketch operator configuration used by the sketched orthogonalization
    /// kinds ([`OrthoKind::RandCholQr`], [`OrthoKind::TwoStageSketched`]);
    /// ignored by the unsketched kinds.  Fixing the seed makes sketched
    /// runs bitwise replayable.
    pub sketch: SketchConfig,
}

impl Default for GmresConfig {
    fn default() -> Self {
        Self {
            restart: 60,
            step_size: 5,
            tol: 1e-6,
            max_iters: 500_000,
            max_restarts: usize::MAX,
            ortho: OrthoKind::BcgsPip2,
            basis: BasisStrategy::Monomial,
            step_policy: StepPolicy::Fixed,
            guards: GuardPolicy::default(),
            sketch: SketchConfig::default(),
        }
    }
}

/// Configuration matching the paper's "standard GMRES + CGS2" baseline.
pub fn standard_gmres_config() -> GmresConfig {
    GmresConfig {
        step_size: 1,
        ortho: OrthoKind::Cgs2,
        ..GmresConfig::default()
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Whether the relative residual dropped below the tolerance.
    pub converged: bool,
    /// Total number of Krylov basis vectors generated (the paper's "# iters").
    pub iterations: usize,
    /// Number of restart cycles performed.
    pub restarts: usize,
    /// Final true relative residual `‖b − A·x‖ / ‖r₀‖`.
    pub final_relres: f64,
    /// Breakdown diagnostic, if an orthogonalization breakdown occurred.
    pub breakdown: Option<String>,
    /// Number of sparse matrix–vector products performed.
    pub spmv_count: usize,
    /// Number of preconditioner applications performed.
    pub precond_count: usize,
    /// Communication performed by the whole solve (this rank).
    pub comm_total: CommStatsSnapshot,
    /// Communication attributable to block orthogonalization only.
    pub comm_ortho: CommStatsSnapshot,
    /// True relative residual after each completed restart cycle.
    pub relres_history: Vec<f64>,
    /// Newton shifts in effect for each started cycle (empty = monomial).
    /// Feeding this back through [`BasisStrategy::Scheduled`] replays the
    /// solve bitwise.
    pub shift_history: Vec<Vec<f64>>,
    /// The most recent successful Ritz-shift harvest (recorded for every
    /// strategy; only [`BasisStrategy::Adaptive`] acts on it).  Lets a
    /// short warm-up solve serve as a shift oracle for a later fixed-shift
    /// [`BasisStrategy::Newton`] run.
    pub last_harvest: Option<Vec<f64>>,
    /// Total shifted-CholQR fallbacks the orthogonalization took across all
    /// cycles (nonzero only for schemes with a remedial path; distinct
    /// episodes — a big-panel fallback over an already-remediated panel is
    /// not counted twice).
    pub ortho_fallbacks: usize,
    /// Effective step size of each started cycle.  Feeding this back
    /// through [`StepPolicy::Scheduled`] (together with `shift_history`
    /// through [`BasisStrategy::Scheduled`]) replays the solve bitwise.
    pub step_history: Vec<usize>,
    /// Per-cycle health reports (one per started cycle): panel condition
    /// estimate from the R diagonal, per-stage fallback events, breakdown
    /// message, residual, stagnation flag, and verdict.  Recorded for
    /// every policy; only [`StepPolicy::Auto`] acts on it.
    pub health_history: Vec<CycleHealth>,
    /// Number of step-shrink rescues [`StepPolicy::Auto`] took (0 under
    /// `Fixed`/`Scheduled`).
    pub rescues: usize,
    /// Per-cycle wall-time breakdown (one entry per started cycle, aligned
    /// with `step_history`/`health_history`): matrix-powers kernel, block
    /// orthogonalization, Hessenberg recovery, solution update, residual
    /// check, and — when the [`trace`] layer is enabled — the cycle's
    /// synchronization share measured from `"comm"`-category spans.
    pub cycle_timings: Vec<CycleTiming>,
    /// Every fault the detection guards caught during the solve, in
    /// detection order (empty when guards are disabled).
    pub fault_events: Vec<GuardEvent>,
    /// Faults detected by the guards across the whole solve.
    pub faults_detected: usize,
    /// Of those, faults recovered — in place (successful collective retry,
    /// discarded duplicate) or by the cycle-rollback ladder.
    pub faults_recovered: usize,
    /// Faults that defeated every rung of the recovery ladder.  A solve
    /// can still report `converged` with these at zero only if recovery
    /// truly succeeded everywhere.
    pub faults_unrecovered: usize,
}

/// The restarted s-step GMRES solver.
#[derive(Debug, Clone)]
pub struct SStepGmres {
    config: GmresConfig,
}

impl SStepGmres {
    /// Create a solver with the given configuration.
    pub fn new(config: GmresConfig) -> Self {
        assert!(config.restart >= 1, "restart length must be at least 1");
        assert!(config.step_size >= 1, "step size must be at least 1");
        assert!(
            config.step_size <= config.restart,
            "step size cannot exceed the restart length"
        );
        if let StepPolicy::Auto(auto) = &config.step_policy {
            assert!(auto.min_step >= 1, "auto step floor must be at least 1");
            assert!(
                auto.min_step <= config.step_size,
                "auto step floor cannot exceed the requested step size"
            );
            assert!(auto.grow_after >= 1, "grow_after must be at least 1");
            assert!(
                auto.stagnation_window >= 1,
                "stagnation window must be at least 1"
            );
            assert!(
                auto.stagnation_factor > 0.0 && auto.stagnation_factor <= 1.0,
                "stagnation factor must be in (0, 1]"
            );
        }
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GmresConfig {
        &self.config
    }

    /// Solve `A·x = b` on a single rank, starting from `x = 0`, without a
    /// preconditioner.  Returns the solution and the solve statistics.
    pub fn solve_serial(&self, a: &Csr, b: &[f64]) -> (Vec<f64>, SolveResult) {
        self.solve_serial_preconditioned(a, b, &Identity)
    }

    /// Solve `A·x = b` on a single rank with a right preconditioner.
    pub fn solve_serial_preconditioned(
        &self,
        a: &Csr,
        b: &[f64],
        precond: &dyn Preconditioner,
    ) -> (Vec<f64>, SolveResult) {
        let comm = SerialComm::new();
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_global(comm, a, &part);
        let mut x = vec![0.0; a.nrows()];
        let result = self.solve(&dist, precond, b, &mut x);
        (x, result)
    }

    /// Solve `A·x = b` on the communicator `a` lives on.
    ///
    /// `b_local` and `x_local` are the local blocks of the right-hand side
    /// and the solution (used as the initial guess and overwritten).  This
    /// is the one-column case of [`SStepGmres::solve_block`], which keeps
    /// the single-RHS conventions at `k = 1` (β·e₁ least squares, the
    /// one-word norm reduce, the guard/rollback ladder); the committed
    /// goldens of `tests/solve_goldens.rs` pin its results bit for bit.
    pub fn solve(
        &self,
        a: &DistCsr,
        precond: &dyn Preconditioner,
        b_local: &[f64],
        x_local: &mut [f64],
    ) -> SolveResult {
        let nloc = a.local_matrix().nrows();
        assert_eq!(b_local.len(), nloc, "rhs length mismatch");
        assert_eq!(x_local.len(), nloc, "solution length mismatch");
        let b = Matrix::from_col_major(nloc, 1, b_local.to_vec());
        let mut x = Matrix::from_col_major(nloc, 1, x_local.to_vec());
        let mut r = self.solve_block(a, precond, &b, &mut x);
        x_local.copy_from_slice(x.col(0));
        SolveResult {
            converged: r.converged,
            iterations: r.iterations,
            restarts: r.restarts,
            final_relres: r.final_relres[0],
            breakdown: r.breakdown,
            spmv_count: r.spmv_count,
            precond_count: r.precond_count,
            comm_total: r.comm_total,
            comm_ortho: r.comm_ortho,
            relres_history: r.relres_history.swap_remove(0),
            shift_history: r.shift_history,
            last_harvest: r.last_harvest,
            ortho_fallbacks: r.ortho_fallbacks,
            step_history: r.step_history,
            health_history: r.health_history,
            rescues: r.rescues,
            cycle_timings: r.cycle_timings,
            fault_events: r.fault_events,
            faults_detected: r.faults_detected,
            faults_recovered: r.faults_recovered,
            faults_unrecovered: r.faults_unrecovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockJacobiGaussSeidel, Jacobi};
    use sparse::{laplace2d_5pt, laplace2d_9pt, laplace3d_7pt, RowSource};

    fn relres(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.spmv_alloc(x);
        let rn: f64 = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        rn / bn
    }

    fn rhs_for_ones(a: &Csr) -> Vec<f64> {
        // Right-hand side such that the solution is the vector of all ones
        // (as the paper does).
        a.spmv_alloc(&vec![1.0; a.nrows()])
    }

    #[test]
    fn standard_gmres_solves_laplace() {
        let a = laplace2d_5pt(20, 20);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 40,
            tol: 1e-8,
            ..standard_gmres_config()
        });
        let (x, result) = solver.solve_serial(&a, &b);
        assert!(result.converged, "{result:?}");
        assert!(relres(&a, &x, &b) < 1e-7);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sstep_gmres_matches_standard_iteration_count_roughly() {
        let a = laplace2d_5pt(24, 24);
        let b = rhs_for_ones(&a);
        let std_result = SStepGmres::new(GmresConfig {
            restart: 30,
            tol: 1e-6,
            ..standard_gmres_config()
        })
        .solve_serial(&a, &b)
        .1;
        let sstep_result = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-6,
            ortho: OrthoKind::BcgsPip2,
            ..GmresConfig::default()
        })
        .solve_serial(&a, &b)
        .1;
        assert!(std_result.converged && sstep_result.converged);
        // s-step rounds iteration counts up to the panel granularity, so it
        // may do up to s-1 extra iterations per cycle; it must not need
        // substantially more work than standard GMRES.
        let ratio = sstep_result.iterations as f64 / std_result.iterations as f64;
        assert!(
            ratio < 1.25,
            "s-step used {} iterations vs standard {}",
            sstep_result.iterations,
            std_result.iterations
        );
    }

    #[test]
    fn all_ortho_schemes_converge_to_the_same_solution() {
        let a = laplace2d_9pt(16, 16);
        let b = rhs_for_ones(&a);
        for ortho in [
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::BcgsPip2,
            OrthoKind::TwoStage { big_panel: 30 },
            OrthoKind::TwoStage { big_panel: 10 },
        ] {
            let solver = SStepGmres::new(GmresConfig {
                restart: 30,
                step_size: 5,
                tol: 1e-8,
                ortho,
                ..GmresConfig::default()
            });
            let (x, result) = solver.solve_serial(&a, &b);
            assert!(result.converged, "{ortho:?}: {result:?}");
            assert!(
                relres(&a, &x, &b) < 1e-7,
                "{ortho:?}: relres {}",
                relres(&a, &x, &b)
            );
        }
    }

    #[test]
    fn two_stage_reduces_ortho_synchronizations() {
        let a = laplace2d_5pt(20, 20);
        let b = rhs_for_ones(&a);
        let run = |ortho| {
            SStepGmres::new(GmresConfig {
                restart: 20,
                step_size: 5,
                tol: 1e-6,
                ortho,
                ..GmresConfig::default()
            })
            .solve_serial(&a, &b)
            .1
        };
        let pip2 = run(OrthoKind::BcgsPip2);
        let two_stage = run(OrthoKind::TwoStage { big_panel: 20 });
        let bcgs2 = run(OrthoKind::Bcgs2CholQr2);
        assert!(pip2.converged && two_stage.converged && bcgs2.converged);
        // Reduce counts per iteration must be ordered:
        // two-stage < BCGS-PIP2 < BCGS2-CholQR2.
        let per_iter = |r: &SolveResult| r.comm_ortho.allreduces as f64 / r.iterations as f64;
        assert!(
            per_iter(&two_stage) < per_iter(&pip2),
            "two-stage {} vs pip2 {}",
            per_iter(&two_stage),
            per_iter(&pip2)
        );
        assert!(
            per_iter(&pip2) < per_iter(&bcgs2),
            "pip2 {} vs bcgs2 {}",
            per_iter(&pip2),
            per_iter(&bcgs2)
        );
    }

    #[test]
    fn preconditioning_reduces_iteration_count() {
        let a = laplace2d_5pt(24, 24);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-8,
            ..GmresConfig::default()
        });
        let plain = solver.solve_serial(&a, &b).1;
        let gs = BlockJacobiGaussSeidel::new(&a, 2);
        let (xp, precond_result) = solver.solve_serial_preconditioned(&a, &b, &gs);
        assert!(plain.converged && precond_result.converged);
        assert!(
            precond_result.iterations < plain.iterations,
            "preconditioned {} vs plain {}",
            precond_result.iterations,
            plain.iterations
        );
        assert!(relres(&a, &xp, &b) < 1e-7);
    }

    #[test]
    fn jacobi_preconditioner_also_works_on_3d_problem() {
        let a = laplace3d_7pt(8, 8, 8);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-7,
            ortho: OrthoKind::TwoStage { big_panel: 30 },
            ..GmresConfig::default()
        });
        let jac = Jacobi::new(&a);
        let (x, result) = solver.solve_serial_preconditioned(&a, &b, &jac);
        assert!(result.converged, "{result:?}");
        assert!(relres(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn streamed_row_provider_solve_matches_replicated_solve_bitwise() {
        // The solver fed by a row provider (no global matrix anywhere) must
        // reproduce the replicated-construction solve exactly: identical
        // local operator => identical arithmetic => identical solution.
        let rows = sparse::Laplace2d9ptRows { nx: 14, ny: 14 };
        let a = laplace2d_9pt(14, 14);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 30 },
            ..GmresConfig::default()
        });
        let (x_rep, r_rep) = solver.solve_serial(&a, &b);
        let part = block_row_partition(rows.nrows(), 1);
        let dist = DistCsr::from_row_source(SerialComm::new(), &part, &rows);
        let mut x_str = vec![0.0; rows.nrows()];
        let r_str = solver.solve(&dist, &Identity, &b, &mut x_str);
        assert!(r_rep.converged && r_str.converged);
        assert_eq!(r_rep.iterations, r_str.iterations);
        assert_eq!(x_rep, x_str, "solutions must be bitwise identical");
        assert_eq!(r_rep.comm_total, r_str.comm_total);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = laplace2d_5pt(10, 10);
        let b = vec![0.0; 100];
        let (x, result) = SStepGmres::new(GmresConfig::default()).solve_serial(&a, &b);
        assert!(result.converged);
        assert_eq!(result.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = laplace2d_5pt(30, 30);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-14,
            max_iters: 40,
            ..GmresConfig::default()
        });
        let (_, result) = solver.solve_serial(&a, &b);
        assert!(!result.converged);
        assert!(result.iterations <= 40 + 5);
    }

    #[test]
    fn nonsymmetric_matrix_converges() {
        // Row/column scaled Laplacian (non-symmetric, as in the paper's
        // SuiteSparse experiments).
        let a0 = laplace2d_5pt(18, 18);
        let (a, _, _) = sparse::scale_rows_cols_by_max(&a0);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 40,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 40 },
            ..GmresConfig::default()
        });
        let (x, result) = solver.solve_serial(&a, &b);
        assert!(result.converged, "{result:?}");
        assert!(relres(&a, &x, &b) < 1e-7);
    }

    #[test]
    #[should_panic(expected = "step size cannot exceed")]
    fn invalid_config_is_rejected() {
        SStepGmres::new(GmresConfig {
            restart: 4,
            step_size: 8,
            ..GmresConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "auto step floor cannot exceed")]
    fn auto_floor_above_step_size_is_rejected() {
        SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 4,
            step_policy: crate::control::StepPolicy::Auto(crate::control::AutoStep {
                min_step: 6,
                ..crate::control::AutoStep::default()
            }),
            ..GmresConfig::default()
        });
    }

    #[test]
    fn every_cycle_gets_a_time_breakdown() {
        let a = laplace2d_5pt(20, 20);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 30 },
            ..GmresConfig::default()
        });
        let (_, r) = solver.solve_serial(&a, &b);
        assert!(r.converged);
        assert_eq!(r.cycle_timings.len(), r.step_history.len());
        for (c, t) in r.cycle_timings.iter().enumerate() {
            assert_eq!(t.cycle, c);
            assert_eq!(t.step, r.step_history[c]);
            assert!(t.total_ns > 0);
            // The lap pattern partitions the cycle body: the phase buckets
            // must account for the whole cycle (finish() charges the tail,
            // so the sum matches the total exactly).
            assert_eq!(t.segments_ns(), t.total_ns);
            assert!(t.mpk_ns > 0, "cycle {c} recorded no MPK time");
            assert!(t.ortho_ns > 0, "cycle {c} recorded no ortho time");
            assert!(t.sync_ns <= t.total_ns);
            assert_eq!(t.compute_ns(), t.total_ns - t.sync_ns);
        }
    }

    #[test]
    fn every_cycle_gets_a_health_report_and_a_step_entry() {
        let a = laplace2d_5pt(16, 16);
        let b = rhs_for_ones(&a);
        let solver = SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 20 },
            ..GmresConfig::default()
        });
        let (_, r) = solver.solve_serial(&a, &b);
        assert!(r.converged);
        assert_eq!(r.step_history.len(), r.health_history.len());
        assert_eq!(r.step_history.len(), r.shift_history.len());
        assert!(r.step_history.iter().all(|&s| s == 5), "Fixed never moves");
        assert_eq!(r.rescues, 0);
        for (c, h) in r.health_history.iter().enumerate() {
            assert_eq!(h.cycle, c);
            assert_eq!(h.step, 5);
            assert!(h.kappa_est.is_finite() && h.kappa_est >= 1.0);
            assert_eq!(h.fallbacks, 0);
            assert!(h.breakdown.is_none());
            assert_eq!(h.verdict, crate::control::CycleVerdict::Clean);
        }
    }
}
