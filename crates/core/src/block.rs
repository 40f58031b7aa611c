//! Block (multi-RHS) restarted s-step GMRES: one matrix-powers pass, one
//! orthogonalization, and one all-reduce serve `k` right-hand sides at
//! once.
//!
//! The paper's premise is that synchronization dominates s-step GMRES at
//! scale, so every reduce must do more work.  [`SStepGmres::solve_block`]
//! pushes that one axis further: the Krylov basis is built for a **block**
//! `B` of `k` columns (the structure of `bgmres`/`bfgmres` in phist),
//! interleaved so block step `t` occupies basis columns
//! `t·k .. (t+1)·k`.  Each MPK panel then carries `k·s` columns through
//! the *unchanged* [`blockortho`] schemes and fused
//! `proj_and_gram`/`update_and_gram` kernels — the per-cycle reduce
//! **count** is independent of `k` (panel cadence is preserved by
//! [`OrthoKind::for_block_width`](blockortho::OrthoKind::for_block_width))
//! while each reduce carries the k-scaled payload.  Reduces are paid per
//! *batch*, not per RHS.
//!
//! **Single-RHS solves.**  This is the only restarted s-step cycle in the
//! crate: [`SStepGmres::solve`] wraps its vectors as `nloc × 1` blocks and
//! calls [`SStepGmres::solve_block`], the way phist's `bgmres` treats the
//! number of right-hand sides as just `size(B, 2)`.  At one active column
//! the cycle keeps the single-RHS conventions — the β·e₁ least-squares
//! right-hand side, the one-word norm reduce of `global_norm`, and the
//! full guard/rollback ladder.  The committed goldens of
//! `tests/solve_goldens.rs` pin a single-RHS solve's solution bits,
//! `relres_history`, `step_history` and full [`CommStatsSnapshot`].  Its
//! [`CycleHealth::kappa_per_col`] holds the one column's estimate (bitwise
//! `kappa_est`).
//!
//! **Deflation.**  Convergence is tracked per column ("On the backward
//! stability of s-step GMRES", arXiv 2409.03079, motivates the per-column
//! residual bookkeeping).  A column whose true residual meets its target
//! leaves the active block at the restart boundary; subsequent cycles run
//! with the narrower block (smaller panels, smaller reduces), and each
//! restart cycle is a pure function of the surviving columns' residuals —
//! so deflating a column leaves the survivors' iterates bitwise unchanged
//! versus a solve that never carried the deflated column from that cycle
//! on (pinned by `tests/deflation_properties.rs`).
//!
//! Scope notes for wide blocks (`k > 1`): adaptive Ritz harvesting
//! operates only once the active block has narrowed to one column (the
//! band Hessenberg of a wide block is not in the Hessenberg form the
//! double-shift QR eigensolver consumes); `Newton`/`Scheduled` shifts
//! apply per block step for every width.  Detection guards screen Gram
//! reduces and checksum halos for any width; the agreement probe stages
//! the largest active residual norm.

use crate::basis::{BasisStrategy, KrylovBasis};
use crate::control::{self, CycleHealth, StepController, StepPolicy};
use crate::hessenberg::HessenbergRecovery;
use crate::precond::{Identity, Preconditioner};
use crate::shifts;
use crate::solver::SStepGmres;
use crate::timing::{CycleClock, CycleTiming, Phase};
use blockortho::{make_orthogonalizer_with_sketch, FallbackEvent};
use dense::Matrix;
use distsim::{
    fault, CommStatsSnapshot, Communicator, DistCsr, DistMultiVector, GuardContext, GuardCounts,
    GuardEvent, SerialComm,
};
use sparse::{block_row_partition, Csr};
use std::sync::Arc;

/// Per-solve options of the block path that have no [`crate::GmresConfig`]
/// equivalent.
#[derive(Debug, Clone, Default)]
pub struct BlockOptions {
    /// Absolute per-column convergence targets on `‖b_j − A·x_j‖₂`.
    ///
    /// `None` (the default) uses the relative criterion per column:
    /// `tol · ‖r₀_j‖`.  Explicit targets make a
    /// continued solve comparable to a warm-started one — the deflation
    /// property tests use them to align thresholds across runs.
    pub abs_targets: Option<Vec<f64>>,
}

/// Outcome of a block solve: the scalar [`crate::SolveResult`] observables,
/// with the per-column quantities widened to one entry per right-hand side.
#[derive(Debug, Clone)]
pub struct BlockSolveResult {
    /// Whether **every** column's residual dropped below its target.
    pub converged: bool,
    /// Per-column convergence flags.
    pub col_converged: Vec<bool>,
    /// Total Krylov basis columns generated (the block analogue of the
    /// paper's "# iters": `k_active · s` per MPK panel).
    pub iterations: usize,
    /// Number of restart cycles performed.
    pub restarts: usize,
    /// Final true relative residual `‖b_j − A·x_j‖ / ‖r₀_j‖` per column
    /// (`0.0` for an identically zero right-hand side).
    pub final_relres: Vec<f64>,
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
    /// True relative residual per column after each restart cycle the
    /// column was **active** in (a deflated column's history simply stops
    /// growing).  For a one-column solve, `relres_history[0]` is
    /// [`crate::SolveResult::relres_history`].
    pub relres_history: Vec<Vec<f64>>,
    /// Number of completed restart cycles after which each column left the
    /// active block (`Some(0)` = converged before the first cycle; `None` =
    /// still active when the solve ended).
    pub deflated_at: Vec<Option<usize>>,
    /// Original column indices in the order they deflated.  Within one
    /// cycle, columns deflate in ascending column order — the order is
    /// deterministic and bitwise-reproducible across thread and rank
    /// counts because the residual norms it is derived from are.
    pub deflation_order: Vec<usize>,
    /// Newton shifts in effect for each started cycle (empty = monomial).
    pub shift_history: Vec<Vec<f64>>,
    /// The most recent successful Ritz-shift harvest (harvesting runs once
    /// the active block is one column wide; see the module docs).
    pub last_harvest: Option<Vec<f64>>,
    /// Distinct shifted-CholQR fallback episodes across all cycles.
    pub ortho_fallbacks: usize,
    /// Effective step size of each started cycle.
    pub step_history: Vec<usize>,
    /// Per-cycle health reports; `kappa_per_col` holds the per-column
    /// condition estimates and `kappa_est` aggregates them over the
    /// columns that survived the cycle's deflation check.
    pub health_history: Vec<CycleHealth>,
    /// Number of step-shrink rescues [`StepPolicy::Auto`] took.
    pub rescues: usize,
    /// Per-cycle wall-time breakdown (one entry per started cycle).
    pub cycle_timings: Vec<CycleTiming>,
    /// Every fault the detection guards caught, in detection order.
    pub fault_events: Vec<GuardEvent>,
    /// Faults detected by the guards across the whole solve.
    pub faults_detected: usize,
    /// Of those, faults recovered in place or by cycle rollback.
    pub faults_recovered: usize,
    /// Faults that defeated every rung of the recovery ladder.
    pub faults_unrecovered: usize,
}

impl SStepGmres {
    /// Solve `A·X = B` for a block of right-hand sides on the communicator
    /// `a` lives on.
    ///
    /// `b_local` and `x_local` are the local row blocks of `B` and `X`
    /// (`nloc × k`; `x_local` is the initial guess and is overwritten).
    /// One MPK pass, one orthogonalization panel, and one all-reduce serve
    /// all `k` columns; converged columns deflate out at restart
    /// boundaries.  [`SStepGmres::solve`] is the `k = 1` case.
    pub fn solve_block(
        &self,
        a: &DistCsr,
        precond: &dyn Preconditioner,
        b_local: &Matrix,
        x_local: &mut Matrix,
    ) -> BlockSolveResult {
        self.solve_block_with(a, precond, b_local, x_local, &BlockOptions::default())
    }

    /// [`solve_block`](Self::solve_block) with explicit [`BlockOptions`].
    pub fn solve_block_with(
        &self,
        a: &DistCsr,
        precond: &dyn Preconditioner,
        b_local: &Matrix,
        x_local: &mut Matrix,
        opts: &BlockOptions,
    ) -> BlockSolveResult {
        let config = self.config();
        let mb = config.restart;
        let s_req = config.step_size;
        let nloc = a.local_matrix().nrows();
        let kb = b_local.ncols();
        assert!(kb >= 1, "block solve needs at least one right-hand side");
        assert_eq!(b_local.nrows(), nloc, "rhs row count mismatch");
        assert_eq!(x_local.nrows(), nloc, "solution row count mismatch");
        assert_eq!(x_local.ncols(), kb, "solution column count mismatch");
        if let Some(t) = &opts.abs_targets {
            assert_eq!(t.len(), kb, "one absolute target per column");
        }
        let comm = a.comm().clone();
        let stats_start = comm.stats().snapshot();
        let mut comm_ortho = CommStatsSnapshot::default();
        let guard: Option<Arc<GuardContext>> = if config.guards.any_enabled() {
            Some(GuardContext::new(config.guards))
        } else {
            None
        };

        let mut iterations = 0usize;
        let mut restarts = 0usize;
        let mut spmv_count = 0usize;
        let mut precond_count = 0usize;
        let mut breakdown: Option<String> = None;
        let mut current_basis = config.basis.initial_basis();
        let mut cycles_started = 0usize;
        let mut shift_history: Vec<Vec<f64>> = Vec::new();
        let mut relres_history: Vec<Vec<f64>> = vec![Vec::new(); kb];
        // Aggregate (max over active columns) relative residual per cycle:
        // the block-level signal stagnation detection runs on.  At k = 1
        // it is exactly the column's own relres history.
        let mut agg_relres_history: Vec<f64> = Vec::new();
        let mut last_harvest: Option<Vec<f64>> = None;
        let mut ortho_fallbacks = 0usize;
        let mut controller = StepController::new(config.step_policy.clone(), s_req, mb);
        let mut step_history: Vec<usize> = Vec::new();
        let mut health_history: Vec<CycleHealth> = Vec::new();
        let mut cycle_timings: Vec<CycleTiming> = Vec::new();

        // Per-column bookkeeping, indexed by *original* column.
        let mut deflated_at: Vec<Option<usize>> = vec![None; kb];
        let mut deflation_order: Vec<usize> = Vec::new();
        let mut col_converged = vec![false; kb];
        // Columns still in the active block, in ascending original order.
        let mut active: Vec<usize> = (0..kb).collect();

        // Initial residual block and per-column norms (one k-word reduce;
        // a single column pays the one-word norm reduce).
        fault::set_phase("residual");
        let mut residuals: Vec<Vec<f64>> = vec![vec![0.0; nloc]; kb];
        for (j, r) in residuals.iter_mut().enumerate() {
            compute_residual(
                a,
                x_local.col(j),
                b_local.col(j),
                r,
                &mut spmv_count,
                guard.as_deref(),
            );
        }
        let r0_norms = block_norms(&residuals, &active, comm.as_ref(), guard.as_deref());
        let mut gammas: Vec<f64> = r0_norms.clone();
        if r0_norms.iter().all(|&v| v == 0.0) {
            fault::set_phase("");
            return BlockSolveResult {
                converged: true,
                col_converged: vec![true; kb],
                iterations: 0,
                restarts: 0,
                final_relres: vec![0.0; kb],
                breakdown: None,
                spmv_count,
                precond_count,
                comm_total: comm.stats().snapshot().since(&stats_start),
                comm_ortho,
                relres_history,
                deflated_at,
                deflation_order,
                shift_history: Vec::new(),
                last_harvest: None,
                ortho_fallbacks: 0,
                step_history: Vec::new(),
                health_history: Vec::new(),
                rescues: 0,
                cycle_timings: Vec::new(),
                fault_events: Vec::new(),
                faults_detected: 0,
                faults_recovered: 0,
                faults_unrecovered: 0,
            };
        }
        let targets: Vec<f64> = match &opts.abs_targets {
            Some(t) => t.clone(),
            None => r0_norms.iter().map(|&r0| config.tol * r0).collect(),
        };
        if let Some(ctx) = &guard {
            ctx.stage_agreement(aggregate_norm(&gammas, &active));
        }
        let mut consecutive_breakdowns = 0usize;
        let mut no_progress_cycles = 0usize;

        // Reusable buffers, sized for the current active width (reallocated
        // only when deflation narrows the block).
        let mut ka = active.len();
        let mut basis = DistMultiVector::zeros(
            comm.clone(),
            a.global_rows(),
            nloc,
            a.row_offset(),
            ka * (mb + 1),
        );
        basis.set_guard(guard.clone());
        let mut r_factor = Matrix::zeros(ka * (mb + 1), ka * (mb + 1));
        let mut z = vec![0.0; nloc]; // preconditioned vector
        let mut w = vec![0.0; nloc]; // A·z

        'outer: while restarts < config.max_restarts && iterations < config.max_iters {
            // Columns already at target leave the block before the cycle
            // starts.
            deflate_converged(
                &mut active,
                &gammas,
                &targets,
                restarts,
                &mut deflated_at,
                &mut deflation_order,
                &mut col_converged,
            );
            if active.is_empty() {
                break;
            }
            if active.len() != ka {
                ka = active.len();
                basis = DistMultiVector::zeros(
                    comm.clone(),
                    a.global_rows(),
                    nloc,
                    a.row_offset(),
                    ka * (mb + 1),
                );
                basis.set_guard(guard.clone());
                r_factor = Matrix::zeros(ka * (mb + 1), ka * (mb + 1));
            }
            let total = ka * (mb + 1);
            if let BasisStrategy::Scheduled { per_cycle } = &config.basis {
                current_basis = BasisStrategy::scheduled_basis(per_cycle, cycles_started);
            }
            let s = controller.step_for_cycle(cycles_started);
            shift_history.push(match &current_basis {
                KrylovBasis::Monomial => Vec::new(),
                KrylovBasis::Newton { shifts } => shifts.clone(),
            });
            step_history.push(s);
            cycles_started += 1;
            let fault_base = guard.as_ref().map(|c| c.counts()).unwrap_or_default();
            let mut clock = CycleClock::start(cycles_started - 1, s);
            let _cycle_span = trace::span2(
                "solver",
                "cycle",
                "cycle",
                (cycles_started - 1) as u64,
                "step",
                s as u64,
            );
            // Start a new cycle: columns 0..ka = the scaled residual block.
            for entry in r_factor.data_mut().iter_mut() {
                *entry = 0.0;
            }
            for (p, &j) in active.iter().enumerate() {
                basis.local_mut().col_mut(p).copy_from_slice(&residuals[j]);
                basis.scale_col(p, 1.0 / gammas[j]);
            }
            let mut ortho = make_orthogonalizer_with_sketch(
                config.ortho.for_block_width(ka),
                total,
                config.sketch,
            );
            let mut hess = HessenbergRecovery::with_block_width(total, ka);
            // Submit the residual block as the first panel so every scheme
            // sees its panels starting at column 0.
            let before = comm.stats().snapshot();
            clock.lap(Phase::Other);
            fault::set_phase("ortho");
            let first = {
                let _sp = trace::span2("solver", "ortho", "start", 0, "cols", ka as u64);
                ortho.orthogonalize_panel(&mut basis, 0..ka, &mut r_factor)
            };
            comm_ortho = comm_ortho.merge(&comm.stats().snapshot().since(&before));
            clock.lap(Phase::Ortho);
            let mut cycle_breakdown: Option<String> = None;
            if let Err(e) = first {
                let what = if ka == 1 { "column" } else { "block" };
                let msg = format!("initial {what}: {e}");
                breakdown = Some(msg.clone());
                let faults = cycle_fault_delta(&guard, &fault_base);
                if let Some(ctx) = &guard {
                    ctx.resolve_poisoned(faults.poisoned, false);
                }
                health_history.push(build_health(
                    &config.step_policy,
                    cycles_started - 1,
                    s,
                    0,
                    f64::INFINITY,
                    vec![f64::INFINITY; ka],
                    ortho.fallback_count(),
                    ortho.fallback_events().to_vec(),
                    Some(msg),
                    None,
                    &agg_relres_history,
                    &faults,
                ));
                cycle_timings.push(clock.finish());
                break 'outer;
            }
            let mut cols = ka; // basis columns filled and submitted
            let mut cycle_converged_est = false;

            while cols < total && iterations < config.max_iters {
                let sb = s.min((total - cols) / ka); // block steps this panel
                let width = sb * ka;
                // --- Matrix-powers kernel: ka·sb new columns. ---
                {
                    let _sp =
                        trace::span2("solver", "mpk", "start", cols as u64, "k", width as u64);
                    fault::set_phase("mpk");
                    for t in 0..sb {
                        for q in 0..ka {
                            let input = cols - ka + t * ka + q;
                            if t == 0 {
                                // The panel-start block had already been
                                // handed to the orthogonalizer.
                                hess.mark_submitted_input(input);
                            }
                            precond.apply(basis.local().col(input), &mut z);
                            precond_count += 1;
                            a.spmv_guarded(&z, &mut w, guard.as_deref());
                            spmv_count += 1;
                            // Shifts apply per block step, not per column.
                            let theta = current_basis.shift(input / ka);
                            if theta != 0.0 {
                                let u = basis.local().col(input).to_vec();
                                for (wi, ui) in w.iter_mut().zip(&u) {
                                    *wi -= theta * ui;
                                }
                            }
                            basis.local_mut().col_mut(input + ka).copy_from_slice(&w);
                        }
                    }
                }
                iterations += width;
                clock.lap(Phase::Mpk);
                // --- Block orthogonalization of the new panel. ---
                let before = comm.stats().snapshot();
                fault::set_phase("ortho");
                let status = {
                    let _sp = trace::span2(
                        "solver",
                        "ortho",
                        "start",
                        cols as u64,
                        "cols",
                        width as u64,
                    );
                    ortho.orthogonalize_panel(&mut basis, cols..cols + width, &mut r_factor)
                };
                comm_ortho = comm_ortho.merge(&comm.stats().snapshot().since(&before));
                clock.lap(Phase::Ortho);
                match status {
                    Ok(()) => {
                        consecutive_breakdowns = 0;
                    }
                    Err(e) => {
                        let msg = format!("panel {}..{}: {e}", cols, cols + width);
                        breakdown = Some(msg.clone());
                        cycle_breakdown = Some(msg);
                        consecutive_breakdowns += 1;
                        break;
                    }
                }
                cols += width;
                // --- Convergence estimate on the finalized prefix. ---
                let finalized = ortho.finalized_cols().unwrap_or(cols).min(cols);
                if finalized >= 2 * ka {
                    let hess_span = trace::span1("solver", "hess", "cols", finalized as u64);
                    hess.recover_upto(
                        finalized - ka,
                        &r_factor,
                        ortho.stored_basis_coeffs(),
                        &current_basis,
                    );
                    let done = if ka == 1 {
                        // Single-RHS convention: β·e₁ right-hand side of
                        // the square Hessenberg least squares.
                        let (_, res_est) = hess.least_squares(finalized - 1, gammas[active[0]]);
                        res_est <= targets[active[0]]
                    } else {
                        let rhs = block_ls_rhs(&r_factor, &active, &gammas, finalized - ka, ka);
                        let (_, res_est) = hess.block_least_squares(finalized - ka, &rhs);
                        active
                            .iter()
                            .enumerate()
                            .all(|(p, &j)| res_est[p] <= targets[j])
                    };
                    drop(hess_span);
                    clock.lap(Phase::Hess);
                    if done {
                        cycle_converged_est = true;
                        break;
                    }
                } else {
                    clock.lap(Phase::Hess);
                }
            }

            // --- Complete delayed orthogonalization and the projected solve. ---
            let before = comm.stats().snapshot();
            fault::set_phase("ortho");
            let finish_status = {
                let _sp = trace::span("solver", "ortho_finish");
                ortho.finish(&mut basis, &mut r_factor)
            };
            if let Err(e) = finish_status {
                let msg = format!("finish: {e}");
                if breakdown.is_none() {
                    breakdown = Some(msg.clone());
                }
                if cycle_breakdown.is_none() {
                    cycle_breakdown = Some(msg);
                }
                consecutive_breakdowns += 1;
            }
            comm_ortho = comm_ortho.merge(&comm.stats().snapshot().since(&before));
            clock.lap(Phase::Ortho);
            let cycle_fallbacks = ortho.fallback_count();
            let cycle_events = ortho.fallback_events().to_vec();
            ortho_fallbacks += cycle_fallbacks;
            let finalized = ortho.finalized_cols().unwrap_or(cols).min(cols);
            let mut k_use = finalized.saturating_sub(ka);
            if let Some(ctx) = &guard {
                if ctx.take_alarm() {
                    let msg =
                        "cross-rank divergence: agreement probe on the replicated residual norm"
                            .to_string();
                    if breakdown.is_none() {
                        breakdown = Some(msg.clone());
                    }
                    if cycle_breakdown.is_none() {
                        cycle_breakdown = Some(msg);
                    }
                    fault::set_phase("residual");
                    let fresh = block_norms(&residuals, &active, comm.as_ref(), guard.as_deref());
                    for (p, &j) in active.iter().enumerate() {
                        gammas[j] = fresh[p];
                    }
                    ctx.stage_agreement(aggregate_norm(&gammas, &active));
                    k_use = 0;
                }
            }
            let blocks_done = (finalized / ka).min(s + 1);
            if k_use == 0 {
                no_progress_cycles += 1;
                let faults = cycle_fault_delta(&guard, &fault_base);
                let per_col = control::block_r_diag_condition(&r_factor, ka, blocks_done);
                let all_active = vec![true; ka];
                let health = build_health(
                    &config.step_policy,
                    cycles_started - 1,
                    s,
                    0,
                    control::active_kappa_max(&per_col, &all_active),
                    per_col,
                    cycle_fallbacks,
                    cycle_events,
                    cycle_breakdown.clone(),
                    None,
                    &agg_relres_history,
                    &faults,
                );
                let decision = controller.observe(&health);
                health_history.push(health);
                if decision.shrunk() {
                    trace::instant2(
                        "solver",
                        "step_shrink",
                        "cycle",
                        (cycles_started - 1) as u64,
                        "step",
                        s as u64,
                    );
                }
                cycle_timings.push(clock.finish());
                let giving_up =
                    !decision.shrunk() && (no_progress_cycles >= 2 || consecutive_breakdowns >= 3);
                if let Some(ctx) = &guard {
                    ctx.resolve_poisoned(faults.poisoned, !giving_up);
                }
                if giving_up {
                    break 'outer;
                }
                if matches!(config.basis, BasisStrategy::Adaptive(_)) {
                    current_basis = KrylovBasis::Monomial;
                }
                apply_rescue_basis(
                    &config.basis,
                    &controller,
                    &mut current_basis,
                    &last_harvest,
                );
                restarts += 1;
                continue;
            }
            no_progress_cycles = 0;
            let hess_span = trace::span1("solver", "hess", "cols", k_use as u64);
            hess.recover_upto(
                k_use,
                &r_factor,
                ortho.stored_basis_coeffs(),
                &current_basis,
            );
            // Ritz-shift harvesting consumes a square Hessenberg block, so
            // it runs once the active block is one column wide; wide blocks
            // skip it.
            let (cap, rtol, min_h) = match &config.basis {
                BasisStrategy::Adaptive(a) => (
                    if a.max_shifts == 0 {
                        s_req
                    } else {
                        a.max_shifts
                    },
                    a.dedup_rtol,
                    a.min_hessenberg,
                ),
                _ => (s_req, shifts::DEFAULT_DEDUP_RTOL, 2),
            };
            let harvest = if ka == 1 && k_use >= min_h.max(1) {
                shifts::harvest_newton_shifts(&hess, k_use, cap, rtol)
            } else {
                None
            };
            if let Some(h) = &harvest {
                last_harvest = Some(h.clone());
            }
            if matches!(config.basis, BasisStrategy::Adaptive(_)) {
                current_basis = match harvest {
                    Some(shifts) => KrylovBasis::Newton { shifts },
                    None => KrylovBasis::Monomial,
                };
            }
            let y = if ka == 1 {
                let (y, _) = hess.least_squares(k_use, gammas[active[0]]);
                Matrix::from_col_major(k_use, 1, y)
            } else {
                let rhs = block_ls_rhs(&r_factor, &active, &gammas, k_use, ka);
                let (y, _) = hess.block_least_squares(k_use, &rhs);
                y
            };
            drop(hess_span);
            clock.lap(Phase::Hess);
            // Solution update: x_j ← x_j + M⁻¹·(Q_{0..k_use}·y_j).
            if guard.is_none() || y.data().iter().all(|v| v.is_finite()) {
                fault::set_phase("update");
                let _sp = trace::span1("solver", "update", "cols", k_use as u64);
                let mut qy = vec![0.0; nloc];
                for (p, &j) in active.iter().enumerate() {
                    for v in qy.iter_mut() {
                        *v = 0.0;
                    }
                    dense::gemv_plus(&basis.local_cols(0..k_use), y.col(p), &mut qy);
                    precond.apply(&qy, &mut z);
                    precond_count += 1;
                    for (xi, zi) in x_local.col_mut(j).iter_mut().zip(&z) {
                        *xi += zi;
                    }
                }
            } else {
                let msg =
                    "projected solution non-finite (poisoned cycle); update skipped".to_string();
                if breakdown.is_none() {
                    breakdown = Some(msg.clone());
                }
                if cycle_breakdown.is_none() {
                    cycle_breakdown = Some(msg);
                }
                consecutive_breakdowns += 1;
            }
            restarts += 1;
            clock.lap(Phase::Update);
            // True residuals for the next cycle / convergence verification.
            {
                let _sp = trace::span("solver", "residual");
                fault::set_phase("residual");
                for &j in &active {
                    compute_residual(
                        a,
                        x_local.col(j),
                        b_local.col(j),
                        &mut residuals[j],
                        &mut spmv_count,
                        guard.as_deref(),
                    );
                }
                let fresh = block_norms(&residuals, &active, comm.as_ref(), guard.as_deref());
                for (p, &j) in active.iter().enumerate() {
                    gammas[j] = fresh[p];
                }
                if let Some(ctx) = &guard {
                    ctx.stage_agreement(aggregate_norm(&gammas, &active));
                }
            }
            for &j in &active {
                relres_history[j].push(gammas[j] / r0_norms[j]);
            }
            let agg = aggregate_relres(&gammas, &r0_norms, &active);
            agg_relres_history.push(agg);
            clock.lap(Phase::Residual);
            // Cycle health.  The deflation check runs *first*: a column
            // that just met its target is excluded from the κ aggregate
            // (when survivors remain), so the Auto policy never rescues on
            // a deflated column's stale conditioning.
            let survivors: Vec<bool> = active.iter().map(|&j| gammas[j] > targets[j]).collect();
            let faults = cycle_fault_delta(&guard, &fault_base);
            let per_col = control::block_r_diag_condition(&r_factor, ka, blocks_done);
            let health = build_health(
                &config.step_policy,
                cycles_started - 1,
                s,
                k_use,
                control::active_kappa_max(&per_col, &survivors),
                per_col,
                cycle_fallbacks,
                cycle_events,
                cycle_breakdown.clone(),
                Some(agg),
                &agg_relres_history,
                &faults,
            );
            let decision = controller.observe(&health);
            health_history.push(health);
            if let Some(ctx) = &guard {
                let all_finite = active.iter().all(|&j| gammas[j].is_finite());
                ctx.resolve_poisoned(faults.poisoned, all_finite);
            }
            if decision.shrunk() {
                trace::instant2(
                    "solver",
                    "step_shrink",
                    "cycle",
                    (cycles_started - 1) as u64,
                    "step",
                    s as u64,
                );
            }
            cycle_timings.push(clock.finish());
            // Deflate at the restart boundary.
            let width_before = active.len();
            deflate_converged(
                &mut active,
                &gammas,
                &targets,
                restarts,
                &mut deflated_at,
                &mut deflation_order,
                &mut col_converged,
            );
            if active.is_empty() {
                break;
            }
            if consecutive_breakdowns >= 3 {
                break;
            }
            apply_rescue_basis(
                &config.basis,
                &controller,
                &mut current_basis,
                &last_harvest,
            );
            let _ = cycle_converged_est; // estimate is re-verified by the true residuals above
            if active.len() != width_before {
                ka = active.len();
                basis = DistMultiVector::zeros(
                    comm.clone(),
                    a.global_rows(),
                    nloc,
                    a.row_offset(),
                    ka * (mb + 1),
                );
                basis.set_guard(guard.clone());
                r_factor = Matrix::zeros(ka * (mb + 1), ka * (mb + 1));
            }
        }
        // Trailing convergence sweep.
        deflate_converged(
            &mut active,
            &gammas,
            &targets,
            restarts,
            &mut deflated_at,
            &mut deflation_order,
            &mut col_converged,
        );
        let converged = active.is_empty();
        fault::set_phase("");
        let (fault_events, faults_detected, faults_recovered, faults_unrecovered) = match &guard {
            Some(ctx) => {
                let pending = ctx.counts().poisoned;
                if pending > 0 {
                    ctx.resolve_poisoned(pending, converged);
                }
                let c = ctx.counts();
                (ctx.events(), c.detected, c.recovered, c.unrecovered)
            }
            None => (Vec::new(), 0, 0, 0),
        };

        let final_relres = (0..kb)
            .map(|j| {
                if r0_norms[j] == 0.0 {
                    0.0
                } else {
                    gammas[j] / r0_norms[j]
                }
            })
            .collect();
        BlockSolveResult {
            converged,
            col_converged,
            iterations,
            restarts,
            final_relres,
            breakdown,
            spmv_count,
            precond_count,
            comm_total: comm.stats().snapshot().since(&stats_start),
            comm_ortho,
            relres_history,
            deflated_at,
            deflation_order,
            shift_history,
            last_harvest,
            ortho_fallbacks,
            step_history,
            health_history,
            rescues: controller.shrinks(),
            cycle_timings,
            fault_events,
            faults_detected,
            faults_recovered,
            faults_unrecovered,
        }
    }

    /// Solve `A·X = B` on a single rank from `X = 0`, without a
    /// preconditioner.  `b_cols` holds one right-hand side per entry;
    /// returns the solution block (`n × k`) and the solve statistics.
    pub fn solve_block_serial(&self, a: &Csr, b_cols: &[Vec<f64>]) -> (Matrix, BlockSolveResult) {
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_global(SerialComm::new(), a, &part);
        let b = cols_to_matrix(a.nrows(), b_cols);
        let mut x = Matrix::zeros(a.nrows(), b_cols.len());
        let result = self.solve_block(&dist, &Identity, &b, &mut x);
        (x, result)
    }
}

/// Pack per-column right-hand sides into the `nloc × k` local block.
fn cols_to_matrix(nloc: usize, cols: &[Vec<f64>]) -> Matrix {
    assert!(!cols.is_empty(), "block solve needs at least one column");
    let mut b = Matrix::zeros(nloc, cols.len());
    for (j, c) in cols.iter().enumerate() {
        assert_eq!(c.len(), nloc, "rhs length mismatch in column {j}");
        b.col_mut(j).copy_from_slice(c);
    }
    b
}

/// Global 2-norms of the active residual columns in **one** all-reduce of
/// `active.len()` words.  At one active column this delegates to the
/// single-vector [`global_norm`] — including its guarded-reduce path — so a
/// single-RHS solve pays exactly one one-word norm reduce per residual.
fn block_norms(
    residuals: &[Vec<f64>],
    active: &[usize],
    comm: &dyn Communicator,
    guard: Option<&GuardContext>,
) -> Vec<f64> {
    if active.len() == 1 {
        return vec![global_norm(&residuals[active[0]], comm, guard)];
    }
    let mut buf: Vec<f64> = active
        .iter()
        .map(|&j| dense::dot(&residuals[j], &residuals[j]))
        .collect();
    comm.allreduce_sum(&mut buf);
    buf.iter().map(|v| v.max(0.0).sqrt()).collect()
}

/// The replicated scalar staged for the cross-rank agreement probe: the
/// max active residual norm (the norm itself at one active column).
fn aggregate_norm(gammas: &[f64], active: &[usize]) -> f64 {
    active
        .iter()
        .map(|&j| gammas[j])
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Block-level relative residual of a cycle: the max over active columns
/// (`gamma / r0` itself at one active column), `NaN` if any column's is.
fn aggregate_relres(gammas: &[f64], r0_norms: &[f64], active: &[usize]) -> f64 {
    let mut agg = f64::NEG_INFINITY;
    for &j in active {
        let v = gammas[j] / r0_norms[j];
        if v.is_nan() {
            return f64::NAN;
        }
        agg = agg.max(v);
    }
    agg
}

/// Right-hand sides of the projected block least-squares problem:
/// column `p` is `γ_p · S[:, p]` zero-padded to `k_inputs + ka` rows, with
/// `S` the leading `ka × ka` block of the R factor (the residual block's
/// coordinates in the orthonormal basis).
fn block_ls_rhs(
    r_factor: &Matrix,
    active: &[usize],
    gammas: &[f64],
    k_inputs: usize,
    ka: usize,
) -> Matrix {
    let mut rhs = Matrix::zeros(k_inputs + ka, ka);
    for (p, &j) in active.iter().enumerate() {
        let g = gammas[j];
        for i in 0..ka {
            rhs[(i, p)] = g * r_factor[(i, p)];
        }
    }
    rhs
}

/// Remove converged columns from the active block, in ascending original
/// order, recording when and in what order they left.
fn deflate_converged(
    active: &mut Vec<usize>,
    gammas: &[f64],
    targets: &[f64],
    completed_cycles: usize,
    deflated_at: &mut [Option<usize>],
    deflation_order: &mut Vec<usize>,
    col_converged: &mut [bool],
) {
    active.retain(|&j| {
        if gammas[j] <= targets[j] {
            deflated_at[j] = Some(completed_cycles);
            deflation_order.push(j);
            col_converged[j] = true;
            false
        } else {
            true
        }
    });
}

/// Assemble a [`CycleHealth`] report from a finished cycle's raw signals.
/// Non-Auto policies assess with [`control::AutoStep::default`] thresholds
/// so `health_history` reads the same everywhere.
#[allow(clippy::too_many_arguments)]
fn build_health(
    policy: &StepPolicy,
    cycle: usize,
    step: usize,
    usable_cols: usize,
    kappa_est: f64,
    kappa_per_col: Vec<f64>,
    fallbacks: usize,
    fallback_events: Vec<FallbackEvent>,
    breakdown: Option<String>,
    relres: Option<f64>,
    relres_history: &[f64],
    faults: &GuardCounts,
) -> CycleHealth {
    let auto = match policy {
        StepPolicy::Auto(a) => a.clone(),
        _ => control::AutoStep::default(),
    };
    let stagnated = relres.is_some()
        && control::residual_stagnated(
            relres_history,
            auto.stagnation_window,
            auto.stagnation_factor,
        );
    // Poisoned operations have no final verdict at assessment time (the
    // rollback has not been retried yet), so the health report treats them
    // as unrecovered: the controller must react to the damage *this* cycle.
    let verdict = control::assess_cycle(
        &auto,
        breakdown.is_some(),
        usable_cols,
        kappa_est,
        fallbacks,
        stagnated,
        faults.poisoned + faults.unrecovered,
    );
    CycleHealth {
        cycle,
        step,
        usable_cols,
        kappa_est,
        fallbacks,
        fallback_events,
        breakdown,
        relres,
        stagnated,
        kappa_per_col,
        verdict,
        faults_detected: faults.detected,
        faults_recovered: faults.recovered,
        faults_unrecovered: faults.poisoned + faults.unrecovered,
    }
}

/// Fault-guard activity attributable to the current cycle: the guard's
/// cumulative counters minus the snapshot taken when the cycle began.
fn cycle_fault_delta(guard: &Option<Arc<GuardContext>>, base: &GuardCounts) -> GuardCounts {
    match guard {
        Some(ctx) => {
            let c = ctx.counts();
            GuardCounts {
                detected: c.detected - base.detected,
                recovered: c.recovered - base.recovered,
                poisoned: c.poisoned - base.poisoned,
                unrecovered: c.unrecovered - base.unrecovered,
                retries: c.retries - base.retries,
            }
        }
        None => GuardCounts::default(),
    }
}

/// Once an Auto rescue is active, keep the most recent harvested Newton
/// shifts in effect for strategies that would otherwise re-run the basis
/// that broke (the automated form of the README's warm-up shift oracle).
/// Adaptive re-harvests on its own and Scheduled must replay verbatim, so
/// both are left alone; non-Auto policies never activate a rescue.
fn apply_rescue_basis(
    strategy: &BasisStrategy,
    controller: &StepController,
    current_basis: &mut KrylovBasis,
    last_harvest: &Option<Vec<f64>>,
) {
    if !controller.rescue_active() {
        return;
    }
    match strategy {
        BasisStrategy::Monomial | BasisStrategy::Newton { .. } => {
            if let Some(shifts) = last_harvest {
                if !shifts.is_empty() {
                    *current_basis = KrylovBasis::Newton {
                        shifts: shifts.clone(),
                    };
                }
            }
        }
        BasisStrategy::Adaptive(_) | BasisStrategy::Scheduled { .. } => {}
    }
}

/// `r = b − A·x` on the local blocks.  With an active guard the halo
/// exchange inside the SpMV is checksummed; a corrupted or lost frame
/// poisons the residual with NaN so the norm guard downstream trips.
fn compute_residual(
    a: &DistCsr,
    x: &[f64],
    b: &[f64],
    r: &mut [f64],
    spmv_count: &mut usize,
    guard: Option<&GuardContext>,
) {
    a.spmv_guarded(x, r, guard);
    *spmv_count += 1;
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

/// Global 2-norm of a distributed vector (one single-word all-reduce, or
/// the guard's duplicated-word reduce when screening is on).
fn global_norm(local: &[f64], comm: &dyn Communicator, guard: Option<&GuardContext>) -> f64 {
    let local_sq = dense::dot(local, local);
    match guard {
        Some(ctx) if ctx.policy().gram_screen || ctx.policy().agreement => {
            ctx.norm_reduce(comm, local_sq)
        }
        _ => {
            let mut buf = [local_sq];
            comm.allreduce_sum(&mut buf);
            buf[0].max(0.0).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::GmresConfig;
    use blockortho::OrthoKind;
    use sparse::{laplace2d_5pt, laplace2d_9pt, RowSource};

    fn rhs_for(a: &Csr, seed: usize) -> Vec<f64> {
        (0..a.nrows())
            .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
            .collect()
    }

    fn block_relres(a: &Csr, x: &Matrix, b: &[Vec<f64>], j: usize) -> f64 {
        let ax = a.spmv_alloc(x.col(j));
        let rn: f64 = ax
            .iter()
            .zip(&b[j])
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b[j].iter().map(|v| v * v).sum::<f64>().sqrt();
        rn / bn
    }

    #[test]
    fn block_solve_converges_every_column_on_every_scheme() {
        let a = laplace2d_9pt(16, 16);
        let b: Vec<Vec<f64>> = (0..4).map(|j| rhs_for(&a, j)).collect();
        for ortho in [
            OrthoKind::BcgsPip2,
            OrthoKind::Bcgs2CholQr2,
            OrthoKind::TwoStage { big_panel: 30 },
            OrthoKind::TwoStageSketched { big_panel: 10 },
        ] {
            let solver = SStepGmres::new(GmresConfig {
                restart: 30,
                step_size: 5,
                tol: 1e-8,
                ortho,
                ..GmresConfig::default()
            });
            let (x, r) = solver.solve_block_serial(&a, &b);
            assert!(r.converged, "{ortho:?}: {:?}", r.breakdown);
            assert!(r.col_converged.iter().all(|&c| c), "{ortho:?}");
            for j in 0..4 {
                assert!(
                    block_relres(&a, &x, &b, j) < 1e-7,
                    "{ortho:?} column {j}: {}",
                    block_relres(&a, &x, &b, j)
                );
            }
        }
    }

    #[test]
    fn reduce_count_per_cycle_is_independent_of_block_width() {
        // The headline: reduces are paid per batch, not per RHS.  Force
        // full cycles (tiny tolerance, fixed restarts) so the per-cycle
        // schedule is identical, then compare counts at k = 1 and k = 4.
        let a = laplace2d_5pt(20, 20);
        let run = |k: usize| {
            let b: Vec<Vec<f64>> = (0..k).map(|j| rhs_for(&a, j)).collect();
            let solver = SStepGmres::new(GmresConfig {
                restart: 20,
                step_size: 5,
                tol: 1e-30,
                max_restarts: 4,
                ortho: OrthoKind::TwoStage { big_panel: 20 },
                ..GmresConfig::default()
            });
            let (_, r) = solver.solve_block_serial(&a, &b);
            assert_eq!(r.restarts, 4);
            r
        };
        let r1 = run(1);
        let r4 = run(4);
        assert_eq!(
            r1.comm_total.allreduces, r4.comm_total.allreduces,
            "per-batch reduce count must not scale with k"
        );
        assert_eq!(r1.comm_ortho.allreduces, r4.comm_ortho.allreduces);
        // The payload axis is what scales instead.
        assert!(
            r4.comm_ortho.allreduce_words > 3 * r1.comm_ortho.allreduce_words,
            "k=4 words {} vs k=1 words {}",
            r4.comm_ortho.allreduce_words,
            r1.comm_ortho.allreduce_words
        );
    }

    #[test]
    fn converged_columns_deflate_and_survivors_finish() {
        let a = laplace2d_9pt(14, 14);
        // Column 1 gets a loose absolute target: it deflates early.
        let b: Vec<Vec<f64>> = (0..3).map(|j| rhs_for(&a, j)).collect();
        let solver = SStepGmres::new(GmresConfig {
            restart: 20,
            step_size: 5,
            tol: 1e-9,
            ortho: OrthoKind::BcgsPip2,
            ..GmresConfig::default()
        });
        let b0: f64 = b[1].iter().map(|v| v * v).sum::<f64>().sqrt();
        let opts = BlockOptions {
            abs_targets: Some(vec![1e-9 * b0, 0.5 * b0, 1e-9 * b0]),
        };
        let comm = SerialComm::new();
        let part = block_row_partition(a.nrows(), 1);
        let dist = DistCsr::from_global(comm, &a, &part);
        let bm = cols_to_matrix(a.nrows(), &b);
        let mut x = Matrix::zeros(a.nrows(), 3);
        let r = solver.solve_block_with(&dist, &Identity, &bm, &mut x, &opts);
        assert!(r.converged, "{:?}", r.breakdown);
        assert_eq!(r.deflation_order.first(), Some(&1), "loose column first");
        let d1 = r.deflated_at[1].expect("column 1 deflated");
        assert!(d1 < r.restarts, "column 1 must leave before the end");
        // Its history stopped growing at deflation.
        assert_eq!(r.relres_history[1].len(), d1);
        assert!(r.relres_history[0].len() >= r.relres_history[1].len());
    }

    #[test]
    fn zero_block_returns_immediately() {
        let a = laplace2d_5pt(10, 10);
        let b = vec![vec![0.0; 100], vec![0.0; 100]];
        let (x, r) = SStepGmres::new(GmresConfig::default()).solve_block_serial(&a, &b);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(x.data().iter().all(|&v| v == 0.0));
        assert_eq!(r.final_relres, vec![0.0, 0.0]);
    }

    #[test]
    fn mixed_zero_and_nonzero_columns_work() {
        let a = laplace2d_5pt(12, 12);
        let b = vec![vec![0.0; 144], rhs_for(&a, 1)];
        let (x, r) = SStepGmres::new(GmresConfig {
            restart: 30,
            step_size: 5,
            tol: 1e-8,
            ..GmresConfig::default()
        })
        .solve_block_serial(&a, &b);
        assert!(r.converged, "{:?}", r.breakdown);
        assert_eq!(r.deflated_at[0], Some(0), "zero column deflates up front");
        assert!(x.col(0).iter().all(|&v| v == 0.0));
        assert!(block_relres(&a, &x, &b, 1) < 1e-7);
    }

    #[test]
    fn streamed_block_solve_matches_replicated_bitwise() {
        let rows = sparse::Laplace2d9ptRows { nx: 12, ny: 12 };
        let a = laplace2d_9pt(12, 12);
        let b: Vec<Vec<f64>> = (0..2).map(|j| rhs_for(&a, j)).collect();
        let solver = SStepGmres::new(GmresConfig {
            restart: 24,
            step_size: 4,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 24 },
            ..GmresConfig::default()
        });
        let (x_rep, r_rep) = solver.solve_block_serial(&a, &b);
        let part = block_row_partition(rows.nrows(), 1);
        let dist = DistCsr::from_row_source(SerialComm::new(), &part, &rows);
        let b_str = cols_to_matrix(rows.nrows(), &b);
        let mut x_str = Matrix::zeros(rows.nrows(), b.len());
        let r_str = solver.solve_block(&dist, &Identity, &b_str, &mut x_str);
        assert!(r_rep.converged && r_str.converged);
        assert_eq!(x_rep.data(), x_str.data(), "bitwise identical blocks");
        assert_eq!(r_rep.comm_total, r_str.comm_total);
    }
}
