//! The two-stage block orthogonalization scheme (Section V, Fig. 5).
//!
//! The first stage runs once per panel of `s` freshly generated Krylov
//! vectors: a single BCGS-PIP against *all* stored columns — the fully
//! orthogonalized previous big panels `Q_{1:ℓ-1}` and the merely
//! pre-processed panels `Q̂_{ℓ:j-1}` of the current big panel.  Its job is
//! not full orthogonality but keeping the accumulated basis well
//! conditioned, so that the matrix-powers kernel can keep extending it.
//! **1 global reduce per panel.**
//!
//! The second stage runs once per *big panel* of `bs` columns
//! (`s ≤ bs ≤ m`): one BCGS-PIP of the whole pre-processed big panel against
//! the fully orthogonalized prefix, followed by the R-factor update of
//! Fig. 5 lines 18–19.  **1 additional global reduce per `bs` columns**, and
//! all its local BLAS-3 work runs on blocks of `bs` columns instead of `s`,
//! which is where the data-reuse gain comes from.  When the big panel
//! violates condition (9) the stage falls back to `shifted_bcgs_pip2`,
//! whose re-orthogonalization fuses the vector update with the next inner
//! products ([`DistMultiVector::update_and_gram`]) — 2 reduces and one
//! fewer pass over the `n×bs` panel than the unfused remedy.
//!
//! With `bs = s` the scheme degenerates to one-stage BCGS-PIP2; with
//! `bs = m` it reaches the paper's best configuration.

use crate::error::OrthoError;
use crate::kernels::bcgs_pip;
use crate::sketched::{PreprocessOutcome, SketchState};
use crate::traits::{BlockOrthogonalizer, FallbackEvent, FallbackStage};
use dense::Matrix;
use distsim::{DistMultiVector, SketchConfig};
use std::ops::Range;

/// Which kernel the two-stage scheme uses for its per-panel first stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstStage {
    /// Plain BCGS-PIP pre-processing (the paper's scheme): the panel factor
    /// comes from the Cholesky factorization of the panel's Gram matrix.
    Pip,
    /// Sketch-preconditioned pre-processing (see [`crate::sketched`]): the
    /// panel factor comes from a Householder QR of the sketched panel, so
    /// the stage survives panel condition numbers far beyond the CholQR
    /// crossover at the same 1 reduce per panel.
    Sketched(SketchConfig),
}

/// The two-stage block orthogonalizer.
#[derive(Debug)]
pub struct TwoStage {
    /// Second-stage block size `bs` in columns.
    big_panel: usize,
    /// Total number of basis columns (`m + 1`), used to size bookkeeping.
    total_cols: usize,
    /// First column of the current (not yet fully orthogonalized) big panel.
    big_start: usize,
    /// End (exclusive) of the columns pre-processed so far.
    processed_end: usize,
    /// Representation of each stored basis column in the final basis
    /// (identity for columns of completed big panels; the stage-2 T factor
    /// for columns that were pre-processed when used as MPK inputs).
    coeffs: Matrix,
    /// Shifted-CholQR fallbacks taken (either stage) since construction or
    /// the last reset, with the stage, panel, and shift magnitude of each.
    events: Vec<FallbackEvent>,
    /// First-stage kernel selector.
    first_stage: FirstStage,
    /// Sketching state, realized lazily at the first panel when
    /// `first_stage` is [`FirstStage::Sketched`].
    sketch_state: Option<SketchState>,
}

impl TwoStage {
    /// Create a two-stage orthogonalizer with second step size `big_panel`
    /// (the paper's `bs`) for a basis of `total_cols` columns.
    pub fn new(big_panel: usize, total_cols: usize) -> Self {
        assert!(big_panel >= 1, "big panel size must be at least 1");
        Self {
            big_panel,
            total_cols,
            big_start: 0,
            processed_end: 0,
            coeffs: Matrix::identity(total_cols),
            events: Vec::new(),
            first_stage: FirstStage::Pip,
            sketch_state: None,
        }
    }

    /// [`TwoStage::new`] with the sketch-preconditioned first stage: same
    /// reduce schedule (1 per panel + 1 per big panel), with the per-panel
    /// conditioning fix coming from a backward-stable QR of the sketched
    /// panel instead of a Gram Cholesky.
    pub fn with_sketched_first_stage(
        big_panel: usize,
        total_cols: usize,
        sketch: SketchConfig,
    ) -> Self {
        let mut scheme = Self::new(big_panel, total_cols);
        scheme.first_stage = FirstStage::Sketched(sketch);
        scheme
    }

    /// The configured first-stage kernel.
    pub fn first_stage(&self) -> FirstStage {
        self.first_stage
    }

    /// The configured second-stage block size `bs`.
    pub fn big_panel(&self) -> usize {
        self.big_panel
    }

    /// Run the second stage on the columns `big_start..processed_end`
    /// (if any) and update `R` and the coefficient bookkeeping.
    fn flush_big_panel(
        &mut self,
        basis: &mut DistMultiVector,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        let bp = self.big_start..self.processed_end;
        if bp.is_empty() {
            return Ok(());
        }
        let _span = trace::span2(
            "ortho",
            "stage2_flush",
            "start",
            bp.start as u64,
            "cols",
            (bp.end - bp.start) as u64,
        );
        let prev = 0..bp.start;
        // Second-stage BCGS-PIP of the pre-processed big panel.  If the big
        // panel violates condition (9) of the paper (its condition number
        // exceeds ~1/sqrt(eps)), fall back to a shifted-CholQR first pass
        // followed by a re-orthogonalization pass — the remedy of Fukaya et
        // al. cited in the paper's related work — and compose the factors.
        let (t_prev, t_bp) = match bcgs_pip(basis, prev.clone(), bp.clone()) {
            Ok(factors) => factors,
            Err(OrthoError::CholeskyBreakdown { .. }) => {
                trace::instant2(
                    "ortho",
                    "fallback_stage2",
                    "start",
                    bp.start as u64,
                    "cols",
                    (bp.end - bp.start) as u64,
                );
                let (t_prev, t_bp, shift) = shifted_bcgs_pip2(basis, prev.clone(), bp.clone())?;
                self.events.push(FallbackEvent {
                    stage: FallbackStage::BigPanelFlush,
                    cols: bp.clone(),
                    shift,
                });
                (t_prev, t_bp)
            }
            Err(other) => return Err(other),
        };
        // The flush rewrote the stored big-panel columns as
        // Q_bp = (Q̂_bp − Q_prev·T_prev)·T_bp⁻¹; mirror the update on the
        // replicated sketch so later sketched panels project correctly.
        if let Some(state) = &mut self.sketch_state {
            let base = state.block(bp.clone());
            state.refresh_block(&base, prev.clone(), bp.clone(), &t_prev, &t_bp);
        }
        // R updates (Fig. 5 lines 18-19):
        //   R[prev, bp] += T_prev · R[bp, bp]
        //   R[bp, bp]    = T_bp  · R[bp, bp]
        let r_bp_bp = extract_block(r, bp.clone(), bp.clone());
        if !prev.is_empty() {
            let correction = dense::gemm_nn(&t_prev, &r_bp_bp);
            for (jj, col) in bp.clone().enumerate() {
                for i in prev.clone() {
                    let v = r[(i, col)] + correction[(i, jj)];
                    r[(i, col)] = v;
                }
            }
        }
        let new_diag = dense::gemm_nn(&t_bp, &r_bp_bp);
        for (jj, col) in bp.clone().enumerate() {
            for (ii, row) in bp.clone().enumerate() {
                r[(row, col)] = new_diag[(ii, jj)];
            }
        }
        // Bookkeeping: stored columns of this big panel were the
        // pre-processed Q̂; in the final basis they read
        // Q̂_bp = Q_prev·T_prev + Q_bp·T_bp.
        for (jj, col) in bp.clone().enumerate() {
            for i in 0..self.total_cols {
                self.coeffs[(i, col)] = 0.0;
            }
            for (ii, row) in prev.clone().enumerate() {
                self.coeffs[(row, col)] = t_prev[(ii, jj)];
            }
            for (ii, row) in bp.clone().enumerate() {
                self.coeffs[(row, col)] = t_bp[(ii, jj)];
            }
        }
        self.big_start = self.processed_end;
        Ok(())
    }
}

/// Shifted BCGS-PIP2, used when a plain BCGS-PIP on a panel (first stage)
/// or big panel (second stage) breaks down: a first pass built on the
/// shifted Cholesky factorization (which succeeds for any numerically
/// full-rank panel), then a re-orthogonalization whose vector update and
/// inner products are fused into one pass over the panel with
/// [`DistMultiVector::update_and_gram`].  The factor sets are composed so
/// the caller still sees a single `(T_prev, T_bp)` pair with
/// `Q̂ = Q_prev·T_prev + Q_new·T_bp`.
///
/// **2 global reduces**, 5 passes over the `n×bs` panel (the unfused
/// formulation took 6: separate update, normalization and `proj_and_gram`
/// sweeps in the second pass).  The third element of the result is the
/// Cholesky shift the first pass applied (recorded in the caller's
/// [`FallbackEvent`]).
fn shifted_bcgs_pip2(
    basis: &mut DistMultiVector,
    prev: Range<usize>,
    bp: Range<usize>,
) -> Result<(Matrix, Matrix, f64), OrthoError> {
    crate::kernels::bcgs_pip2_fused(
        basis,
        prev,
        bp,
        true,
        "two-stage second stage (shifted fallback)",
        "two-stage second stage (reorthogonalization)",
    )
}

/// Copy the sub-block `R[rows, cols]` into an owned matrix.
fn extract_block(r: &Matrix, rows: Range<usize>, cols: Range<usize>) -> Matrix {
    let mut out = Matrix::zeros(rows.end - rows.start, cols.end - cols.start);
    for (jj, col) in cols.enumerate() {
        for (ii, row) in rows.clone().enumerate() {
            out[(ii, jj)] = r[(row, col)];
        }
    }
    out
}

impl BlockOrthogonalizer for TwoStage {
    fn name(&self) -> &'static str {
        match self.first_stage {
            FirstStage::Pip => "two-stage BCGS-PIP",
            FirstStage::Sketched(_) => "two-stage BCGS-PIP (sketched first stage)",
        }
    }

    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        assert_eq!(
            new.start, self.processed_end,
            "two-stage: panels must be supplied in order without gaps"
        );
        // First stage: pre-process the panel against everything stored so
        // far (fully orthogonalized prefix + pre-processed current big
        // panel) with a single BCGS-PIP.  If the raw panel violates the
        // O(1/sqrt(eps)) conditioning bound (condition (5) of the paper) —
        // which the matrix-powers kernel can produce on hard matrices — fall
        // back to the same shifted-CholQR remedy the second stage uses,
        // spending the extra reduces only on the offending panel.
        let prev = 0..new.start;
        let stage1_span = trace::span2(
            "ortho",
            "stage1_panel",
            "start",
            new.start as u64,
            "cols",
            (new.end - new.start) as u64,
        );
        match self.first_stage {
            FirstStage::Pip => {
                let (p, r_new) = match bcgs_pip(basis, prev.clone(), new.clone()) {
                    Ok(factors) => factors,
                    Err(OrthoError::CholeskyBreakdown { .. }) => {
                        trace::instant2(
                            "ortho",
                            "fallback_stage1",
                            "start",
                            new.start as u64,
                            "cols",
                            (new.end - new.start) as u64,
                        );
                        let (p, r_new, shift) = shifted_bcgs_pip2(basis, prev.clone(), new.clone())
                            .map_err(|e| match e {
                                OrthoError::CholeskyBreakdown { pivot, .. } => {
                                    OrthoError::CholeskyBreakdown {
                                        context: "two-stage first stage (panel pre-processing)",
                                        pivot,
                                    }
                                }
                                other => other,
                            })?;
                        self.events.push(FallbackEvent {
                            stage: FallbackStage::PanelPreprocess,
                            cols: new.clone(),
                            shift,
                        });
                        (p, r_new)
                    }
                    Err(other) => return Err(other),
                };
                crate::bcgs_pip2::write_block(r, prev.start, new.clone(), &p, &r_new);
            }
            FirstStage::Sketched(config) => {
                let total_cols = self.total_cols;
                let state = self.sketch_state.get_or_insert_with(|| {
                    SketchState::new(&config, basis.global_rows(), total_cols)
                });
                match state.preprocess(basis, prev.clone(), new.clone()) {
                    PreprocessOutcome::Factored { p1, r_s } => {
                        crate::bcgs_pip2::write_block(r, prev.start, new.clone(), &p1, &r_s);
                    }
                    PreprocessOutcome::RankDeficient { sv, .. } => {
                        // The raw panel lost full rank even under the
                        // sketch's bounded distortion: take the shifted
                        // remedial path on the raw columns and tag the
                        // episode with the sketch stage.
                        trace::instant2(
                            "ortho",
                            "fallback_stage1",
                            "start",
                            new.start as u64,
                            "cols",
                            (new.end - new.start) as u64,
                        );
                        let (p, r_new, shift) = shifted_bcgs_pip2(basis, prev.clone(), new.clone())
                            .map_err(|e| match e {
                                OrthoError::CholeskyBreakdown { pivot, .. } => {
                                    OrthoError::CholeskyBreakdown {
                                        context: "two-stage sketched first stage",
                                        pivot,
                                    }
                                }
                                other => other,
                            })?;
                        state.refresh_block(&sv, prev.clone(), new.clone(), &p, &r_new);
                        crate::bcgs_pip2::write_block(r, prev.start, new.clone(), &p, &r_new);
                        self.events.push(FallbackEvent {
                            stage: FallbackStage::SketchPrecondition,
                            cols: new.clone(),
                            shift,
                        });
                    }
                }
            }
        }
        self.processed_end = new.end;
        // Close the first-stage span before a possible big-panel flush, so
        // stage-2 time is not attributed to the panel that triggered it.
        drop(stage1_span);
        // Second stage once enough columns have accumulated.
        if self.processed_end - self.big_start >= self.big_panel
            || self.processed_end >= self.total_cols
        {
            self.flush_big_panel(basis, r)?;
        }
        Ok(())
    }

    fn finish(&mut self, basis: &mut DistMultiVector, r: &mut Matrix) -> Result<(), OrthoError> {
        self.flush_big_panel(basis, r)
    }

    fn stored_basis_coeffs(&self) -> Option<&Matrix> {
        Some(&self.coeffs)
    }

    fn finalized_cols(&self) -> Option<usize> {
        Some(self.big_start)
    }

    fn fallback_events(&self) -> &[FallbackEvent] {
        &self.events
    }

    fn reset(&mut self) {
        self.big_start = 0;
        self.processed_end = 0;
        self.coeffs = Matrix::identity(self.total_cols);
        self.events.clear();
        if let Some(state) = &mut self.sketch_state {
            state.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::orthogonality_error;
    use distsim::SerialComm;

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 19 + j * 11) % 31) as f64 * 0.06 - 0.8
                + if (i + 3 * j) % 9 == 0 { 1.9 } else { 0.0 }
        })
    }

    fn run(v: &Matrix, panel: usize, bs: usize) -> (Matrix, Matrix, TwoStage) {
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(v.ncols(), v.ncols());
        let mut scheme = TwoStage::new(bs, v.ncols());
        let mut start = 0;
        while start < v.ncols() {
            let end = (start + panel).min(v.ncols());
            scheme
                .orthogonalize_panel(&mut basis, start..end, &mut r)
                .unwrap();
            start = end;
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        (basis.local().clone(), r, scheme)
    }

    #[test]
    fn two_stage_orthogonality_and_reconstruction() {
        let v = test_matrix(600, 16);
        for bs in [4, 8, 16] {
            let (q, r, _) = run(&v, 4, bs);
            let err = orthogonality_error(&q.view());
            assert!(err < 1e-12, "bs = {bs}: orthogonality error {err}");
            let back = dense::gemm_nn(&q, &r);
            for j in 0..16 {
                for i in 0..600 {
                    assert!(
                        (back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs(),
                        "bs = {bs}: reconstruction failed at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_count_is_one_per_panel_plus_one_per_big_panel() {
        let v = test_matrix(500, 20);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(20, 20);
        let mut scheme = TwoStage::new(20, 20);
        let before = basis.comm().stats().snapshot();
        for p in 0..4 {
            scheme
                .orthogonalize_panel(&mut basis, p * 5..(p + 1) * 5, &mut r)
                .unwrap();
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        // 4 panels × 1 reduce + 1 big-panel reduce.
        assert_eq!(delta.allreduces, 5);
    }

    #[test]
    fn bs_equal_to_s_matches_one_stage_pip2_sync_count() {
        let v = test_matrix(300, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(10, 10);
        let mut scheme = TwoStage::new(5, 10);
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 0..5, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 5..10, &mut r)
            .unwrap();
        scheme.finish(&mut basis, &mut r).unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        // bs = s: each panel is immediately flushed → 2 reduces per panel,
        // exactly the BCGS-PIP2 count.
        assert_eq!(delta.allreduces, 4);
    }

    #[test]
    fn pre_processing_keeps_basis_well_conditioned_before_second_stage() {
        // Feed panels of a glued matrix (each panel kappa 1e4) and check that
        // after the first stage the stored (pre-processed) basis has a small
        // condition number even though it is not yet orthogonal.
        let spec = testmat::GluedSpec {
            nrows: 400,
            panel_cols: 4,
            num_panels: 4,
            panel_cond: 1e4,
            glue_cond: 1e2,
        };
        let v = testmat::glued_matrix(&spec, 11);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(16, 16);
        let mut scheme = TwoStage::new(16, 16);
        for p in 0..4 {
            scheme
                .orthogonalize_panel(&mut basis, p * 4..(p + 1) * 4, &mut r)
                .unwrap();
            let kappa = dense::cond_2(&basis.local().cols(0..(p + 1) * 4));
            assert!(
                kappa < 1e3,
                "pre-processed basis must stay well conditioned, kappa = {kappa}"
            );
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        assert!(orthogonality_error(&basis.local().cols(0..16)) < 1e-12);
    }

    #[test]
    fn stored_basis_coeffs_express_preprocessed_columns() {
        // After finish, coeffs[:, c] must reproduce the pre-processed column
        // that was stored at column c before the second stage ran.
        let v = test_matrix(300, 12);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(12, 12);
        let mut scheme = TwoStage::new(12, 12);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 8..12, &mut r)
            .unwrap();
        // Capture the pre-processed basis before the second stage.
        let pre = basis.local().clone();
        scheme.finish(&mut basis, &mut r).unwrap();
        let coeffs = scheme.stored_basis_coeffs().unwrap();
        let reproduced = dense::gemm_nn(basis.local(), coeffs);
        for j in 0..12 {
            for i in 0..300 {
                assert!(
                    (reproduced[(i, j)] - pre[(i, j)]).abs() < 1e-10,
                    "column {j} not reproduced at row {i}"
                );
            }
        }
    }

    #[test]
    fn reset_clears_state_for_a_new_cycle() {
        let v = test_matrix(200, 8);
        let (_, _, mut scheme) = run(&v, 4, 8);
        scheme.reset();
        assert_eq!(scheme.stored_basis_coeffs().unwrap(), &Matrix::identity(8));
        // The scheme is reusable after reset.
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        scheme.finish(&mut basis, &mut r).unwrap();
        assert!(orthogonality_error(&basis.local().cols(0..8)) < 1e-12);
    }

    #[test]
    fn shifted_fallback_uses_two_reduces_and_composes_factors() {
        // The second stage's robust path: orthogonalize a prefix, then run
        // the shifted+fused re-orthogonalization on a trailing block and
        // check reduce count, orthogonality, and the factor composition
        // Q̂ = Q_prev·T_prev + Q_bp·T_bp.
        let v = test_matrix(400, 10);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r0 = Matrix::zeros(10, 10);
        let mut pre = crate::bcgs_pip2::BcgsPip2::new();
        pre.orthogonalize_panel(&mut basis, 0..4, &mut r0).unwrap();
        let stored = basis.local().clone(); // columns 4..10 still raw
        let before = basis.comm().stats().snapshot();
        let (t_prev, t_bp, _shift) = shifted_bcgs_pip2(&mut basis, 0..4, 4..10).unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "shifted fallback must stay 2 reduces");
        assert!(dense::orthogonality_error(&basis.local().cols(0..10)) < 1e-12);
        // Composition reproduces the pre-fallback stored columns.
        let q_prev = basis.local().cols_owned(0..4);
        let q_bp = basis.local().cols_owned(4..10);
        let reproduced = dense::gemm_nn(&q_prev, &t_prev).add(&dense::gemm_nn(&q_bp, &t_bp));
        for j in 0..6 {
            for i in 0..400 {
                assert!(
                    (reproduced[(i, j)] - stored[(i, 4 + j)]).abs() < 1e-9 * v.max_abs(),
                    "column {j} row {i} not reproduced"
                );
            }
        }
    }

    #[test]
    fn first_stage_fallback_records_stage_panel_and_shift() {
        // A panel whose conditioning violates the O(1/sqrt(eps)) bound makes
        // the first-stage BCGS-PIP Cholesky break down; the scheme must take
        // the shifted remedial path AND report which stage, which columns,
        // and how large a shift it needed — not just bump a counter.
        let v = testmat::logscaled_matrix(400, 8, 1e10, 7);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = TwoStage::new(8, 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..8, &mut r)
            .unwrap();
        scheme.finish(&mut basis, &mut r).unwrap();
        let events = scheme.fallback_events();
        assert!(
            !events.is_empty(),
            "a kappa=1e10 panel must force the remedial path"
        );
        for e in events {
            assert!(e.shift > 0.0, "shifted CholQR must have applied a shift");
            assert!(e.cols.end <= 8 && e.cols.start < e.cols.end);
        }
        assert!(events
            .iter()
            .any(|e| e.stage == crate::traits::FallbackStage::PanelPreprocess));
        // The aggregate equals the distinct-episode count of the events.
        assert_eq!(
            scheme.fallback_count(),
            crate::traits::distinct_fallback_episodes(events)
        );
        // The remedy worked: the basis is orthonormal to machine precision.
        assert!(orthogonality_error(&basis.local().cols(0..8)) < 1e-12);
        // Reset clears the episode log with the rest of the state.
        scheme.reset();
        assert!(scheme.fallback_events().is_empty());
        assert_eq!(scheme.fallback_count(), 0);
    }

    fn run_sketched(v: &Matrix, panel: usize, bs: usize) -> (Matrix, Matrix, TwoStage) {
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(v.ncols(), v.ncols());
        let mut scheme =
            TwoStage::with_sketched_first_stage(bs, v.ncols(), distsim::SketchConfig::default());
        let mut start = 0;
        while start < v.ncols() {
            let end = (start + panel).min(v.ncols());
            scheme
                .orthogonalize_panel(&mut basis, start..end, &mut r)
                .unwrap();
            start = end;
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        (basis.local().clone(), r, scheme)
    }

    #[test]
    fn sketched_first_stage_orthogonality_and_reconstruction() {
        let v = test_matrix(600, 16);
        for bs in [4, 8, 16] {
            let (q, r, _) = run_sketched(&v, 4, bs);
            let err = orthogonality_error(&q.view());
            assert!(err < 1e-12, "bs = {bs}: orthogonality error {err}");
            let back = dense::gemm_nn(&q, &r);
            for j in 0..16 {
                for i in 0..600 {
                    assert!(
                        (back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs(),
                        "bs = {bs}: reconstruction failed at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn sketched_first_stage_keeps_the_plain_reduce_schedule() {
        // The sketched first stage must not change the scheme's headline:
        // 1 fused reduce per panel + 1 per big-panel flush.
        let v = test_matrix(500, 20);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(20, 20);
        let mut scheme =
            TwoStage::with_sketched_first_stage(20, 20, distsim::SketchConfig::default());
        let before = basis.comm().stats().snapshot();
        for p in 0..4 {
            scheme
                .orthogonalize_panel(&mut basis, p * 5..(p + 1) * 5, &mut r)
                .unwrap();
        }
        scheme.finish(&mut basis, &mut r).unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 5, "4 panels + 1 flush, same as plain");
    }

    #[test]
    fn sketched_first_stage_survives_kappa_that_forces_plain_fallbacks() {
        // At kappa 1e10 the plain first stage takes the shifted remedial
        // path (`first_stage_fallback_records_stage_panel_and_shift`
        // above); the sketched first stage absorbs the same panel with
        // zero episodes at the same reduce count.
        let v = testmat::logscaled_matrix(400, 8, 1e10, 7);
        let (q, _, scheme) = run_sketched(&v, 8, 8);
        assert!(orthogonality_error(&q.view()) < 1e-12);
        assert_eq!(
            scheme.fallback_count(),
            0,
            "sketched first stage must not fall back at kappa 1e10"
        );
        let (_, _, plain) = run(&v, 8, 8);
        assert!(
            plain.fallback_count() > 0,
            "plain first stage is expected to fall back on this panel"
        );
    }

    #[test]
    fn sketched_stored_basis_coeffs_express_preprocessed_columns() {
        // The stage-2 bookkeeping must stay correct when stage 1 is
        // sketched: coeffs reproduce the pre-flush stored columns.  Unlike
        // the plain first stage, the sketched pre-processing leaves columns
        // well conditioned but *not* near-orthonormal, so the flush factors
        // are far from identity — exactly the case the bookkeeping exists
        // for.  Use 13 total columns and supply 12 so the capture happens
        // before `finish` runs the (only) flush.
        let v = test_matrix(300, 13);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(13, 13);
        let mut scheme =
            TwoStage::with_sketched_first_stage(13, 13, distsim::SketchConfig::default());
        for p in 0..3 {
            scheme
                .orthogonalize_panel(&mut basis, p * 4..(p + 1) * 4, &mut r)
                .unwrap();
        }
        let pre = basis.local().clone();
        scheme.finish(&mut basis, &mut r).unwrap();
        let coeffs = scheme.stored_basis_coeffs().unwrap();
        let reproduced = dense::gemm_nn(basis.local(), coeffs);
        for j in 0..12 {
            for i in 0..300 {
                assert!(
                    (reproduced[(i, j)] - pre[(i, j)]).abs() < 1e-9,
                    "column {j} not reproduced at row {i}"
                );
            }
        }
    }

    #[test]
    fn sketched_reset_clears_sketch_state_for_a_new_cycle() {
        let v = test_matrix(200, 8);
        let (_, _, mut scheme) = run_sketched(&v, 4, 8);
        scheme.reset();
        assert!(scheme.fallback_events().is_empty());
        // Reuse across a cycle with a *different* basis: stale sketch
        // state would poison the projections.
        let w = test_matrix(200, 8).add(&Matrix::from_fn(200, 8, |i, j| {
            ((i * 7 + j) % 5) as f64 * 0.21
        }));
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), w.clone());
        let mut r = Matrix::zeros(8, 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        scheme.finish(&mut basis, &mut r).unwrap();
        assert!(orthogonality_error(&basis.local().cols(0..8)) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "panels must be supplied in order")]
    fn out_of_order_panels_are_rejected() {
        let v = test_matrix(100, 8);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = TwoStage::new(8, 8);
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
    }

    #[test]
    fn glued_matrix_full_run_reaches_machine_precision() {
        // The Fig. 8 scenario at reduced size: glued matrix, panels of 5,
        // big panel of 20.
        let spec = testmat::GluedSpec {
            nrows: 500,
            panel_cols: 5,
            num_panels: 8,
            panel_cond: 1e6,
            glue_cond: 1e3,
        };
        let v = testmat::glued_matrix(&spec, 3);
        let (q, r, _) = run(&v, 5, 20);
        assert!(orthogonality_error(&q.view()) < 1e-12);
        let back = dense::gemm_nn(&q, &r);
        for j in 0..40 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-8 * v.max_abs());
            }
        }
    }
}
