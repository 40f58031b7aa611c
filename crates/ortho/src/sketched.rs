//! Sketch-preconditioned orthogonalization (the authors' follow-up,
//! "Random-sketching Techniques to Enhance the Numerical Stability of Block
//! Orthogonalization Algorithms for s-step GMRES", arXiv 2503.16717).
//!
//! The CholQR-family kernels obtain a panel's triangular factor from the
//! Cholesky factorization of its Gram matrix, which squares the panel's
//! condition number: they break down (and take the shifted remedial path)
//! once `κ(panel)` exceeds `~1/√ε`.  The sketched kernels instead draw the
//! factor from a **Householder QR of the sketched panel** `S·W` — a small
//! replicated `c×s` matrix obtained with one allreduce
//! ([`DistMultiVector::sketch`]); the inter-panel projection coefficients
//! come from a *local* sketch-space least squares against the replicated
//! `S·Q` (randomized Gram–Schmidt), so pre-conditioning a panel costs one
//! reduce of just the sketch words.  QR of the sketch is backward stable
//! regardless of
//! `κ(panel)`, so `V·R_s⁻¹` is `O(1)`-conditioned whenever the panel is
//! numerically full rank — the sketched schemes keep going at `κ` where
//! shifted CholQR is already falling back, at identical reduce counts.
//!
//! `SketchState` owns the realized operator and the replicated sketch
//! `S·Q` of the stored basis, maintained *locally* through the same linear
//! updates the basis itself undergoes (sketching is linear), so no extra
//! communication is ever needed.  Two schemes build on it:
//!
//! * [`RandCholQr`] — a one-stage [`BlockOrthogonalizer`]: sketched
//!   pre-conditioning (1 sketch reduce) + one BCGS-PIP polish (1 reduce),
//!   i.e. the same 2 reduces per panel as BCGS-PIP2 with `O(ε)` final
//!   orthogonality far beyond the CholQR crossover;
//! * the two-stage scheme's `FirstStage::Sketched`
//!   ([`TwoStage::with_sketched_first_stage`]) — stage 1 becomes the
//!   sketched pre-conditioning at the same 1 reduce per panel.
//!
//! When the *sketched* panel is numerically rank deficient (the panel
//! truly lost full rank — duplicated Krylov directions, `κ ≳ 1/ε`), the
//! schemes take the same shifted-CholQR remedial path as the unsketched
//! family and record a [`FallbackEvent`] tagged
//! [`FallbackStage::SketchPrecondition`], so episode accounting stays
//! honest across families.
//!
//! [`TwoStage::with_sketched_first_stage`]: crate::two_stage::TwoStage::with_sketched_first_stage
//! [`DistMultiVector::sketch`]: distsim::DistMultiVector::sketch

use crate::error::OrthoError;
use crate::kernels::bcgs_pip;
use crate::traits::{BlockOrthogonalizer, FallbackEvent, FallbackStage};
use dense::Matrix;
use distsim::{DistMultiVector, SketchConfig, SketchOp};
use std::ops::Range;

/// Outcome of one sketched panel pre-conditioning step.
pub(crate) enum PreprocessOutcome {
    /// The panel was sketch-preconditioned in place: the basis columns now
    /// hold `V̂ = (V − Q·P1)·R_s⁻¹` and the caller owns the factors.
    Factored {
        /// Sketch-space least-squares projection coefficients
        /// `P1 = argmin ‖S·V − S·Q_prev·P1‖` (the coefficients actually
        /// applied to the basis, so `V = Q_prev·P1 + V̂·R_s` holds exactly).
        p1: Matrix,
        /// Triangular factor of the sketched projected panel (positive
        /// diagonal); `R[new, new]` contribution of the pre-conditioning.
        r_s: Matrix,
    },
    /// The sketched panel is numerically rank deficient; the basis was
    /// **not** modified.  The caller must take a remedial path and then
    /// re-establish the panel's sketch via [`SketchState::refresh_block`]
    /// with `sv` (the sketch of the raw panel) as the base.
    RankDeficient {
        /// Sketch `S·V` of the raw panel (already paid for — reuse it).
        sv: Matrix,
        /// First numerically zero diagonal of the sketched QR factor.
        pivot: usize,
    },
}

/// Replicated sketching state shared by the sketched schemes: the realized
/// operator and `S·Q` for every stored basis column (see module docs).
#[derive(Debug)]
pub(crate) struct SketchState {
    op: SketchOp,
    /// `c × total_cols` replicated sketch of the stored basis columns.
    sq: Matrix,
}

impl SketchState {
    pub(crate) fn new(config: &SketchConfig, global_rows: usize, total_cols: usize) -> Self {
        let op = SketchOp::for_basis(config, global_rows, total_cols);
        let sq = Matrix::zeros(op.rows(), total_cols);
        Self { op, sq }
    }

    /// Copy of the stored sketch block `S·Q[:, cols]`.
    pub(crate) fn block(&self, cols: Range<usize>) -> Matrix {
        self.sq.cols_owned(cols)
    }

    /// Forget every stored column sketch (start of a new restart cycle).
    pub(crate) fn reset(&mut self) {
        self.sq = Matrix::zeros(self.op.rows(), self.sq.ncols());
    }

    /// Sketch-precondition the panel `new` against `prev` with **one
    /// global reduce** (the sketch itself): obtain `S·V`, solve the small
    /// replicated least-squares problem `P1 = argmin ‖S·V − S·Q_prev·P1‖`
    /// locally, form `S·W = S·V − S·Q_prev·P1`, factor it with Householder
    /// QR, and — if the panel is numerically full rank — apply `W·R_s⁻¹`
    /// to the basis and record the panel's sketch.
    ///
    /// The projection coefficients **must** come from the sketch-space
    /// least squares, not the full-space Gram `Q_prevᵀ·V`: pre-conditioned
    /// columns are orthonormal only *under the sketch* (κ ≈ 1 + ζ in full
    /// space, with ζ the sketch distortion), so a Gram projection against
    /// them leaves `O(ζ)`-sized leftovers along previous directions — on
    /// ill-conditioned inputs those leftovers dominate the panel's genuine
    /// new content and the joint basis conditioning collapses.  The LS
    /// residual is orthogonal to `range(S·Q_prev)` *by construction*, which
    /// keeps `S·[Q, V̂]` orthonormal and hence `κ([Q, V̂]) = O(1)`
    /// regardless of `κ(V)` (Balabanov & Grigori, randomized GS).
    /// See [`PreprocessOutcome`].
    pub(crate) fn preprocess(
        &mut self,
        basis: &mut DistMultiVector,
        prev: Range<usize>,
        new: Range<usize>,
    ) -> PreprocessOutcome {
        let s = new.end - new.start;
        let k = prev.end - prev.start;
        let sv = basis.sketch(&self.op, new.clone());
        // S·W = S·V − S·Q_prev·P1 (local: sketching is linear and S·Q_prev
        // is replicated).  P1 solves the normal equations of the sketch-
        // space LS; the Gram of S·Q_prev is O(1)-conditioned by the scheme
        // invariant (stored sketches are orthonormal up to distortion), so
        // Cholesky is safe — if it still breaks, fall back to the one-pass
        // sketch-space CGS coefficients (graceful degradation; stage 2 or
        // the polish pass still guarantees correctness).
        let mut sw = sv.clone();
        let p1 = if prev.is_empty() {
            Matrix::zeros(0, s)
        } else {
            let sq_prev = self.sq.cols(prev.clone());
            let rhs = dense::gemm_tn(&sq_prev, &sv.view());
            let p1 = match dense::cholesky_upper(&dense::gram(&sq_prev)) {
                Ok(u) => {
                    let mut x = Matrix::zeros(k, s);
                    for j in 0..s {
                        let y = dense::tri_solve_upper_transpose(&u, rhs.col(j));
                        x.col_mut(j)
                            .copy_from_slice(&dense::tri_solve_upper(&u, &y));
                    }
                    x
                }
                Err(_) => rhs,
            };
            let mut w = sw.cols_mut(0..s);
            dense::gemm_nn_minus(&mut w, &sq_prev, &p1);
            p1
        };
        let (_, mut r_s) = dense::householder_qr(&sw);
        // Householder QR does not fix diagonal signs; flip rows so R_s has
        // a non-negative diagonal (the crate-wide R convention).
        for i in 0..s {
            if r_s[(i, i)] < 0.0 {
                for j in i..s {
                    r_s[(i, j)] = -r_s[(i, j)];
                }
            }
        }
        // Rank screen on the sketched factor: a numerically zero diagonal
        // means the projected panel lost full rank even under the sketch's
        // bounded distortion — no triangular solve can repair that.
        let tol = 32.0 * f64::EPSILON * r_s.max_abs();
        if let Some(pivot) = (0..s).find(|&i| r_s[(i, i)] <= tol) {
            return PreprocessOutcome::RankDeficient { sv, pivot };
        }
        if !prev.is_empty() {
            basis.update(prev, new.clone(), &p1);
        }
        basis.scale_right(new.clone(), &r_s);
        // The panel's sketch is S·V̂ = S·W·R_s⁻¹, computed on the already
        // replicated small block.
        {
            let mut w = sw.cols_mut(0..s);
            dense::trsm_right_upper(&mut w, &r_s);
        }
        for (jj, col) in new.enumerate() {
            self.sq.col_mut(col).copy_from_slice(sw.col(jj));
        }
        PreprocessOutcome::Factored { p1, r_s }
    }

    /// Re-derive the sketch of the basis columns `cols` after they were
    /// rewritten as `Q_new = (base_vectors − Q_prev·T_prev)·T_new⁻¹` (the
    /// update every BCGS-PIP / shifted pass applies), where `base` is the
    /// sketch of the columns' previous contents.  Local and replicated.
    pub(crate) fn refresh_block(
        &mut self,
        base: &Matrix,
        prev: Range<usize>,
        cols: Range<usize>,
        t_prev: &Matrix,
        t_new: &Matrix,
    ) {
        let w = cols.end - cols.start;
        let mut block = base.clone();
        if !prev.is_empty() {
            let mut b = block.cols_mut(0..w);
            dense::gemm_nn_minus(&mut b, &self.sq.cols(prev), t_prev);
        }
        {
            let mut b = block.cols_mut(0..w);
            dense::trsm_right_upper(&mut b, t_new);
        }
        for (jj, col) in cols.enumerate() {
            self.sq.col_mut(col).copy_from_slice(block.col(jj));
        }
    }
}

/// Randomized CholQR: sketched pre-conditioning + one CholQR polish,
/// **2 reduces per panel** (see module docs).
#[derive(Debug)]
pub struct RandCholQr {
    config: SketchConfig,
    total_cols: usize,
    /// Lazily realized at the first panel (needs the basis row dimension).
    state: Option<SketchState>,
    events: Vec<FallbackEvent>,
}

impl RandCholQr {
    /// Create the scheme for a basis of `total_cols` columns.
    pub fn new(config: SketchConfig, total_cols: usize) -> Self {
        Self {
            config,
            total_cols,
            state: None,
            events: Vec::new(),
        }
    }
}

/// The shifted remedial path shared with the unsketched family: fused
/// shifted BCGS-PIP2, 2 reduces.
fn shifted_remedy(
    basis: &mut DistMultiVector,
    prev: Range<usize>,
    new: Range<usize>,
) -> Result<(Matrix, Matrix, f64), OrthoError> {
    crate::kernels::bcgs_pip2_fused(
        basis,
        prev,
        new,
        true,
        "sketched panel (shifted fallback)",
        "sketched panel (reorthogonalization)",
    )
}

impl BlockOrthogonalizer for RandCholQr {
    fn name(&self) -> &'static str {
        "randomized CholQR"
    }

    fn orthogonalize_panel(
        &mut self,
        basis: &mut DistMultiVector,
        new: Range<usize>,
        r: &mut Matrix,
    ) -> Result<(), OrthoError> {
        let prev = 0..new.start;
        let total_cols = self.total_cols;
        let config = self.config;
        let state = self
            .state
            .get_or_insert_with(|| SketchState::new(&config, basis.global_rows(), total_cols));
        let _span = trace::span2(
            "ortho",
            "sketched_panel",
            "start",
            new.start as u64,
            "cols",
            (new.end - new.start) as u64,
        );
        match state.preprocess(basis, prev.clone(), new.clone()) {
            PreprocessOutcome::Factored { p1, r_s } => {
                let base = state.block(new.clone());
                match bcgs_pip(basis, prev.clone(), new.clone()) {
                    Ok((p2, r2)) => {
                        let r_prev = crate::bcgs_pip2::p2_times_r_plus_p1(&p2, &r_s, &p1);
                        let r_new = dense::tri_matmul_upper(&r2, &r_s);
                        crate::bcgs_pip2::write_block(r, 0, new.clone(), &r_prev, &r_new);
                        state.refresh_block(&base, prev, new, &p2, &r2);
                    }
                    Err(OrthoError::CholeskyBreakdown { .. }) => {
                        // The polish found the preconditioned panel still
                        // indefinite (borderline rank): shifted remedy on
                        // the preconditioned columns, composed with R_s.
                        trace::instant2(
                            "ortho",
                            "fallback_sketch",
                            "start",
                            new.start as u64,
                            "cols",
                            (new.end - new.start) as u64,
                        );
                        let (t_prev, t_new, shift) =
                            shifted_remedy(basis, prev.clone(), new.clone())?;
                        self.events.push(FallbackEvent {
                            stage: FallbackStage::SketchPrecondition,
                            cols: new.clone(),
                            shift,
                        });
                        let r_prev = crate::bcgs_pip2::p2_times_r_plus_p1(&t_prev, &r_s, &p1);
                        let r_new = dense::tri_matmul_upper(&t_new, &r_s);
                        crate::bcgs_pip2::write_block(r, 0, new.clone(), &r_prev, &r_new);
                        state.refresh_block(&base, prev, new, &t_prev, &t_new);
                    }
                    Err(other) => return Err(other),
                }
            }
            PreprocessOutcome::RankDeficient { sv, pivot } => {
                // The raw panel lost full rank under the sketch: same
                // shifted remedy the unsketched family uses, on the raw
                // columns.  Errors propagate — reported, never silent.
                trace::instant2(
                    "ortho",
                    "fallback_sketch",
                    "start",
                    new.start as u64,
                    "pivot",
                    pivot as u64,
                );
                let (t_prev, t_new, shift) = shifted_remedy(basis, prev.clone(), new.clone())?;
                self.events.push(FallbackEvent {
                    stage: FallbackStage::SketchPrecondition,
                    cols: new.clone(),
                    shift,
                });
                crate::bcgs_pip2::write_block(r, 0, new.clone(), &t_prev, &t_new);
                state.refresh_block(&sv, prev, new, &t_prev, &t_new);
            }
        }
        Ok(())
    }

    fn fallback_events(&self) -> &[FallbackEvent] {
        &self.events
    }

    fn reset(&mut self) {
        if let Some(state) = &mut self.state {
            state.reset();
        }
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::orthogonality_error;
    use distsim::SerialComm;

    fn run(v: &Matrix, panel: usize, config: SketchConfig) -> (Matrix, Matrix, RandCholQr) {
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(v.ncols(), v.ncols());
        let mut scheme = RandCholQr::new(config, v.ncols());
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

    fn test_matrix(n: usize, c: usize) -> Matrix {
        Matrix::from_fn(n, c, |i, j| {
            ((i * 23 + j * 5) % 29) as f64 * 0.09 - 1.2
                + if (i + 2 * j) % 7 == 0 { 1.4 } else { 0.0 }
        })
    }

    #[test]
    fn orthogonality_and_reconstruction_on_benign_input() {
        let v = test_matrix(500, 12);
        let (q, r, scheme) = run(&v, 4, SketchConfig::default());
        let err = orthogonality_error(&q.view());
        assert!(err < 1e-13, "orthogonality error {err}");
        assert!(scheme.fallback_events().is_empty());
        let back = dense::gemm_nn(&q, &r);
        for j in 0..12 {
            for i in 0..500 {
                assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-10 * v.max_abs());
            }
        }
        // R upper triangular with positive diagonal.
        for i in 0..12 {
            assert!(r[(i, i)] > 0.0);
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn two_reduces_per_panel_like_pip2() {
        let v = test_matrix(300, 8);
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        let mut scheme = RandCholQr::new(SketchConfig::default(), 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        let before = basis.comm().stats().snapshot();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        let delta = basis.comm().stats().snapshot().since(&before);
        assert_eq!(delta.allreduces, 2, "sketch+polish must be 2 reduces");
    }

    #[test]
    fn survives_kappa_1e12_without_fallback() {
        // κ = 1e12 is far beyond the ~1e8 CholQR crossover; the sketched
        // factor must absorb it with zero remedial episodes and O(ε)
        // orthogonality.
        let v = testmat::logscaled_matrix(400, 8, 1e12, 5);
        let (q, _, scheme) = run(&v, 4, SketchConfig::default());
        let err = orthogonality_error(&q.view());
        assert!(err < 1e-12, "orthogonality error {err} at kappa 1e12");
        assert_eq!(
            scheme.fallback_count(),
            0,
            "sketched scheme must not fall back at kappa 1e12"
        );
    }

    #[test]
    fn rank_deficient_panel_reports_or_remediates_with_tagged_events() {
        // A duplicated column makes the panel exactly rank deficient: the
        // scheme must either report an error or succeed via the tagged
        // remedial path — never silently produce garbage.
        let mut v = test_matrix(300, 6);
        for i in 0..300 {
            let x = v[(i, 1)];
            v[(i, 4)] = x;
        }
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(6, 6);
        let mut scheme = RandCholQr::new(SketchConfig::default(), 6);
        scheme
            .orthogonalize_panel(&mut basis, 0..3, &mut r)
            .unwrap();
        match scheme.orthogonalize_panel(&mut basis, 3..6, &mut r) {
            Ok(()) => {
                assert!(
                    scheme
                        .fallback_events()
                        .iter()
                        .all(|e| e.stage == FallbackStage::SketchPrecondition),
                    "sketched remediation must carry the sketch stage tag"
                );
                assert!(!scheme.fallback_events().is_empty());
            }
            Err(e) => {
                let _ = e.to_string(); // reported, never silent
            }
        }
    }

    #[test]
    fn reset_clears_events_and_is_reusable() {
        let v = test_matrix(200, 8);
        let (_, _, mut scheme) = run(&v, 4, SketchConfig::default());
        scheme.reset();
        assert!(scheme.fallback_events().is_empty());
        let mut basis = DistMultiVector::from_matrix(SerialComm::new(), v.clone());
        let mut r = Matrix::zeros(8, 8);
        scheme
            .orthogonalize_panel(&mut basis, 0..4, &mut r)
            .unwrap();
        scheme
            .orthogonalize_panel(&mut basis, 4..8, &mut r)
            .unwrap();
        assert!(orthogonality_error(&basis.local().cols(0..8)) < 1e-12);
    }

    #[test]
    fn seed_changes_the_factors_but_not_correctness() {
        let v = testmat::logscaled_matrix(350, 9, 1e8, 2);
        let (q1, r1, _) = run(
            &v,
            3,
            SketchConfig {
                seed: 1,
                ..SketchConfig::default()
            },
        );
        let (q2, r2, _) = run(
            &v,
            3,
            SketchConfig {
                seed: 2,
                ..SketchConfig::default()
            },
        );
        assert!(orthogonality_error(&q1.view()) < 1e-12);
        assert!(orthogonality_error(&q2.view()) < 1e-12);
        // Different seeds steer through different sketches; the final R
        // factors still reconstruct the same input.
        for (q, r) in [(&q1, &r1), (&q2, &r2)] {
            let back = dense::gemm_nn(q, r);
            for j in 0..9 {
                for i in 0..350 {
                    assert!((back[(i, j)] - v[(i, j)]).abs() < 1e-8 * v.max_abs());
                }
            }
        }
    }
}
