//! Model-problem generators used in the paper's evaluation.
//!
//! * 2D Laplace on a 5-point stencil (Table II) and on a 9-point stencil
//!   (Table III / Figs. 10–13), on an `nx × ny` grid with Dirichlet
//!   boundary conditions;
//! * 3D Laplace on a 7-point stencil (`Laplace3D`, Table IV);
//! * a 3-dof-per-node elasticity-like operator on a 3D grid
//!   (`Elasticity3D`, Table IV) — a vector Laplacian with weak coupling
//!   between the displacement components, matching the size
//!   (`n = 3·nx·ny·nz`) and sparsity (≈ 5.7 nnz/row after boundary
//!   truncation) of the paper's structured elasticity problem.
//!
//! Every operator exists in two forms: a *row source* (`…Rows` struct
//! implementing [`RowSource`]) that produces any row on demand without
//! materializing the matrix — this is what the streamed distributed
//! assembly (`distsim::DistCsr::from_row_source`) consumes, keeping peak
//! per-rank memory at `O(nnz/P + halo)` — and the classic replicated
//! constructor, which is now just [`crate::rows::assemble`] over the row source
//! (so the two forms are bitwise identical by construction).

use crate::csr::Csr;
use crate::rows::{assemble, RowSource};

/// Row source of the 2D 5-point Laplace operator on an `nx × ny` grid
/// (Dirichlet boundaries), `n = nx·ny` unknowns.
#[derive(Debug, Clone, Copy)]
pub struct Laplace2d5ptRows {
    /// Grid points in the x direction.
    pub nx: usize,
    /// Grid points in the y direction.
    pub ny: usize,
}

impl RowSource for Laplace2d5ptRows {
    fn nrows(&self) -> usize {
        self.nx * self.ny
    }
    fn ncols(&self) -> usize {
        self.nx * self.ny
    }
    fn emit_row(&self, row: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        let (nx, ny) = (self.nx, self.ny);
        let i = row % nx;
        let j = row / nx;
        debug_assert!(j < ny);
        let mut push = |c: usize, v: f64| {
            cols.push(c);
            vals.push(v);
        };
        // Ascending column order: (i, j-1), (i-1, j), diag, (i+1, j), (i, j+1).
        if j > 0 {
            push(row - nx, -1.0);
        }
        if i > 0 {
            push(row - 1, -1.0);
        }
        push(row, 4.0);
        if i + 1 < nx {
            push(row + 1, -1.0);
        }
        if j + 1 < ny {
            push(row + nx, -1.0);
        }
    }
}

/// 2D Laplace operator on a 5-point stencil over an `nx × ny` grid
/// (Dirichlet boundaries), `n = nx·ny` unknowns.
pub fn laplace2d_5pt(nx: usize, ny: usize) -> Csr {
    assemble(&Laplace2d5ptRows { nx, ny })
}

/// Row source of the 2D 9-point Laplace operator on an `nx × ny` grid
/// (Dirichlet boundaries) — the operator of the paper's strong-scaling
/// study (Table III).
#[derive(Debug, Clone, Copy)]
pub struct Laplace2d9ptRows {
    /// Grid points in the x direction.
    pub nx: usize,
    /// Grid points in the y direction.
    pub ny: usize,
}

impl RowSource for Laplace2d9ptRows {
    fn nrows(&self) -> usize {
        self.nx * self.ny
    }
    fn ncols(&self) -> usize {
        self.nx * self.ny
    }
    fn emit_row(&self, row: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        let (nx, ny) = (self.nx, self.ny);
        let i = (row % nx) as i64;
        let j = (row / nx) as i64;
        // Row-major grid ordering: scanning dj then di visits columns in
        // ascending order, with the diagonal at (di, dj) = (0, 0).
        for dj in -1i64..=1 {
            for di in -1i64..=1 {
                let ii = i + di;
                let jj = j + dj;
                if ii < 0 || jj < 0 || ii as usize >= nx || jj as usize >= ny {
                    continue;
                }
                cols.push(ii as usize + (jj as usize) * nx);
                vals.push(if di == 0 && dj == 0 { 8.0 } else { -1.0 });
            }
        }
    }
}

/// 2D Laplace operator on a 9-point stencil over an `nx × ny` grid
/// (Dirichlet boundaries), `n = nx·ny` unknowns.  This is the operator of
/// the paper's strong-scaling study (Table III).
pub fn laplace2d_9pt(nx: usize, ny: usize) -> Csr {
    assemble(&Laplace2d9ptRows { nx, ny })
}

/// Row source of the 3D 7-point Laplace operator on an `nx × ny × nz` grid
/// (Dirichlet boundaries), `n = nx·ny·nz` unknowns (`Laplace3D` in
/// Table IV).
#[derive(Debug, Clone, Copy)]
pub struct Laplace3d7ptRows {
    /// Grid points in the x direction.
    pub nx: usize,
    /// Grid points in the y direction.
    pub ny: usize,
    /// Grid points in the z direction.
    pub nz: usize,
}

impl RowSource for Laplace3d7ptRows {
    fn nrows(&self) -> usize {
        self.nx * self.ny * self.nz
    }
    fn ncols(&self) -> usize {
        self.nx * self.ny * self.nz
    }
    fn emit_row(&self, row: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let i = row % nx;
        let j = (row / nx) % ny;
        let k = row / (nx * ny);
        debug_assert!(k < nz);
        let mut push = |c: usize, v: f64| {
            cols.push(c);
            vals.push(v);
        };
        // Ascending column order: k-1, j-1, i-1, diag, i+1, j+1, k+1.
        if k > 0 {
            push(row - nx * ny, -1.0);
        }
        if j > 0 {
            push(row - nx, -1.0);
        }
        if i > 0 {
            push(row - 1, -1.0);
        }
        push(row, 6.0);
        if i + 1 < nx {
            push(row + 1, -1.0);
        }
        if j + 1 < ny {
            push(row + nx, -1.0);
        }
        if k + 1 < nz {
            push(row + nx * ny, -1.0);
        }
    }
}

/// 3D Laplace operator on a 7-point stencil over an `nx × ny × nz` grid
/// (Dirichlet boundaries), `n = nx·ny·nz` unknowns (`Laplace3D` in
/// Table IV).
pub fn laplace3d_7pt(nx: usize, ny: usize, nz: usize) -> Csr {
    assemble(&Laplace3d7ptRows { nx, ny, nz })
}

/// Row source of the 3-dof-per-node elasticity-like operator on an
/// `nx × ny × nz` grid, `n = 3·nx·ny·nz` unknowns (`Elasticity3D` in
/// Table IV).
#[derive(Debug, Clone, Copy)]
pub struct Elasticity3dRows {
    /// Grid nodes in the x direction.
    pub nx: usize,
    /// Grid nodes in the y direction.
    pub ny: usize,
    /// Grid nodes in the z direction.
    pub nz: usize,
}

/// Inter-component coupling of the elasticity-like operator.
const ELASTICITY_GAMMA: f64 = 0.25;

impl RowSource for Elasticity3dRows {
    fn nrows(&self) -> usize {
        3 * self.nx * self.ny * self.nz
    }
    fn ncols(&self) -> usize {
        3 * self.nx * self.ny * self.nz
    }
    fn emit_row(&self, row: usize, cols: &mut Vec<usize>, vals: &mut Vec<f64>) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let gamma = ELASTICITY_GAMMA;
        let node = row / 3;
        let c = row % 3;
        let base = 3 * node;
        let i = node % nx;
        let j = (node / nx) % ny;
        let k = node / (nx * ny);
        debug_assert!(k < nz);
        let mut push = |col: usize, v: f64| {
            cols.push(col);
            vals.push(v);
        };
        // Spatial neighbours sit 3, 3·nx or 3·nx·ny columns away; the
        // same-node block spans `base..base + 3` (within 2 of the row), so
        // ascending order is: k-1, j-1, i-1, node block, i+1, j+1, k+1.
        if k > 0 {
            push(row - 3 * nx * ny, -1.0);
        }
        if j > 0 {
            push(row - 3 * nx, -1.0);
        }
        if i > 0 {
            push(row - 3, -1.0);
        }
        for c2 in 0..3 {
            if c2 == c {
                // Diagonal: Laplacian weight + coupling shift to keep SPD.
                push(base + c2, 6.0 + 2.0 * gamma);
            } else {
                // Couple to the other two components of the same node.
                push(base + c2, -gamma);
            }
        }
        if i + 1 < nx {
            push(row + 3, -1.0);
        }
        if j + 1 < ny {
            push(row + 3 * nx, -1.0);
        }
        if k + 1 < nz {
            push(row + 3 * nx * ny, -1.0);
        }
    }
}

/// 3-dof-per-node elasticity-like operator on an `nx × ny × nz` grid,
/// `n = 3·nx·ny·nz` unknowns (`Elasticity3D` in Table IV).
///
/// Each displacement component carries a 7-point vector-Laplacian stencil
/// and the three components of a node are weakly coupled (off-diagonal
/// blocks `γ`), giving an SPD operator with roughly the nnz/row the paper
/// reports for its structured elasticity problem.
pub fn elasticity3d(nx: usize, ny: usize, nz: usize) -> Csr {
    assemble(&Elasticity3dRows { nx, ny, nz })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace2d_5pt_dimensions_and_row_sums() {
        let a = laplace2d_5pt(4, 3);
        assert_eq!(a.nrows(), 12);
        assert_eq!(a.ncols(), 12);
        // Interior row: 5 entries summing to 0; boundary rows sum > 0.
        let (cols, vals) = a.row(5); // (1,1) is interior for 4x3
        assert_eq!(cols.len(), 5);
        assert_eq!(vals.iter().sum::<f64>(), 0.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn laplace2d_5pt_matches_paper_density() {
        // nnz/n ≈ 5 for large grids.
        let a = laplace2d_5pt(50, 50);
        let density = a.nnz() as f64 / a.nrows() as f64;
        assert!(density > 4.8 && density <= 5.0, "density {density}");
    }

    #[test]
    fn laplace2d_9pt_interior_row_has_nine_entries() {
        let a = laplace2d_9pt(5, 5);
        let (cols, vals) = a.row(12); // centre of 5x5
        assert_eq!(cols.len(), 9);
        assert_eq!(vals.iter().sum::<f64>(), 0.0);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn laplace3d_dimensions_and_symmetry() {
        let a = laplace3d_7pt(4, 3, 2);
        assert_eq!(a.nrows(), 24);
        assert!(a.is_symmetric(0.0));
        let density = laplace3d_7pt(20, 20, 20).nnz() as f64 / 8000.0;
        assert!(density > 6.5 && density <= 7.0, "density {density}");
    }

    #[test]
    fn laplace_matrices_are_positive_definite_small() {
        // All eigenvalues of the dense copy must be positive.
        let a = laplace2d_5pt(4, 4).to_dense();
        let vals = dense::sym_eigvals(&a);
        assert!(vals[0] > 0.0, "smallest eigenvalue {}", vals[0]);
        let b = laplace3d_7pt(3, 3, 3).to_dense();
        let valsb = dense::sym_eigvals(&b);
        assert!(valsb[0] > 0.0);
    }

    #[test]
    fn elasticity_dimensions_coupling_and_spd() {
        let a = elasticity3d(3, 3, 3);
        assert_eq!(a.nrows(), 81);
        assert!(a.is_symmetric(1e-14));
        let vals = dense::sym_eigvals(&a.to_dense());
        assert!(
            vals[0] > 0.0,
            "elasticity operator must be SPD, min eig {}",
            vals[0]
        );
        // Each row couples to the two other components of its node.
        let (cols, _) = a.row(0);
        assert!(cols.contains(&1) && cols.contains(&2));
    }

    #[test]
    fn elasticity_density_close_to_paper() {
        // Paper reports nnz/n = 5.7 for Elasticity3D with n = 3*100^3; for a
        // smaller grid the boundary effect is stronger, so just check the
        // plausible range (interior rows have 9 entries: 7-pt + 2 couplings).
        let a = elasticity3d(10, 10, 10);
        let density = a.nnz() as f64 / a.nrows() as f64;
        assert!(density > 7.0 && density < 9.5, "density {density}");
    }

    #[test]
    fn row_sources_emit_sorted_columns_on_every_row() {
        let sources: Vec<Box<dyn RowSource>> = vec![
            Box::new(Laplace2d5ptRows { nx: 7, ny: 5 }),
            Box::new(Laplace2d9ptRows { nx: 6, ny: 4 }),
            Box::new(Laplace3d7ptRows {
                nx: 4,
                ny: 3,
                nz: 3,
            }),
            Box::new(Elasticity3dRows {
                nx: 3,
                ny: 2,
                nz: 2,
            }),
        ];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for s in &sources {
            for i in 0..s.nrows() {
                cols.clear();
                vals.clear();
                s.emit_row(i, &mut cols, &mut vals);
                assert_eq!(cols.len(), vals.len());
                assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} not sorted");
                assert!(cols.iter().all(|&c| c < s.ncols()));
            }
        }
    }

    #[test]
    fn degenerate_grids_still_assemble() {
        // Single-column and single-row grids exercise the boundary guards.
        assert_eq!(laplace2d_5pt(1, 6).nrows(), 6);
        assert_eq!(laplace2d_9pt(6, 1).nrows(), 6);
        assert_eq!(laplace3d_7pt(1, 1, 5).nrows(), 5);
        assert_eq!(elasticity3d(1, 1, 2).nrows(), 6);
    }
}
