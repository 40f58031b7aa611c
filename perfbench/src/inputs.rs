//! Workload definitions: operators, solver variants, and seeded inputs.

use blockortho::OrthoKind;
use distsim::{Communicator, DistCsr, SketchConfig, SKETCH_NNZ_PER_ROW};
use perfmodel::SchemeKind;
use sparse::{assemble, Csr, Elasticity3dRows, Laplace2d9ptRows, RowPartition};
use ssgmres::{GmresConfig, GuardPolicy, StepPolicy};
use std::sync::Arc;

/// Solver variants, in the order every workload runs and reports them.
pub const VARIANTS: [&str; 6] = [
    "gmres_cgs2",
    "bcgs2_cholqr2",
    "bcgs_pip2",
    "two_stage",
    "two_stage_1thread",
    "two_stage_sketch",
];

/// Index of the paper's method in [`VARIANTS`].
pub const TWO_STAGE: usize = 3;
/// Index of the sketched two-stage variant in [`VARIANTS`].
pub const SKETCH: usize = 5;

/// Variants timed end to end.  The sketched variant's iteration count
/// moves with the right-hand side by up to 2× (1350 to 2430 iterations on
/// `laplace2d` draws), so its time to solution is not a steady figure;
/// it is reported per layer from the traced run instead.
pub const TIMED: [usize; 5] = [0, 1, 2, 3, 4];

/// Variants whose orthogonalization scheme is distinct (the `_1thread`
/// row reuses the two-stage scheme); reduce and word counts are reported
/// once per scheme.
pub const SCHEMES: [usize; 5] = [0, 1, 2, 3, 5];

pub const WORKLOADS: [&str; 3] = ["laplace2d-1rank", "laplace2d-2rank", "elasticity3d-batch4"];

/// Restart length `m` of every variant.
pub const RESTART: usize = 60;
/// Second-stage block size of the two-stage schemes, in columns.
pub const BIG_PANEL: usize = 30;

#[derive(Clone, Copy, Debug)]
pub enum Operator {
    Laplace(Laplace2d9ptRows),
    Elasticity(Elasticity3dRows),
}

impl Operator {
    pub fn assemble(&self) -> Csr {
        match self {
            Operator::Laplace(rows) => assemble(rows),
            Operator::Elasticity(rows) => assemble(rows),
        }
    }

    pub fn distribute(&self, comm: Arc<dyn Communicator>, part: &RowPartition) -> DistCsr {
        match self {
            Operator::Laplace(rows) => DistCsr::from_row_source(comm, part, rows),
            Operator::Elasticity(rows) => DistCsr::from_row_source(comm, part, rows),
        }
    }
}

/// One workload: the operator, how it is distributed, and how it is solved.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub op: Operator,
    /// Thread-backed ranks (1 = `SerialComm`).
    pub ranks: usize,
    /// Right-hand sides per solve call; above 1 they go through the
    /// batched service as one block.
    pub rhs: usize,
    /// Requested step size of the s-step variants (CGS2 always runs s = 1).
    pub step: usize,
    pub tol: f64,
    /// Batch workload: self-rescuing step controller and all guards.
    pub guarded_auto: bool,
    /// Step at which one restart cycle of each scheme is replayed: the
    /// fixed step, or under the controller the floor its rescues reach
    /// (12 → 6 → 3).  The replay has no rescue, and at 12 or 6 the raw
    /// matrix powers of the batch operator break CholQR or need fallbacks
    /// on some seeds, which would change the counts being joined.
    pub replay_step: usize,
}

pub fn spec(name: &str) -> Option<Spec> {
    let laplace = Operator::Laplace(Laplace2d9ptRows { nx: 200, ny: 200 });
    let base = Spec {
        name: "",
        op: laplace,
        ranks: 1,
        rhs: 1,
        step: 5,
        tol: 1e-6,
        guarded_auto: false,
        replay_step: 5,
    };
    match name {
        "laplace2d-1rank" => Some(Spec {
            name: "laplace2d-1rank",
            ..base
        }),
        "laplace2d-2rank" => Some(Spec {
            name: "laplace2d-2rank",
            ranks: 2,
            ..base
        }),
        // 16³ rather than 24³: one round of the five timed variants takes
        // ~7 s instead of ~21 s, so a run covers several right-hand-side
        // draws, and the step controller's seed-dependent path (rescue
        // to 6 or to 3) averages out instead of deciding the run.
        "elasticity3d-batch4" => Some(Spec {
            name: "elasticity3d-batch4",
            op: Operator::Elasticity(Elasticity3dRows {
                nx: 16,
                ny: 16,
                nz: 16,
            }),
            rhs: 4,
            step: 12,
            tol: 1e-8,
            guarded_auto: true,
            replay_step: 3,
            ..base
        }),
        _ => None,
    }
}

impl Spec {
    /// Step size variant `v` runs at (standard GMRES is s = 1).
    pub fn step_of(&self, v: usize) -> usize {
        if v == 0 {
            1
        } else {
            self.step
        }
    }

    /// Step of variant `v`'s replayed cycle.
    pub fn replay_step_of(&self, v: usize) -> usize {
        self.step_of(v).min(self.replay_step)
    }

    /// Whether variant `v` pins the `parkit` pool to one lane (per rank).
    pub fn pinned(v: usize) -> bool {
        VARIANTS[v] == "two_stage_1thread"
    }

    pub fn ortho(v: usize) -> OrthoKind {
        match VARIANTS[v] {
            "gmres_cgs2" => OrthoKind::Cgs2,
            "bcgs2_cholqr2" => OrthoKind::Bcgs2CholQr2,
            "bcgs_pip2" => OrthoKind::BcgsPip2,
            "two_stage" | "two_stage_1thread" => OrthoKind::TwoStage {
                big_panel: BIG_PANEL,
            },
            "two_stage_sketch" => OrthoKind::TwoStageSketched {
                big_panel: BIG_PANEL,
            },
            other => unreachable!("unknown variant {other}"),
        }
    }

    /// The closed-form model of variant `v`'s scheme at this workload's
    /// block width (`rhs` columns per block step).
    pub fn scheme(&self, v: usize) -> SchemeKind {
        let rows = SketchConfig::default().rows_per_col * self.rhs * (RESTART + 1);
        match VARIANTS[v] {
            "gmres_cgs2" => SchemeKind::StandardCgs2,
            "bcgs2_cholqr2" => SchemeKind::Bcgs2CholQr2,
            "bcgs_pip2" => SchemeKind::BcgsPip2,
            "two_stage" | "two_stage_1thread" => SchemeKind::TwoStage { bs: BIG_PANEL },
            "two_stage_sketch" => SchemeKind::TwoStageSketched {
                bs: BIG_PANEL,
                rows,
                nnz: SKETCH_NNZ_PER_ROW,
            },
            other => unreachable!("unknown variant {other}"),
        }
    }

    pub fn config(&self, v: usize) -> GmresConfig {
        GmresConfig {
            restart: RESTART,
            step_size: self.step_of(v),
            tol: self.tol,
            ortho: Self::ortho(v),
            step_policy: if self.guarded_auto {
                StepPolicy::auto()
            } else {
                StepPolicy::Fixed
            },
            guards: if self.guarded_auto {
                GuardPolicy::all()
            } else {
                GuardPolicy::default()
            },
            ..GmresConfig::default()
        }
    }

    /// Bytes a solve touches, computed (not measured): the operator in
    /// CSR form plus the Krylov basis of `rhs·(m + 1)` columns, per rank.
    pub fn working_set_bytes(&self, a: &Csr) -> usize {
        let n = a.nrows() / self.ranks;
        let csr = (a.nnz() * 16 + (a.nrows() + 1) * 8) / self.ranks;
        csr + self.rhs * (RESTART + 1) * n * 8
    }
}

/// `splitmix64` finalizer: a counter-based generator, so any entry of the
/// inputs regenerates from `(seed, index)` alone.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The exact solution `x★` of right-hand side `col`: `1 + 0.1·u` with `u`
/// uniform in `[-1, 1)` drawn from the seed.  The smooth part makes every
/// solve take several restart cycles; the seeded part makes each seed a
/// different right-hand side.
pub fn xstar(seed: u64, col: usize, n: usize) -> Vec<f64> {
    let stream = mix(seed ^ mix(col as u64 + 1));
    (0..n)
        .map(|i| {
            let u = (mix(stream ^ i as u64) >> 11) as f64 / (1u64 << 53) as f64;
            1.0 + 0.1 * (2.0 * u - 1.0)
        })
        .collect()
}
