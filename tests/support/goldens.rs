//! Committed golden fingerprints of single-RHS `SStepGmres::solve` runs.
//!
//! A fingerprint is one text line per (backend, case): the FNV-1a hash of
//! the solution bits and of every per-cycle history, plus the literal
//! iteration/restart/SpMV/preconditioner/fallback counts and the full
//! `comm_total`/`comm_ortho` ledgers of every rank.  The lines live in
//! `tests/goldens/solve_fingerprints.txt`; they pin the solver's behaviour
//! bit for bit, so a refactor of the cycle loop can prove it moved nothing.
//!
//! Regenerate (only after a change that is *meant* to move bits, on an
//! AVX2+FMA host so both backends' rows are written):
//!
//! ```sh
//! cargo test --release --test solve_goldens -- --ignored print_goldens
//! ```
//!
//! Every case is small enough that each dense kernel reduces over a single
//! row chunk, so the fingerprints are independent of the worker-thread
//! count.

#![allow(dead_code)] // each test binary uses a different subset

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use dense::SimdLevel;
use distsim::{
    run_ranks, CommStatsSnapshot, Communicator, DistCsr, FaultKind, FaultPlan, FaultyComm,
    GuardPolicy, OpKind, SerialComm, Target,
};
use sparse::{block_row_partition, elasticity3d, laplace2d_9pt, Csr};
use ssgmres::{
    BasisStrategy, CycleVerdict, GmresConfig, Identity, OrthoKind, SStepGmres, SolveResult,
    StepPolicy,
};

/// Path of the committed goldens, relative to the repository root.
pub const GOLDEN_PATH: &str = "tests/goldens/solve_fingerprints.txt";

const GOLDEN_TEXT: &str = include_str!("../goldens/solve_fingerprints.txt");

/// The system of a pinned solve.
pub enum Problem {
    /// 9-point Laplacian on an `nx × nx` grid with [`rhs_for`]`(seed)`.
    Laplace9 { nx: usize, seed: usize },
    /// 9-point Laplacian with the unit-norm `A·1` right-hand side of the
    /// fault-tolerance battery.
    Laplace9Unit { nx: usize },
    /// 3-D elasticity on an `n³` grid with the `A·1` right-hand side.
    Elasticity3d { n: usize },
}

impl Problem {
    fn build(&self) -> (Csr, Vec<f64>) {
        match *self {
            Problem::Laplace9 { nx, seed } => {
                let a = laplace2d_9pt(nx, nx);
                let b = rhs_for(a.nrows(), seed);
                (a, b)
            }
            Problem::Laplace9Unit { nx } => {
                let a = laplace2d_9pt(nx, nx);
                let mut b = a.spmv_alloc(&vec![1.0; a.nrows()]);
                let norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
                for v in &mut b {
                    *v /= norm;
                }
                (a, b)
            }
            Problem::Elasticity3d { n } => {
                let a = elasticity3d(n, n, n);
                let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
                (a, b)
            }
        }
    }
}

/// One pinned solve: a system and a config, distributed over `nranks`
/// simulated ranks (1 = `SerialComm`), optionally with every rank's
/// communicator wrapped in a [`FaultyComm`] driven by `faults`.
pub struct Case {
    pub key: String,
    pub problem: Problem,
    pub nranks: usize,
    pub config: GmresConfig,
    pub faults: Option<FaultPlan>,
}

/// The orthogonalization schemes the matrix sweeps.
pub fn schemes() -> [OrthoKind; 5] {
    [
        OrthoKind::Bcgs2CholQr2,
        OrthoKind::BcgsPip2,
        OrthoKind::TwoStage { big_panel: 30 },
        OrthoKind::RandCholQr,
        OrthoKind::TwoStageSketched { big_panel: 10 },
    ]
}

/// The basis strategies the matrix sweeps.
pub fn bases() -> [BasisStrategy; 2] {
    [
        BasisStrategy::Monomial,
        BasisStrategy::Adaptive(Default::default()),
    ]
}

fn compact(label: String) -> String {
    label.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Key of one matrix cell.
pub fn matrix_key(
    ortho: OrthoKind,
    basis: &BasisStrategy,
    auto: bool,
    guards: bool,
    nranks: usize,
) -> String {
    let basis = match basis {
        BasisStrategy::Monomial => "monomial",
        BasisStrategy::Adaptive(_) => "adaptive",
        _ => unreachable!("the matrix sweeps monomial and adaptive only"),
    };
    format!(
        "matrix/{}/{basis}/{}/{}/r{nranks}",
        compact(format!("{ortho:?}")),
        if auto { "auto" } else { "fixed" },
        if guards { "guards" } else { "noguards" },
    )
}

/// The config of one matrix cell: 18×18 9-point Laplacian, `m = 30`,
/// `s = 5`, `tol = 1e-9`.
pub fn matrix_config(
    ortho: OrthoKind,
    basis: &BasisStrategy,
    auto: bool,
    guards: bool,
) -> GmresConfig {
    GmresConfig {
        restart: 30,
        step_size: 5,
        tol: 1e-9,
        ortho,
        basis: basis.clone(),
        step_policy: if auto {
            StepPolicy::auto()
        } else {
            StepPolicy::Fixed
        },
        guards: if guards {
            GuardPolicy::all()
        } else {
            GuardPolicy::default()
        },
        ..GmresConfig::default()
    }
}

/// Schemes × bases × {Fixed, Auto} × guards {off, on} × ranks {1, 2, 3, 4}.
pub fn matrix_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for ortho in schemes() {
        for basis in bases() {
            for auto in [false, true] {
                for guards in [false, true] {
                    for nranks in 1..=4 {
                        cases.push(Case {
                            key: matrix_key(ortho, &basis, auto, guards, nranks),
                            problem: Problem::Laplace9 { nx: 18, seed: 0 },
                            nranks,
                            config: matrix_config(ortho, &basis, auto, guards),
                            faults: None,
                        });
                    }
                }
            }
        }
    }
    cases
}

/// The auto-step + guards case of `tests/block_equivalence.rs`.
pub fn auto_guards_case() -> Case {
    Case {
        key: "k1/auto-guards/r1".into(),
        problem: Problem::Laplace9 { nx: 16, seed: 3 },
        nranks: 1,
        faults: None,
        config: GmresConfig {
            restart: 24,
            step_size: 6,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 12 },
            step_policy: StepPolicy::auto(),
            guards: GuardPolicy {
                gram_screen: true,
                agreement: true,
                ..GuardPolicy::default()
            },
            ..GmresConfig::default()
        },
    }
}

/// The thread-width case of `tests/block_equivalence.rs`.
pub fn threads_case() -> Case {
    Case {
        key: "k1/threads/r1".into(),
        problem: Problem::Laplace9 { nx: 16, seed: 1 },
        nranks: 1,
        faults: None,
        config: GmresConfig {
            restart: 24,
            step_size: 4,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 24 },
            ..GmresConfig::default()
        },
    }
}

/// The rank-count case of `tests/block_equivalence.rs` (goldens exist for
/// 1..=4 ranks).
pub fn ranks_case(nranks: usize) -> Case {
    Case {
        key: format!("k1/ranks/r{nranks}"),
        problem: Problem::Laplace9 { nx: 18, seed: 2 },
        nranks,
        faults: None,
        config: GmresConfig {
            restart: 24,
            step_size: 4,
            tol: 1e-9,
            ortho: OrthoKind::TwoStage { big_panel: 24 },
            ..GmresConfig::default()
        },
    }
}

/// Cases that drive the recovery ladders: a monomial `s = 10` panel that
/// breaks down (Fixed gives up; Auto rescues by shrinking the step and
/// harvesting shifts), and injected faults repaired in place (a Gram bit
/// flip, a failed collective, a residual-norm bit flip) or by rolling the
/// cycle back (a dropped halo message).
pub fn stress_cases() -> Vec<Case> {
    let elasticity = |auto: bool, nranks: usize| Case {
        key: format!(
            "stress/elasticity3d-s10/{}/r{nranks}",
            if auto { "auto" } else { "fixed" }
        ),
        problem: Problem::Elasticity3d { n: 5 },
        nranks,
        config: GmresConfig {
            restart: 32,
            step_size: 10,
            tol: 1e-8,
            ortho: OrthoKind::TwoStage { big_panel: 32 },
            step_policy: if auto {
                StepPolicy::auto()
            } else {
                StepPolicy::Fixed
            },
            ..GmresConfig::default()
        },
        faults: None,
    };
    let faulted = |name: &str, guards: GuardPolicy, target: Target, kind: FaultKind| Case {
        key: format!("stress/{name}/r2"),
        problem: Problem::Laplace9Unit { nx: 16 },
        nranks: 2,
        config: GmresConfig {
            restart: 16,
            step_size: 4,
            tol: 1e-8,
            max_iters: 20_000,
            ortho: OrthoKind::BcgsPip2,
            guards,
            ..GmresConfig::default()
        },
        faults: Some(FaultPlan::none().with(target, kind)),
    };
    vec![
        elasticity(false, 1),
        elasticity(true, 1),
        elasticity(true, 2),
        faulted(
            "gram-bitflip",
            GuardPolicy::all(),
            Target::nth(OpKind::Allreduce, 0)
                .on_rank(0)
                .in_phase("ortho")
                .with_min_words(16),
            FaultKind::BitFlip {
                word: Some(5),
                bit: 62,
            },
        ),
        faulted(
            "collective-fail",
            GuardPolicy::all(),
            Target::nth(OpKind::Allreduce, 1)
                .in_phase("ortho")
                .with_min_words(16),
            FaultKind::OpFail,
        ),
        faulted(
            "norm-bitflip-unguarded",
            GuardPolicy::default(),
            Target::nth(OpKind::Allreduce, 1).in_phase("residual"),
            FaultKind::BitFlip {
                word: Some(0),
                bit: 58,
            },
        ),
        faulted(
            "norm-bitflip-guarded",
            GuardPolicy::all(),
            Target::nth(OpKind::Allreduce, 1).in_phase("residual"),
            FaultKind::BitFlip {
                word: Some(0),
                bit: 58,
            },
        ),
        faulted(
            "dropped-halo",
            GuardPolicy {
                halo_timeout_ms: 100,
                ..GuardPolicy::all()
            },
            Target::nth(OpKind::Send, 0).on_rank(0).in_phase("mpk"),
            FaultKind::DropMessage,
        ),
    ]
}

/// Every case with a committed golden.
pub fn all_cases() -> Vec<Case> {
    let mut cases = matrix_cases();
    cases.push(auto_guards_case());
    cases.push(threads_case());
    cases.extend((1..=4).map(ranks_case));
    cases.extend(stress_cases());
    cases
}

/// Right-hand side of seed `seed` (the block-equivalence battery's).
pub fn rhs_for(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + seed * 13) % 17) as f64 * 0.25 - 2.0)
        .collect()
}

/// Run `case` through `SStepGmres::solve`: one `(x_local, result)` per rank.
pub fn run_case(case: &Case) -> Vec<(Vec<f64>, SolveResult)> {
    let (a, b) = case.problem.build();
    let part = block_row_partition(a.nrows(), case.nranks);
    let solve_on = |comm: Arc<dyn Communicator>| {
        let (lo, hi) = part.range(comm.rank());
        let comm = match &case.faults {
            Some(plan) => FaultyComm::wrap(comm, plan.clone()),
            None => comm,
        };
        let dist = DistCsr::from_global(comm, &a, &part);
        let mut x = vec![0.0; hi - lo];
        let r = SStepGmres::new(case.config.clone()).solve(&dist, &Identity, &b[lo..hi], &mut x);
        (x, r)
    };
    if case.nranks == 1 && case.faults.is_none() {
        vec![solve_on(SerialComm::new())]
    } else {
        run_ranks(case.nranks, solve_on)
    }
}

/// 64-bit FNV-1a: stable across platforms and releases (unlike
/// `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of one rank's per-cycle record: relres/step/shift/health
/// histories, the final residual, the last harvest and the breakdown.
/// `CycleHealth::kappa_per_col` is deliberately outside the fingerprint.
fn history_hash(r: &SolveResult) -> u64 {
    let mut h = Fnv::new();
    h.f64s(&r.relres_history);
    h.f64(r.final_relres);
    h.u64(r.step_history.len() as u64);
    for &s in &r.step_history {
        h.u64(s as u64);
    }
    h.u64(r.shift_history.len() as u64);
    for shifts in &r.shift_history {
        h.f64s(shifts);
    }
    h.u64(r.health_history.len() as u64);
    for c in &r.health_history {
        h.u64(match c.verdict {
            CycleVerdict::Clean => 0,
            CycleVerdict::Distressed => 1,
            CycleVerdict::Breakdown => 2,
        });
        h.f64(c.kappa_est);
    }
    match &r.last_harvest {
        Some(shifts) => h.f64s(shifts),
        None => h.u64(u64::MAX),
    }
    h.bytes(r.breakdown.as_deref().unwrap_or("").as_bytes());
    h.finish()
}

/// Every counter of a communication ledger, literally.
fn ledger(c: &CommStatsSnapshot) -> String {
    let mut s = format!(
        "{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
        c.allreduces,
        c.allreduce_words,
        c.broadcasts,
        c.broadcast_words,
        c.allgathers,
        c.allgather_words,
        c.p2p_messages,
        c.p2p_words,
        c.barriers,
        c.allreduce_retries,
        c.allreduce_retry_words
    );
    for p in &c.p2p_peers {
        let _ = write!(s, "@{}:{}:{}", p.peer, p.messages, p.words);
    }
    s
}

/// The fingerprint of one solve over all its ranks (rank order).
pub fn fingerprint(ranks: &[(Vec<f64>, SolveResult)]) -> String {
    let mut x = Fnv::new();
    for (xl, _) in ranks {
        for &v in xl {
            x.f64(v);
        }
    }
    let mut line = format!("x={:016x}", x.finish());
    for (rank, (_, r)) in ranks.iter().enumerate() {
        let _ = write!(
            line,
            " | r{rank} conv={} it={} rs={} spmv={} pc={} fb={} resc={} faults={}/{}/{} hist={:016x} total={} ortho={}",
            r.converged,
            r.iterations,
            r.restarts,
            r.spmv_count,
            r.precond_count,
            r.ortho_fallbacks,
            r.rescues,
            r.faults_detected,
            r.faults_recovered,
            r.faults_unrecovered,
            history_hash(r),
            ledger(&r.comm_total),
            ledger(&r.comm_ortho),
        );
    }
    line
}

/// Label of the active SIMD backend, as used in the golden file.
pub fn backend_label(level: SimdLevel) -> &'static str {
    match level {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Avx2 => "avx2",
    }
}

/// The backends this host can run: scalar always, AVX2+FMA where present.
pub fn available_backends() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    dense::set_simd_override(Some(SimdLevel::Avx2));
    if dense::simd_level() == SimdLevel::Avx2 {
        levels.push(SimdLevel::Avx2);
    }
    dense::set_simd_override(None);
    levels
}

/// The committed goldens, keyed by `"{backend} {case key}"`.
pub fn goldens() -> HashMap<String, String> {
    GOLDEN_TEXT
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, fp) = l
                .split_once(" x=")
                .expect("golden line: `<backend> <key> x=...`");
            (key.to_string(), format!("x={fp}"))
        })
        .collect()
}

/// Assert that `ranks` (the result of `case` on the currently active
/// backend) reproduces its committed golden.
pub fn assert_golden(key: &str, ranks: &[(Vec<f64>, SolveResult)]) {
    let full_key = format!("{} {key}", backend_label(dense::simd_level()));
    let goldens = goldens();
    let want = goldens
        .get(&full_key)
        .unwrap_or_else(|| panic!("no committed golden for `{full_key}` in {GOLDEN_PATH}"));
    assert_eq!(&fingerprint(ranks), want, "{full_key}: fingerprint moved");
}
