//! The repository benchmark: time to solution of the paper's solver
//! variants on three workloads, with per-layer attribution.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload laplace2d-2rank --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (each a closed loop with one client: the next solve is issued
//! when the previous one has returned):
//!
//! * `laplace2d-1rank` — 9-point Laplace 200×200 on `SerialComm`.  Global
//!   reduces are free in-process, so `dense` and `sparse` do the work: the
//!   workload that bypasses the paper's mechanism.
//! * `laplace2d-2rank` — the same operator on two thread-backed ranks, where
//!   reduces and halo exchanges are real rendezvous and the `parkit`
//!   scoped-spawn fallback fires.
//! * `elasticity3d-batch4` — 3D elasticity 16³ with four right-hand sides
//!   submitted together through `BatchedSolver`: the block path, the step
//!   controller, the guards and the service.
//!
//! Every workload runs the same six solver variants and reports the same
//! metrics.  With `--trace 0` the run times five of them with tracing off,
//! round by round, each round on a fresh draw of right-hand sides from the
//! seed, and prints the end-to-end metrics (medians over the rounds).  With
//! `--trace 1` it solves all six on the seed's first draw untraced and
//! traced, replays one restart cycle of each orthogonalization, times
//! single kernels, and prints the per-layer metrics.  Every solve is
//! checked independently.  The last line of standard output is one JSON
//! object.

mod inputs;
mod layers;
mod ranks;

use dense::Matrix;
use inputs::{Spec, BIG_PANEL, RESTART, SCHEMES, SKETCH, TIMED, TWO_STAGE, VARIANTS, WORKLOADS};
use layers::median;
use perfmodel::{
    block_ortho_cycle_words, block_ortho_reduce_count, ortho_cycle_words, ortho_reduce_count,
};
use ranks::{Job, Ranks, Reply, Summary};
use sparse::Csr;
use ssgmres::{BatchConfig, BatchedSolver, SolveTicket};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("whole seconds in 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = inputs::spec(&workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        )
    })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One draw of generated inputs: the exact solutions `x★` and the
/// right-hand sides `b = A·x★` of one solve call.
struct Draw {
    index: usize,
    xstar: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
    /// `b` as one `n × rhs` block.
    block: Arc<Matrix>,
}

/// Draw `index` of the seed's stream of right-hand sides.
fn draw(spec: &Spec, a: &Csr, seed: u64, index: usize) -> Draw {
    let n = a.nrows();
    let xstar: Vec<Vec<f64>> = (0..spec.rhs)
        .map(|j| inputs::xstar(seed, index * spec.rhs + j, n))
        .collect();
    let b: Vec<Vec<f64>> = xstar.iter().map(|x| a.spmv_alloc(x)).collect();
    let block = Arc::new(Matrix::from_fn(n, spec.rhs, |i, j| b[j][i]));
    Draw {
        index,
        xstar,
        b,
        block,
    }
}

/// How timed solves are issued: straight into the solver on a group of
/// ranks, or as one batch through the service (one service per variant).
enum Engine {
    Direct(Ranks),
    Service(Vec<BatchedSolver>),
}

fn start_services(spec: &Spec, a: &Csr) -> Vec<BatchedSolver> {
    (0..VARIANTS.len())
        .map(|v| {
            BatchedSolver::new(
                a.clone(),
                spec.config(v),
                BatchConfig {
                    max_batch: spec.rhs,
                    linger: Duration::ZERO,
                },
            )
        })
        .collect()
}

/// Everything before the first solve: operator generation, the first
/// right-hand sides, distributed assembly (or service start).
fn setup(spec: &Spec, seed: u64) -> (Csr, Draw, Engine) {
    let a = spec.op.assemble();
    let d = draw(spec, &a, seed, 0);
    let engine = if spec.rhs > 1 {
        Engine::Service(start_services(spec, &a))
    } else {
        Engine::Direct(Ranks::start(spec, d.block.clone()))
    };
    (a, d, engine)
}

struct Solve {
    secs: f64,
    /// Solution columns.
    x: Vec<Vec<f64>>,
    /// Rank 0's report (direct solves only).
    summary: Option<Summary>,
    /// Right-hand sides per batch (service solves only).
    batch_size: usize,
}

fn solve_direct(ranks: &Ranks, d: &Draw, v: usize) -> Solve {
    let replies = ranks.run(|| Job::Solve {
        v,
        b: d.block.clone(),
    });
    let mut secs = 0.0f64;
    let mut locals = Vec::new();
    let mut summary = None;
    for reply in replies {
        let Reply::Solved {
            secs: s,
            x_local,
            summary: sm,
        } = reply
        else {
            unreachable!("a solve job answers with a solution")
        };
        secs = secs.max(s);
        locals.push(x_local);
        summary.get_or_insert(*sm);
    }
    let x = (0..locals[0].ncols())
        .map(|j| locals.iter().flat_map(|m| m.col(j).to_vec()).collect())
        .collect();
    Solve {
        secs,
        x,
        summary,
        batch_size: 0,
    }
}

fn solve_service(service: &BatchedSolver, d: &Draw, v: usize) -> Solve {
    let _sp = trace::span("bench", "service");
    let batch = d.b.clone();
    parkit::set_num_threads(if Spec::pinned(v) { 1 } else { 0 });
    let t0 = Instant::now();
    let outcomes: Vec<_> = service
        .submit_all(batch)
        .into_iter()
        .map(SolveTicket::wait)
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    parkit::set_num_threads(0);
    Solve {
        secs,
        batch_size: outcomes[0].batch_size,
        x: outcomes.into_iter().map(|o| o.x).collect(),
        summary: None,
    }
}

fn solve(engine: &Engine, d: &Draw, v: usize) -> Solve {
    match engine {
        Engine::Direct(ranks) => solve_direct(ranks, d, v),
        Engine::Service(services) => solve_service(&services[v], d, v),
    }
}

/// Independent check of every solve, and the bookkeeping of what went
/// wrong.  A problem is a benchmark error: the run reports
/// `"correct": false`.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    max_relres: f64,
    max_fwd_err: f64,
    problems: Vec<String>,
    /// First solution and counts seen per (variant, draw): later solves of
    /// the same inputs must reproduce them exactly.
    first: BTreeMap<(usize, usize), Seen>,
}

/// A solve's solution columns and its counts (direct solves only).
type Seen = (Vec<Vec<f64>>, Option<String>);

impl Checks {
    fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }

    /// Recompute `‖b − A·x‖/‖b‖` with `sparse::Csr::spmv` and
    /// `‖x − x★‖∞/‖x★‖∞` for every column; a column whose residual misses
    /// the tolerance fails, whatever the solver reported.
    fn verify(&mut self, spec: &Spec, a: &Csr, d: &Draw, v: usize, s: &Solve) {
        self.attempted += 1;
        let mut ok = true;
        let mut ax = vec![0.0; a.nrows()];
        for (j, x) in s.x.iter().enumerate() {
            a.spmv(x, &mut ax);
            let r: f64 = ax.iter().zip(&d.b[j]).map(|(a, b)| (b - a) * (b - a)).sum();
            let bn: f64 = d.b[j].iter().map(|b| b * b).sum();
            let relres = (r / bn).sqrt();
            let err = x.iter().zip(&d.xstar[j]).map(|(a, b)| (a - b).abs());
            let fwd = err.fold(0.0, f64::max) / d.xstar[j].iter().fold(0.0, |m, x| x.abs().max(m));
            self.max_relres = self.max_relres.max(relres);
            self.max_fwd_err = self.max_fwd_err.max(fwd);
            // Allowance for the summation order of the two norms only.
            if relres.is_nan() || relres > spec.tol * (1.0 + 1e-6) {
                ok = false;
                eprintln!(
                    "perfbench: {} column {j}: true relative residual {relres:e} misses {:e}",
                    VARIANTS[v], spec.tol
                );
            }
        }
        if !ok {
            self.failed += 1;
        }
        // Counts of one variant on fixed inputs must repeat exactly.
        let counts = s.summary.as_ref().map(|sm| {
            format!(
                "iters {} restarts {} rescues {} steps {:?} fallbacks {} total {:?} ortho {:?}",
                sm.iterations,
                sm.restarts,
                sm.rescues,
                sm.step_history,
                sm.fallbacks,
                sm.comm_total,
                sm.comm_ortho
            )
        });
        let Some((x0, c0)) = self.first.get(&(v, d.index)) else {
            self.first.insert((v, d.index), (s.x.clone(), counts));
            return;
        };
        let mut drift = Vec::new();
        if *x0 != s.x {
            drift.push(format!(
                "{}: repeated solve changed the solution bits",
                VARIANTS[v]
            ));
        }
        if counts.is_some() && c0.is_some() && *c0 != counts {
            drift.push(format!(
                "{}: counts drifted between solves: {c0:?} then {counts:?}",
                VARIANTS[v]
            ));
        }
        for msg in drift {
            self.problem(msg);
        }
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

fn end_to_end(args: &Args, checks: &mut Checks) -> Metrics {
    let spec = &args.spec;
    // Each timed set-up runs through teardown: a service assembles its
    // operator on its own worker thread, and only joining the worker makes
    // that work count, rather than overlap the set-ups that follow.
    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            drop(setup(spec, args.seed));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let (a, first, engine) = setup(spec, args.seed);

    // Warm-up: pool threads, page faults, lazily built service state.
    let warm = solve(&engine, &first, TWO_STAGE);
    checks.verify(spec, &a, &first, TWO_STAGE, &warm);

    // Round r solves draw r with every variant, so each variant's time is
    // taken over several right-hand sides, not one.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); VARIANTS.len()];
    let start = Instant::now();
    let mut d = first;
    while d.index == 0 || start.elapsed().as_secs() < args.seconds {
        // Rotate the order so no variant always follows the same one.
        for i in 0..TIMED.len() {
            let v = TIMED[(d.index + i) % TIMED.len()];
            let s = solve(&engine, &d, v);
            checks.verify(spec, &a, &d, v, &s);
            times[v].push(s.secs);
        }
        d = draw(spec, &a, args.seed, d.index + 1);
    }
    drop(engine);

    let mut m = Metrics::new();
    let mut samples = String::from("{\"solve_s_samples\": {");
    for (i, &v) in TIMED.iter().enumerate() {
        let (name, t) = (VARIANTS[v], &times[v]);
        let med = median(t);
        eprintln!("  {name:<18} median {med:.4} s over {} draws", t.len());
        let _ = write!(
            samples,
            "{}\"{name}\": {t:?}",
            if i == 0 { "" } else { ", " }
        );
        put(&mut m, format!("solve_s.{name}"), med, "s");
        if v == TWO_STAGE {
            put(
                &mut m,
                format!("rhs_per_s.{name}"),
                spec.rhs as f64 / med,
                "1/s",
            );
        }
    }
    samples.push_str("}}");
    println!("{samples}");
    put(&mut m, "setup_s", median(&setup_s), "s");
    let rss = layers::peak_rss_mb().unwrap_or_else(|| {
        checks.problem("VmHWM unreadable".into());
        f64::NAN
    });
    put(&mut m, "peak_rss_mb", rss, "MB");
    m
}

fn per_layer(args: &Args, checks: &mut Checks) -> Metrics {
    let spec = &args.spec;
    let a = spec.op.assemble();
    let d = draw(spec, &a, args.seed, 0);
    let ranks = Ranks::start(spec, d.block.clone());
    let services = (spec.rhs > 1).then(|| start_services(spec, &a));
    trace::set_capacity(1 << 18);

    let warm = solve_direct(&ranks, &d, TWO_STAGE);
    checks.verify(spec, &a, &d, TWO_STAGE, &warm);

    // Untraced, then traced.  `verify` holds the traced solve to the
    // untraced one of the same draw: solution bits, iterations and the full
    // `comm_total`/`comm_ortho` ledgers.
    let mut untraced = Vec::new();
    let mut traced_secs = Vec::new();
    let mut two_stage_trace = None;
    for v in 0..VARIANTS.len() {
        let u = solve_direct(&ranks, &d, v);
        checks.verify(spec, &a, &d, v, &u);
        trace::clear();
        trace::set_enabled(true);
        let t = solve_direct(&ranks, &d, v);
        trace::set_enabled(false);
        checks.verify(spec, &a, &d, v, &t);
        traced_secs.push(t.secs);
        if v == TWO_STAGE {
            two_stage_trace = Some(trace::collect());
        }
        untraced.push(u);
    }
    let tr = two_stage_trace.expect("two-stage traced");
    let summary = |v: usize| untraced[v].summary.as_ref().expect("direct solve");
    let ts = summary(TWO_STAGE);

    let mut m = Metrics::new();
    for (v, name) in VARIANTS.iter().enumerate() {
        put(
            &mut m,
            format!("ssgmres.iters.{name}"),
            summary(v).iterations as f64,
            "count",
        );
    }
    put(
        &mut m,
        "ssgmres.solve_s.two_stage_sketch",
        untraced[SKETCH].secs,
        "s",
    );
    put(&mut m, "ssgmres.restarts", ts.restarts as f64, "count");
    let phase = |f: fn(&ssgmres::CycleTiming) -> u64| {
        ts.cycle_timings.iter().map(f).sum::<u64>() as f64 * 1e-9
    };
    put(&mut m, "ssgmres.mpk_s", phase(|t| t.mpk_ns), "s");
    put(&mut m, "ssgmres.ortho_s", phase(|t| t.ortho_ns), "s");
    put(&mut m, "ssgmres.hess_s", phase(|t| t.hess_ns), "s");
    put(&mut m, "ssgmres.update_s", phase(|t| t.update_ns), "s");
    put(&mut m, "ssgmres.residual_s", phase(|t| t.residual_ns), "s");

    put(&mut m, "control.rescues", ts.rescues as f64, "count");
    let steps = &ts.step_history;
    let mean_step = steps.iter().sum::<usize>() as f64 / steps.len().max(1) as f64;
    put(&mut m, "control.mean_step", mean_step, "cols");

    // The service against the direct solve of the same block, in
    // alternating pairs; the service must return the direct solution bits.
    let (batch_size, overhead_ms) = match &services {
        Some(services) => {
            let mut diffs = Vec::new();
            let mut batch_size = 0;
            for _ in 0..3 {
                let s = solve_service(&services[TWO_STAGE], &d, TWO_STAGE);
                checks.verify(spec, &a, &d, TWO_STAGE, &s);
                let direct = solve_direct(&ranks, &d, TWO_STAGE);
                checks.verify(spec, &a, &d, TWO_STAGE, &direct);
                diffs.push((s.secs - direct.secs) * 1e3);
                batch_size = s.batch_size;
            }
            (batch_size as f64, median(&diffs))
        }
        None => (0.0, 0.0),
    };
    put(&mut m, "service.batch_size", batch_size, "count");
    put(&mut m, "service.overhead_ms", overhead_ms, "ms");

    // One restart cycle of each scheme, replayed outside the solver at one
    // step per workload, so the schemes' counts compare like for like.
    let mut words_per_reduce = 1;
    let mut cycle_ms = vec![f64::NAN; VARIANTS.len()];
    for v in 0..VARIANTS.len() {
        let name = VARIANTS[v];
        let s = spec.replay_step_of(v);
        let mut per_rank = Vec::new();
        let mut counts = None;
        for reply in ranks.run(|| Job::Replay { v, s, reps: 3 }) {
            let Reply::Replayed(replayed) = reply else {
                unreachable!("a replay job answers with a replay")
            };
            match replayed {
                Ok(r) => {
                    per_rank.push(r.ortho_secs);
                    counts.get_or_insert((r.delta, r.fallbacks));
                }
                Err(e) => checks.problem(e),
            }
        }
        if counts.is_some() {
            cycle_ms[v] = median(&slowest(per_rank)) * 1e3;
        }
        if !SCHEMES.contains(&v) {
            continue;
        }
        let k = spec.rhs;
        let scheme = spec.scheme(v);
        let model = if k == 1 {
            (
                ortho_reduce_count(scheme, RESTART, s),
                ortho_cycle_words(scheme, RESTART, s),
            )
        } else {
            (
                block_ortho_reduce_count(scheme, RESTART, s, k),
                block_ortho_cycle_words(scheme, RESTART, s, k),
            )
        };
        let (reduces, words) = match counts {
            Some((delta, fallbacks)) => {
                if (delta.allreduces, delta.allreduce_words) != model || fallbacks != 0 {
                    checks.problem(format!(
                        "{name}: replayed cycle at s = {s} made {} reduces / {} words with \
                         {fallbacks} fallbacks; perfmodel predicts {} / {}",
                        delta.allreduces, delta.allreduce_words, model.0, model.1
                    ));
                }
                if v == TWO_STAGE {
                    words_per_reduce = delta.allreduce_words / delta.allreduces.max(1);
                }
                (delta.allreduces as f64, delta.allreduce_words as f64)
            }
            None => (f64::NAN, f64::NAN),
        };
        put(
            &mut m,
            format!("blockortho.reduces_per_cycle.{name}"),
            reduces,
            "count",
        );
        put(
            &mut m,
            format!("blockortho.words_per_cycle.{name}"),
            words,
            "words",
        );
    }
    for (v, name) in VARIANTS.iter().enumerate() {
        put(
            &mut m,
            format!("blockortho.cycle_ms.{name}"),
            cycle_ms[v],
            "ms",
        );
    }
    put(
        &mut m,
        "blockortho.stage1_s",
        layers::max_thread_s(&tr, "ortho", Some("stage1_panel")),
        "s",
    );
    put(
        &mut m,
        "blockortho.stage2_s",
        layers::max_thread_s(&tr, "ortho", Some("stage2_flush")),
        "s",
    );
    put(&mut m, "blockortho.fallbacks", ts.fallbacks as f64, "count");

    // Kernels at this workload's panel shapes: a panel of one block step
    // against half a cycle's basis.
    let nloc = a.nrows() / spec.ranks;
    let panel = spec.rhs * spec.step;
    let prev = spec.rhs * (RESTART + 1) / 2;
    for k in layers::dense_kernels(nloc, prev, panel) {
        put(
            &mut m,
            format!("dense.{}_gflops", k.name),
            k.gflops,
            "GFLOP/s",
        );
        put(
            &mut m,
            format!("dense.{}_flop_per_byte", k.name),
            k.flop_per_byte,
            "flop/B",
        );
    }

    let per_call = |replies: Vec<Reply>| -> f64 {
        let times = replies.into_iter().map(|reply| match reply {
            Reply::Times(t) => t,
            _ => unreachable!("a timing job answers with times"),
        });
        median(&slowest(times))
    };
    put(
        &mut m,
        "distsim.spmv_ms",
        per_call(ranks.run(|| Job::Spmv(200))) * 1e3,
        "ms",
    );
    put(
        &mut m,
        "distsim.halo_wait_s",
        layers::max_thread_s(&tr, "spmv", Some("halo_wait")),
        "s",
    );
    let c = &ts.comm_total;
    put(&mut m, "distsim.allreduces", c.allreduces as f64, "count");
    put(
        &mut m,
        "distsim.allreduce_words",
        c.allreduce_words as f64,
        "words",
    );
    put(&mut m, "distsim.p2p_msgs", c.p2p_messages as f64, "count");
    put(&mut m, "distsim.p2p_words", c.p2p_words as f64, "words");
    let words = words_per_reduce.max(1);
    let allreduce = per_call(ranks.run(|| Job::Allreduce { words, reps: 2000 }));
    put(&mut m, "distsim.allreduce_us", allreduce * 1e6, "us");
    let sync = layers::max_thread_s(&tr, "comm", None) / traced_secs[TWO_STAGE];
    put(&mut m, "distsim.sync_frac", sync, "ratio");
    let detections: usize = (0..VARIANTS.len()).map(|v| summary(v).detections).sum();
    put(
        &mut m,
        "distsim.guard_detections",
        detections as f64,
        "count",
    );

    put(
        &mut m,
        "parkit.dispatch_us",
        layers::pool_dispatch() * 1e6,
        "us",
    );
    put(
        &mut m,
        "parkit.scoped_spawns",
        layers::span_count(&tr, "pool", "scoped") as f64,
        "count",
    );

    let untraced_total: f64 = untraced.iter().map(|s| s.secs).sum();
    let traced_total: f64 = traced_secs.iter().sum();
    put(
        &mut m,
        "trace.overhead_frac",
        traced_total / untraced_total - 1.0,
        "ratio",
    );
    put(&mut m, "verify.relres_max", checks.max_relres, "ratio");
    put(&mut m, "verify.fwd_err_max", checks.max_fwd_err, "ratio");

    drop(services);
    drop(ranks);
    report_self_times(&tr);
    m
}

/// Per-call maximum over the ranks' timings: each call's slowest rank.
fn slowest(per_rank: impl IntoIterator<Item = Vec<f64>>) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for times in per_rank {
        out.resize(out.len().max(times.len()), 0.0);
        for (acc, t) in out.iter_mut().zip(times) {
            *acc = acc.max(t);
        }
    }
    out
}

/// The two-stage solve's trace, layer by layer: total and self time per
/// span kind.  Printed as one JSON line ahead of the result.
fn report_self_times(tr: &trace::Trace) {
    let rows = layers::self_times(tr);
    let mut line = String::from("{\"two_stage_spans\": [");
    for (i, (cat, name, total, own)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{{\"cat\": \"{cat}\", \"name\": \"{name}\", \"total_s\": {}, \"self_s\": {}}}",
            *total as f64 * 1e-9,
            *own as f64 * 1e-9
        );
    }
    let _ = write!(line, "], \"dropped_events\": {}}}", tr.total_dropped());
    println!("{line}");
    eprintln!("  two-stage self time by span (top 12):");
    for (cat, name, total, own) in rows.iter().take(12) {
        eprintln!(
            "    {cat:>6}/{name:<22} self {:>8.4} s  total {:>8.4} s",
            *own as f64 * 1e-9,
            *total as f64 * 1e-9
        );
    }
}

/// Host and working-set facts the numbers are read against.
fn header(spec: &Spec) -> String {
    let a = spec.op.assemble();
    let llc = layers::llc_bytes();
    let ws = spec.working_set_bytes(&a);
    format!(
        "{{\"host\": {{\"nproc\": {}, \"simd\": \"{}\", \"pool_lanes\": {}, \"llc_bytes\": {}, \"commit\": \"{}\"}}, \
         \"workload\": {{\"name\": \"{}\", \"n\": {}, \"nnz\": {}, \"ranks\": {}, \"rhs\": {}, \"m\": {RESTART}, \
         \"s\": {}, \"big_panel\": {BIG_PANEL}, \"tol\": {:e}, \"working_set_bytes_computed\": {ws}, \
         \"working_set_over_llc\": {}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        dense::simd_label(),
        parkit::pool_lanes(),
        llc.map_or("null".to_string(), |b| b.to_string()),
        layers::commit(),
        spec.name,
        a.nrows(),
        a.nnz(),
        spec.ranks,
        spec.rhs,
        spec.step,
        spec.tol,
        llc.map_or("null".to_string(), |b| (ws as f64 / b as f64).to_string()),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", header(&args.spec));
    let mut checks = Checks::default();
    let metrics = if args.trace {
        per_layer(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    if checks.failed > 0 {
        checks.problem(format!(
            "{} of {} solves failed verification",
            checks.failed, checks.attempted
        ));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.problems.is_empty(),
        checks.attempted,
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
}
