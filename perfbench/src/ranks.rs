//! A persistent group of ranks that executes the benchmark's jobs.
//!
//! Each rank assembles its block of the distributed operator once and then
//! serves jobs (solves, SpMVs, all-reduces, orthogonalization replays) sent
//! from the main thread, so set-up is paid once per group and every job
//! runs on the same communicator.  One rank uses `SerialComm`; more ranks
//! use the thread-backed communicator of `distsim::run_ranks`.

use crate::inputs::{Spec, RESTART, VARIANTS};
use blockortho::make_orthogonalizer_with_sketch;
use dense::Matrix;
use distsim::{run_ranks, CommStatsSnapshot, Communicator, DistCsr, DistMultiVector, SerialComm};
use sparse::block_row_partition;
use ssgmres::{BlockSolveResult, CycleTiming, Identity, SStepGmres, SolveResult};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

pub enum Job {
    /// Solve `A·X = B` with variant `v` from `X = 0`.
    Solve {
        v: usize,
        b: Arc<Matrix>,
    },
    /// Time `reps` distributed SpMVs.
    Spmv(usize),
    /// Time `reps` all-reduces of `words` words.
    Allreduce {
        words: usize,
        reps: usize,
    },
    /// Replay one restart cycle of variant `v`'s orthogonalization at step
    /// `s`, `reps` times, on a Krylov basis built from the right-hand side.
    Replay {
        v: usize,
        s: usize,
        reps: usize,
    },
    Stop,
}

/// What a solve reports, whichever entry point ran it.
#[derive(Clone, Debug)]
pub struct Summary {
    pub iterations: usize,
    pub restarts: usize,
    pub comm_total: CommStatsSnapshot,
    pub comm_ortho: CommStatsSnapshot,
    pub rescues: usize,
    pub step_history: Vec<usize>,
    pub fallbacks: usize,
    pub detections: usize,
    pub cycle_timings: Vec<CycleTiming>,
}

impl From<SolveResult> for Summary {
    fn from(r: SolveResult) -> Self {
        Summary {
            iterations: r.iterations,
            restarts: r.restarts,
            comm_total: r.comm_total,
            comm_ortho: r.comm_ortho,
            rescues: r.rescues,
            step_history: r.step_history,
            fallbacks: r.ortho_fallbacks,
            detections: r.faults_detected,
            cycle_timings: r.cycle_timings,
        }
    }
}

impl From<BlockSolveResult> for Summary {
    fn from(r: BlockSolveResult) -> Self {
        Summary {
            iterations: r.iterations,
            restarts: r.restarts,
            comm_total: r.comm_total,
            comm_ortho: r.comm_ortho,
            rescues: r.rescues,
            step_history: r.step_history,
            fallbacks: r.ortho_fallbacks,
            detections: r.faults_detected,
            cycle_timings: r.cycle_timings,
        }
    }
}

pub enum Reply {
    Ready,
    Solved {
        secs: f64,
        x_local: Matrix,
        summary: Box<Summary>,
    },
    Times(Vec<f64>),
    Replayed(Result<Replayed, String>),
}

pub struct Replayed {
    /// Seconds inside the orthogonalizer, per replay.
    pub ortho_secs: Vec<f64>,
    /// Communication of every panel after the first.
    pub delta: CommStatsSnapshot,
    pub fallbacks: usize,
}

pub struct Ranks {
    jobs: Vec<Sender<Job>>,
    replies: Receiver<(usize, Reply)>,
    group: Option<JoinHandle<()>>,
}

impl Ranks {
    /// Start the group: every rank assembles its block of the operator and
    /// keeps its rows of `b` (`n × rhs`) as the starting block of the
    /// SpMV and replay jobs.  Returns once every rank is ready.
    pub fn start(spec: &Spec, b: Arc<Matrix>) -> Ranks {
        let nranks = spec.ranks;
        let (reply_tx, replies) = channel();
        let mut jobs = Vec::new();
        let mut inboxes = Vec::new();
        for _ in 0..nranks {
            let (tx, rx) = channel();
            jobs.push(tx);
            inboxes.push(Mutex::new(Some(rx)));
        }
        let spec = spec.clone();
        let group = std::thread::Builder::new()
            .name("bench-ranks".into())
            .spawn(move || {
                run_ranks(nranks, |comm| {
                    let rank = comm.rank();
                    let inbox = inboxes[rank]
                        .lock()
                        .expect("inbox lock poisoned")
                        .take()
                        .expect("each rank takes its inbox once");
                    let comm = if nranks == 1 { SerialComm::new() } else { comm };
                    serve(&spec, comm, &b, inbox, reply_tx.clone());
                });
            })
            .expect("spawn the rank group");
        let ranks = Ranks {
            jobs,
            replies,
            group: Some(group),
        };
        for reply in ranks.gather() {
            assert!(matches!(reply, Reply::Ready), "rank failed to start");
        }
        ranks
    }

    /// Send `job` to every rank and collect the replies in rank order.
    pub fn run(&self, job: impl Fn() -> Job) -> Vec<Reply> {
        for tx in &self.jobs {
            tx.send(job()).expect("rank group stopped early");
        }
        self.gather()
    }

    fn gather(&self) -> Vec<Reply> {
        let mut out: Vec<Option<Reply>> = (0..self.jobs.len()).map(|_| None).collect();
        for _ in 0..self.jobs.len() {
            let (rank, reply) = self.replies.recv().expect("a rank panicked");
            out[rank] = Some(reply);
        }
        out.into_iter()
            .map(|r| r.expect("one reply per rank"))
            .collect()
    }
}

impl Drop for Ranks {
    fn drop(&mut self) {
        for tx in &self.jobs {
            let _ = tx.send(Job::Stop);
        }
        if let Some(group) = self.group.take() {
            let _ = group.join();
        }
    }
}

fn serve(
    spec: &Spec,
    comm: Arc<dyn Communicator>,
    b: &Matrix,
    inbox: Receiver<Job>,
    out: Sender<(usize, Reply)>,
) {
    let rank = comm.rank();
    let part = block_row_partition(b.nrows(), spec.ranks);
    let (lo, hi) = part.range(rank);
    let dist = spec.op.distribute(comm.clone(), &part);
    let b_local = Matrix::from_fn(hi - lo, b.ncols(), |i, j| b[(lo + i, j)]);
    let reply = |r: Reply| out.send((rank, r)).expect("main thread gone");
    reply(Reply::Ready);
    while let Ok(job) = inbox.recv() {
        // Every rank sets the same width before the job's first barrier.
        let pinned = matches!(job, Job::Solve { v, .. } | Job::Replay { v, .. } if Spec::pinned(v));
        parkit::set_num_threads(if pinned { 1 } else { 0 });
        match job {
            Job::Stop => break,
            Job::Solve { v, b } => {
                let b_local = Matrix::from_fn(hi - lo, b.ncols(), |i, j| b[(lo + i, j)]);
                let solver = SStepGmres::new(spec.config(v));
                let mut x = Matrix::zeros(hi - lo, b.ncols());
                comm.barrier();
                let t0 = Instant::now();
                let _sp = trace::span("bench", "solve");
                let summary: Summary = if b.ncols() == 1 {
                    solver
                        .solve(&dist, &Identity, b_local.col(0), x.col_mut(0))
                        .into()
                } else {
                    solver
                        .solve_block(&dist, &Identity, &b_local, &mut x)
                        .into()
                };
                let secs = t0.elapsed().as_secs_f64();
                drop(_sp);
                reply(Reply::Solved {
                    secs,
                    x_local: x,
                    summary: Box::new(summary),
                });
            }
            Job::Spmv(reps) => {
                let x = b_local.col(0).to_vec();
                let mut y = vec![0.0; hi - lo];
                let times = timed(&*comm, reps, || {
                    let _sp = trace::span("bench", "spmv");
                    dist.spmv(std::hint::black_box(&x), &mut y);
                });
                reply(Reply::Times(times));
            }
            Job::Allreduce { words, reps } => {
                let mut buf = vec![1.0; words];
                let times = timed(&*comm, reps, || {
                    let _sp = trace::span("bench", "allreduce");
                    comm.allreduce_sum(std::hint::black_box(&mut buf));
                });
                reply(Reply::Times(times));
            }
            Job::Replay { v, s, reps } => {
                reply(Reply::Replayed(replay(spec, &dist, &b_local, v, s, reps)))
            }
        }
    }
    parkit::set_num_threads(0);
}

/// Per-call seconds of `reps` calls of `f`, each started together on
/// every rank.
fn timed(comm: &dyn Communicator, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            comm.barrier();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// One restart cycle of variant `v`'s orthogonalization at step `s`, as
/// the solver drives it: the normalized right-hand sides are the first panel, each
/// later panel is `rhs·s` columns of monomial matrix powers of the
/// previous block step (computed with `DistCsr::spmv`), and `finish`
/// closes the cycle.  Reports the time spent in the orthogonalizer and
/// the communication of every panel after the first, which is what the
/// per-cycle closed forms of `perfmodel` count.
fn replay(
    spec: &Spec,
    dist: &DistCsr,
    b_local: &Matrix,
    v: usize,
    s: usize,
    reps: usize,
) -> Result<Replayed, String> {
    let comm = dist.comm().clone();
    let k = b_local.ncols();
    let total = k * (RESTART + 1);
    let config = spec.config(v);
    let nloc = b_local.nrows();
    let mut ortho_secs = Vec::new();
    let mut counts: Option<(CommStatsSnapshot, usize)> = None;
    for _ in 0..reps {
        let mut basis = DistMultiVector::zeros(
            comm.clone(),
            dist.global_rows(),
            nloc,
            dist.row_offset(),
            total,
        );
        for j in 0..k {
            basis.local_mut().col_mut(j).copy_from_slice(b_local.col(j));
            let norm = basis.norm2(j);
            basis.scale_col(j, 1.0 / norm);
        }
        let mut r = Matrix::zeros(total, total);
        let mut ortho =
            make_orthogonalizer_with_sketch(config.ortho.for_block_width(k), total, config.sketch);
        comm.barrier();
        let mut secs = 0.0;
        let t0 = Instant::now();
        let fail = |what: String| format!("{} replay at s = {s}: {what}", VARIANTS[v]);
        ortho
            .orthogonalize_panel(&mut basis, 0..k, &mut r)
            .map_err(|e| fail(format!("first panel: {e}")))?;
        secs += t0.elapsed().as_secs_f64();
        let before = comm.stats().snapshot();
        let mut w = vec![0.0; nloc];
        let mut cols = k;
        while cols < total {
            let width = k * s.min((total - cols) / k);
            for c in cols..cols + width {
                dist.spmv(basis.local().col(c - k), &mut w);
                basis.local_mut().col_mut(c).copy_from_slice(&w);
            }
            let t0 = Instant::now();
            ortho
                .orthogonalize_panel(&mut basis, cols..cols + width, &mut r)
                .map_err(|e| fail(format!("panel at column {cols}: {e}")))?;
            secs += t0.elapsed().as_secs_f64();
            cols += width;
        }
        let t0 = Instant::now();
        ortho
            .finish(&mut basis, &mut r)
            .map_err(|e| fail(format!("finish: {e}")))?;
        secs += t0.elapsed().as_secs_f64();
        ortho_secs.push(secs);
        let delta = comm.stats().snapshot().since(&before);
        let fallbacks = ortho.fallback_count();
        match &counts {
            None => counts = Some((delta, fallbacks)),
            Some(first) => assert_eq!(
                first,
                &(delta, fallbacks),
                "{}: replayed cycles must communicate identically",
                VARIANTS[v]
            ),
        }
    }
    let (delta, fallbacks) = counts.expect("at least one replay");
    Ok(Replayed {
        ortho_secs,
        delta,
        fallbacks,
    })
}
