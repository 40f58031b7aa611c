//! Kernel baseline benchmark: times the four hot BLAS-3 kernels (blocked
//! vs. retained naive formulations), the fused update+Gram pass, and one
//! s-step GMRES iteration across panel shapes and thread counts, then
//! writes `BENCH_kernels.json` — the perf trajectory every later PR is
//! measured against.
//!
//! ```sh
//! cargo run -p bench --release --bin kernels          # full sweep
//! BENCH_QUICK=1 cargo run -p bench --release --bin kernels   # CI mode
//! ```
//!
//! Reported per row: wall seconds (best of repetitions), GF/s against the
//! kernel's flop model, the minimum bytes the kernel must move, the thread
//! count, and a speedup column: single-thread blocked rows are measured
//! against the naive reference, multi-thread blocked rows against the
//! 1-thread blocked time of the same kernel and shape (the multithread
//! scaling signature), and fused rows against the separate blocked sweeps.
//! `TWOSTAGE_NUM_THREADS` is overridden internally per row.
//!
//! With `BENCH_SCALING_CHECK=1` the binary exits non-zero if the fused
//! pass is slower than the separate sweeps at any thread count, or — on
//! machines with ≥ 2 hardware threads — if the widest-thread blocked
//! `gram`/`gemm_tn` rows fail to beat their 1-thread times.  On a single
//! hardware thread real scaling is impossible, so the check instead bounds
//! pool dispatch overhead.  The ratios the check reads (fused vs separate,
//! multi-thread `gram`/`gemm_tn` vs 1 thread) are paired medians over 25
//! (quick) or 41 interleaved pairs, not ratios of two best-of-k samples,
//! so one noisy moment of the host cannot decide the gate.

use dense::Matrix;
use ssgmres::{GmresConfig, OrthoKind, SStepGmres};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured configuration, serialized as a JSON object.
struct Row {
    kernel: &'static str,
    variant: &'static str,
    n: usize,
    s: usize,
    k: usize,
    threads: usize,
    secs: f64,
    gflops: f64,
    bytes_moved: u64,
    /// What `speedup` is measured against (absent for baseline rows).
    baseline: Option<&'static str>,
    /// Speedup over `baseline` for the same shape: `baseline_secs / secs`
    /// of the best-of-k times for the naive rows, the paired-median ratio
    /// (see [`paired_median_speedup`]) for the gated scaling and fused rows.
    speedup: Option<f64>,
}

fn quick() -> bool {
    matches!(
        std::env::var("BENCH_QUICK").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
}

/// Median of `pairs` per-pair ratios `base / fast`, each pair timed back to
/// back by `time_pair` (which returns the two wall times in seconds).
fn median_ratio(pairs: usize, mut time_pair: impl FnMut() -> (f64, f64)) -> f64 {
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|_| {
            let (base_s, fast_s) = time_pair();
            base_s / fast_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[pairs / 2]
}

/// Wall time of one call of `f`.
fn time_once(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Paired-median speedup of `fast` over `base`: one untimed warmup call
/// each, then `pairs` back-to-back `(base, fast)` timings, interleaved so a
/// slow phase of the host hits both sides of a pair alike, and the median
/// of the per-pair `base / fast` ratios (the estimator the `faults` bench
/// uses for guard overhead).  Two best-of-k times taken seconds apart let
/// one noisy moment decide a gate; the paired median does not.
fn paired_median_speedup(pairs: usize, mut base: impl FnMut(), mut fast: impl FnMut()) -> f64 {
    base();
    fast();
    median_ratio(pairs, || (time_once(&mut base), time_once(&mut fast)))
}

/// Paired-median speedup of `f` at `threads` pool lanes over `f` at one.
/// The pool width is process-global, so each side of a pair first switches
/// it and makes one untimed call: the timed call then finds its lanes awake
/// and its chunk bands already assigned, as in a steady run at that width.
fn thread_speedup(pairs: usize, threads: usize, mut f: impl FnMut()) -> f64 {
    let mut at_width = |t: usize| {
        parkit::set_num_threads(t);
        f();
        time_once(&mut f)
    };
    let speedup = median_ratio(pairs, || (at_width(1), at_width(threads)));
    parkit::set_num_threads(threads);
    speedup
}

/// Best-of-k wall time of `f`, with one untimed warmup call.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn panel(n: usize, s: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, s, |i, j| {
        ((i * 7 + j * 13 + seed * 29) % 101) as f64 * 0.01 - 0.5
            + if i % (j + 2) == 0 { 0.75 } else { 0.0 }
    })
}

/// Upper-triangular, comfortably conditioned normalization factor.
fn upper(s: usize) -> Matrix {
    Matrix::from_fn(s, s, |i, j| {
        if i > j {
            0.0
        } else if i == j {
            1.5 + i as f64 * 0.1
        } else {
            ((i + 2 * j) % 5) as f64 * 0.1 - 0.2
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn push(
    rows: &mut Vec<Row>,
    kernel: &'static str,
    variant: &'static str,
    n: usize,
    s: usize,
    k: usize,
    threads: usize,
    secs: f64,
    flops: f64,
    bytes: u64,
    // (baseline name, speedup over it)
    baseline: Option<(&'static str, f64)>,
) {
    rows.push(Row {
        kernel,
        variant,
        n,
        s,
        k,
        threads,
        secs,
        gflops: flops / secs * 1e-9,
        bytes_moved: bytes,
        baseline: baseline.map(|(name, _)| name),
        speedup: baseline.map(|(_, speedup)| speedup),
    });
}

/// Benchmark the four kernels plus the fused pass on one `n×s` shape.
fn bench_shape(
    rows: &mut Vec<Row>,
    n: usize,
    s: usize,
    reps: usize,
    pairs: usize,
    thread_counts: &[usize],
) {
    let v = panel(n, s, 1);
    let q = panel(n, s, 2);
    let r = upper(s);
    let p = Matrix::from_fn(s, s, |i, j| ((i + j) % 7) as f64 * 0.05 - 0.1);
    let k = s;

    // Naive single-thread baselines (the pre-blocking formulations).
    parkit::set_num_threads(1);
    let naive_gram_s = time_best(reps, || {
        std::hint::black_box(dense::naive_gram(&v.view()));
    });
    let naive_tn_s = time_best(reps, || {
        std::hint::black_box(dense::naive_gemm_tn(&q.view(), &v.view()));
    });
    let naive_upd_s = time_best(reps, || {
        let mut w = v.clone();
        dense::naive_gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
        std::hint::black_box(&w);
    });
    let naive_trsm_s = time_best(reps, || {
        let mut w = v.clone();
        dense::naive_trsm_right_upper(&mut w.view_mut(), &r);
        std::hint::black_box(&w);
    });
    let nf = n as f64;
    let sf = s as f64;
    let gram_flops = nf * sf * (sf + 1.0);
    let tn_flops = 2.0 * nf * sf * sf;
    let upd_flops = 2.0 * nf * sf * sf;
    let trsm_flops = nf * sf * (sf + 1.0);
    let gram_bytes = (8 * n * s) as u64;
    let tn_bytes = (8 * n * 2 * s) as u64;
    let upd_bytes = (8 * n * 3 * s) as u64;
    let trsm_bytes = (8 * n * 2 * s) as u64;
    push(
        rows,
        "gram",
        "naive",
        n,
        s,
        0,
        1,
        naive_gram_s,
        gram_flops,
        gram_bytes,
        None,
    );
    push(
        rows, "gemm_tn", "naive", n, s, k, 1, naive_tn_s, tn_flops, tn_bytes, None,
    );
    push(
        rows,
        "gemm_nn_minus",
        "naive",
        n,
        s,
        k,
        1,
        naive_upd_s,
        upd_flops,
        upd_bytes,
        None,
    );
    push(
        rows,
        "trsm_right_upper",
        "naive",
        n,
        s,
        0,
        1,
        naive_trsm_s,
        trsm_flops,
        trsm_bytes,
        None,
    );

    // 1-thread blocked times, recorded on the first (t == 1) pass and used
    // as the baseline for the ungated multithread scaling rows (the gated
    // gram/gemm_tn rows use paired medians instead).
    let mut base_upd_s = f64::NAN;
    let mut base_trsm_s = f64::NAN;
    for &t in thread_counts {
        parkit::set_num_threads(t);
        let single = t == 1;
        let gram = || {
            std::hint::black_box(dense::gram(&v.view()));
        };
        let blocked_gram_s = time_best(reps, gram);
        push(
            rows,
            "gram",
            "blocked",
            n,
            s,
            0,
            t,
            blocked_gram_s,
            gram_flops,
            gram_bytes,
            if single {
                Some(("naive", naive_gram_s / blocked_gram_s))
            } else {
                Some(("blocked_1thread", thread_speedup(pairs, t, gram)))
            },
        );
        let gemm_tn = || {
            std::hint::black_box(dense::gemm_tn(&q.view(), &v.view()));
        };
        let blocked_tn_s = time_best(reps, gemm_tn);
        push(
            rows,
            "gemm_tn",
            "blocked",
            n,
            s,
            k,
            t,
            blocked_tn_s,
            tn_flops,
            tn_bytes,
            if single {
                Some(("naive", naive_tn_s / blocked_tn_s))
            } else {
                Some(("blocked_1thread", thread_speedup(pairs, t, gemm_tn)))
            },
        );
        let blocked_upd_s = time_best(reps, || {
            let mut w = v.clone();
            dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
            std::hint::black_box(&w);
        });
        if single {
            base_upd_s = blocked_upd_s;
        }
        push(
            rows,
            "gemm_nn_minus",
            "blocked",
            n,
            s,
            k,
            t,
            blocked_upd_s,
            upd_flops,
            upd_bytes,
            if single {
                Some(("naive", naive_upd_s / blocked_upd_s))
            } else {
                Some(("blocked_1thread", base_upd_s / blocked_upd_s))
            },
        );
        let blocked_trsm_s = time_best(reps, || {
            let mut w = v.clone();
            dense::trsm_right_upper(&mut w.view_mut(), &r);
            std::hint::black_box(&w);
        });
        if single {
            base_trsm_s = blocked_trsm_s;
        }
        push(
            rows,
            "trsm_right_upper",
            "blocked",
            n,
            s,
            0,
            t,
            blocked_trsm_s,
            trsm_flops,
            trsm_bytes,
            if single {
                Some(("naive", naive_trsm_s / blocked_trsm_s))
            } else {
                Some(("blocked_1thread", base_trsm_s / blocked_trsm_s))
            },
        );
        // Fused update + [Q W]ᵀW pass vs. the three separate sweeps.
        let fused = || {
            let mut w = v.clone();
            std::hint::black_box(dense::fused_update_proj_gram(
                &mut w.view_mut(),
                &q.view(),
                &p,
            ));
        };
        let separate = || {
            let mut w = v.clone();
            dense::gemm_nn_minus(&mut w.view_mut(), &q.view(), &p);
            std::hint::black_box(dense::gemm_tn(&q.view(), &w.view()));
            std::hint::black_box(dense::gram(&w.view()));
        };
        let fused_s = time_best(reps, fused);
        let fused_speedup = paired_median_speedup(pairs, separate, fused);
        let fused_flops = upd_flops + tn_flops + gram_flops;
        push(
            rows,
            "fused_update_proj_gram",
            "fused",
            n,
            s,
            k,
            t,
            fused_s,
            fused_flops,
            upd_bytes,
            Some(("separate_blocked_sweeps", fused_speedup)),
        );
    }
    parkit::set_num_threads(0);
}

/// Time one s-step GMRES iteration (basis vector) end to end: a bounded
/// two-stage solve on a 2D Laplacian, normalized by iterations performed.
fn bench_gmres_iteration(rows: &mut Vec<Row>, quick: bool, thread_counts: &[usize]) {
    let m = if quick { 60 } else { 120 };
    let a = sparse::laplace2d_9pt(m, m);
    let b = a.spmv_alloc(&vec![1.0; a.nrows()]);
    let config = GmresConfig {
        restart: 30,
        step_size: 5,
        max_restarts: 1,
        tol: 1e-30,
        ortho: OrthoKind::TwoStage { big_panel: 30 },
        ..GmresConfig::default()
    };
    let solver = SStepGmres::new(config);
    for &t in thread_counts {
        parkit::set_num_threads(t);
        let mut iters = 1usize;
        let secs = time_best(if quick { 2 } else { 4 }, || {
            let (_, result) = solver.solve_serial(&a, &b);
            iters = result.iterations.max(1);
        });
        let per_iter = secs / iters as f64;
        // Dominant per-iteration work: one SpMV + orthogonalization sweeps.
        let nnz_flops = 2.0 * a.nnz() as f64;
        push(
            rows,
            "sstep_gmres_iteration",
            "two_stage",
            a.nrows(),
            5,
            30,
            t,
            per_iter,
            nnz_flops,
            (16 * a.nnz()) as u64,
            None,
        );
    }
    parkit::set_num_threads(0);
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// `BENCH_SCALING_CHECK=1`: assert the two fixed bug signatures stay fixed.
///
/// * The fused pass must not be slower than the separate blocked sweeps
///   (`speedup >= 1.0`) at every thread count that fits the hardware.
///   Rows with more software threads than hardware threads measure pool
///   mechanics under oversubscription, where scheduler jitter dominates
///   both sides of the ratio; they are reported but not checked.
/// * On ≥ 2 hardware threads, the widest-thread blocked `gram` and
///   `gemm_tn` rows must beat their 1-thread blocked baselines
///   (`speedup > 1.0`).  On one hardware thread scaling is physically
///   impossible, so instead pool dispatch overhead must stay bounded
///   (multithread time ≤ 2.5× the 1-thread time).
fn scaling_check(rows: &[Row]) -> Result<(), String> {
    let hw = hardware_threads();
    for r in rows {
        if r.kernel == "fused_update_proj_gram" && r.threads <= hw {
            let sp = r.speedup.unwrap_or(f64::NAN);
            if sp.is_nan() || sp < 1.0 {
                return Err(format!(
                    "fused_update_proj_gram at n={} s={} threads={} is slower than the \
                     separate sweeps: speedup {sp:.3} < 1.0 (hardware_threads={hw})",
                    r.n, r.s, r.threads
                ));
            }
        }
    }
    let multicore = hw >= 2;
    // Judge scaling at the widest thread count the hardware can actually
    // run in parallel; on one core fall back to the widest measured row
    // and only bound its overhead.
    let check_t = rows
        .iter()
        .filter(|r| r.variant == "blocked" && (!multicore || r.threads <= hw))
        .map(|r| r.threads)
        .max()
        .unwrap_or(1);
    if check_t < 2 {
        return Ok(());
    }
    for r in rows {
        if r.variant != "blocked"
            || r.threads != check_t
            || r.baseline != Some("blocked_1thread")
            || !matches!(r.kernel, "gram" | "gemm_tn")
        {
            continue;
        }
        let sp = r.speedup.unwrap_or(f64::NAN);
        if multicore {
            if sp.is_nan() || sp <= 1.0 {
                return Err(format!(
                    "{} at n={} s={} does not scale: {}-thread speedup {sp:.3} ≤ 1.0 \
                     vs 1-thread blocked (hardware_threads={hw})",
                    r.kernel, r.n, r.s, r.threads
                ));
            }
        } else if sp.is_nan() || sp < 1.0 / 2.5 {
            return Err(format!(
                "{} at n={} s={}: pool dispatch overhead out of bounds on a single \
                 hardware thread: {}-thread time is {:.2}× the 1-thread time (limit 2.5×)",
                r.kernel,
                r.n,
                r.s,
                r.threads,
                1.0 / sp
            ));
        }
    }
    Ok(())
}

fn json_escape_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.9}")
    } else {
        "null".to_string()
    }
}

fn write_json(rows: &[Row], quick: bool, pairs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"kernels\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"pool_lanes\": {},", parkit::pool_lanes());
    let _ = writeln!(out, "  \"hardware_threads\": {},", hardware_threads());
    let _ = writeln!(out, "  \"simd\": \"{}\",", dense::simd_label());
    let _ = writeln!(out, "  \"tile\": {},", dense::TILE);
    let _ = writeln!(out, "  \"row_block\": {},", dense::ROW_BLOCK);
    let _ = writeln!(out, "  \"gate_estimator\": \"paired_median\",");
    let _ = writeln!(out, "  \"gate_pairs\": {pairs},");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = match r.speedup {
            Some(sp) => json_escape_f64(sp),
            None => "null".to_string(),
        };
        let baseline = match r.baseline {
            Some(b) => format!("\"{b}\""),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"n\": {}, \"s\": {}, \"k\": {}, \"threads\": {}, \"secs\": {}, \"gflops\": {}, \"bytes_moved\": {}, \"baseline\": {}, \"speedup\": {}}}",
            r.kernel,
            r.variant,
            r.n,
            r.s,
            r.k,
            r.threads,
            json_escape_f64(r.secs),
            json_escape_f64(r.gflops),
            r.bytes_moved,
            baseline,
            speedup
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let trace_out = match bench::cli::parse_trace_arg(std::env::args().skip(1)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("kernels: {e}");
            eprintln!("usage: kernels [--trace out.json]");
            std::process::exit(2);
        }
    };
    bench::cli::start_tracing(&trace_out);
    let quick = quick();
    let reps = if quick { 3 } else { 10 };
    let pairs = if quick { 25 } else { 41 };
    // Thread sweep: 1 plus powers of two up to the pool width, so the
    // row-parallel TRSM's scaling is visible in the JSON on multi-core
    // machines (on a single hardware thread the >1 rows exercise the pool
    // mechanism under oversubscription).
    let lanes = parkit::pool_lanes();
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t <= lanes.min(8) {
        thread_counts.push(t);
        t *= 2;
    }
    let shapes: &[(usize, usize)] = if quick {
        &[(200_000, 8)]
    } else {
        &[(200_000, 8), (50_000, 4), (100_000, 16)]
    };
    let mut rows = Vec::new();
    for &(n, s) in shapes {
        eprintln!("benchmarking {n}x{s} panels ...");
        bench_shape(&mut rows, n, s, reps, pairs, &thread_counts);
    }
    eprintln!("benchmarking one s-step GMRES iteration ...");
    bench_gmres_iteration(&mut rows, quick, &thread_counts);

    // Human-readable summary.
    let header = [
        "kernel", "variant", "n", "s", "threads", "secs", "GF/s", "MB", "speedup",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                r.variant.to_string(),
                r.n.to_string(),
                r.s.to_string(),
                r.threads.to_string(),
                format!("{:.5}", r.secs),
                format!("{:.2}", r.gflops),
                format!("{:.1}", r.bytes_moved as f64 / 1e6),
                match (r.speedup, r.baseline) {
                    (Some(sp), Some(b)) => format!("{sp:.2}x vs {b}"),
                    _ => "-".to_string(),
                },
            ]
        })
        .collect();
    bench::print_table("kernel baselines", &header, &table);

    let json = write_json(&rows, quick, pairs);
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    eprintln!("wrote BENCH_kernels.json ({} rows)", rows.len());

    // Headline acceptance numbers on the 200k×8 shape.
    let headline = |kernel: &str| {
        rows.iter()
            .find(|r| {
                r.kernel == kernel
                    && r.variant == "blocked"
                    && r.n == 200_000
                    && r.threads == 1
                    && r.baseline == Some("naive")
            })
            .and_then(|r| r.speedup)
    };
    if let (Some(g), Some(tn)) = (headline("gram"), headline("gemm_tn")) {
        println!("\nheadline single-thread speedups on 200000x8: gram {g:.2}x, gemm_tn {tn:.2}x");
    }
    if matches!(
        std::env::var("BENCH_SCALING_CHECK").as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    ) {
        match scaling_check(&rows) {
            Ok(()) => eprintln!(
                "scaling check passed (hardware_threads={}, simd={})",
                hardware_threads(),
                dense::simd_label()
            ),
            Err(msg) => {
                eprintln!("scaling check FAILED: {msg}");
                bench::cli::finish_tracing(&trace_out);
                std::process::exit(1);
            }
        }
    }
    bench::cli::finish_tracing(&trace_out);
}
