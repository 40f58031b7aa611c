//! Measurements of single layers taken from outside: timed calls into
//! `dense` and `parkit`, self time from the trace timeline, and the host
//! facts the report is read against.

use dense::blas3::{fused_update_proj_gram, gemm_nn_minus, gemm_tn, gram, trsm_right_upper};
use dense::Matrix;
use std::time::Instant;

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median seconds per call of `f`, over at least `min_reps` calls and
/// at least `budget` seconds.
fn per_call(min_reps: usize, budget: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// One `dense::blas3` kernel at a panel shape: achieved rate and its
/// computed operation intensity (flops over the bytes the kernel must
/// stream at least once).
pub struct KernelRate {
    pub name: &'static str,
    pub gflops: f64,
    pub flop_per_byte: f64,
}

/// Time the five tall-skinny kernels of block orthogonalization on a panel
/// of `s` columns against `k` previous columns of `n` rows.
pub fn dense_kernels(n: usize, k: usize, s: usize) -> Vec<KernelRate> {
    let fill = |rows, cols, salt: usize| {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 17 + salt) % 97) as f64 / 97.0 - 0.5
        })
    };
    let q = fill(n, k, 1);
    let mut v = fill(n, s, 2);
    let p = fill(k, s, 3);
    // Unit upper triangle with small, nonzero off-diagonals: every entry
    // takes part (the kernel skips zeros), and repeated solves change the
    // panel's magnitude too little to reach denormals or overflow.
    let r = Matrix::from_fn(s, s, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Less => 1e-6 * (1 + (i * 7 + j) % 5) as f64,
        std::cmp::Ordering::Greater => 0.0,
    });
    let (nf, kf, sf) = (n as f64, k as f64, s as f64);
    let bytes = |cols: f64| 8.0 * nf * cols;
    let rate = |name, flops: f64, moved: f64, f: &mut dyn FnMut()| {
        let _sp = trace::span("bench", name);
        let secs = per_call(5, 0.25, f);
        KernelRate {
            name,
            gflops: flops / secs / 1e9,
            flop_per_byte: flops / moved,
        }
    };
    vec![
        rate("gram", nf * sf * (sf + 1.0), bytes(sf), &mut || {
            std::hint::black_box(gram(&v.view()));
        }),
        rate("gemm_tn", 2.0 * nf * kf * sf, bytes(kf + sf), &mut || {
            std::hint::black_box(gemm_tn(&q.view(), &v.view()));
        }),
        rate(
            "gemm_nn_minus",
            2.0 * nf * kf * sf,
            bytes(kf + 2.0 * sf),
            &mut || gemm_nn_minus(&mut v.view_mut(), &q.view(), &p),
        ),
        rate("trsm", nf * sf * sf, bytes(2.0 * sf), &mut || {
            trsm_right_upper(&mut v.view_mut(), &r)
        }),
        rate(
            "fused",
            4.0 * nf * kf * sf + nf * sf * (sf + 1.0),
            bytes(kf + 2.0 * sf),
            &mut || {
                std::hint::black_box(fused_update_proj_gram(&mut v.view_mut(), &q.view(), &p));
            },
        ),
    ]
}

/// Round trip of one empty `parkit::parallel_for_chunks` region that the
/// pool splits into at least two chunks, in seconds.
pub fn pool_dispatch() -> f64 {
    let mut data = vec![0u8; 1 << 16];
    per_call(2000, 0.25, || {
        let _sp = trace::span("bench", "dispatch");
        parkit::parallel_for_chunks(&mut data, |chunk, _| {
            std::hint::black_box(chunk);
        });
    })
}

/// Self time per `(cat, name)` span kind: span time minus the time its
/// direct children on the same thread cover, summed over threads.
/// Returns `(cat, name, total_ns, self_ns)`, largest self time first.
pub fn self_times(tr: &trace::Trace) -> Vec<(String, String, u64, u64)> {
    let mut rows: Vec<(String, String, u64, u64)> = Vec::new();
    for thread in &tr.threads {
        let mut spans: Vec<(u64, u64, &str, &str)> = thread
            .events
            .iter()
            .filter_map(|e| match e.kind {
                trace::EventKind::Span { dur_ns } => Some((e.ts_ns, dur_ns, e.cat, e.name)),
                _ => None,
            })
            .collect();
        // Parents open first and, on equal starts, last longer.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut self_ns: Vec<u64> = spans.iter().map(|s| s.1).collect();
        let mut open: Vec<usize> = Vec::new();
        for (i, &(ts, dur, _, _)) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if ts >= spans[top].0 + spans[top].1 {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                self_ns[parent] = self_ns[parent].saturating_sub(dur);
            }
            open.push(i);
        }
        for (i, &(_, dur, cat, name)) in spans.iter().enumerate() {
            match rows.iter_mut().find(|r| r.0 == cat && r.1 == name) {
                Some(row) => {
                    row.2 += dur;
                    row.3 += self_ns[i];
                }
                None => rows.push((cat.to_string(), name.to_string(), dur, self_ns[i])),
            }
        }
    }
    rows.sort_by(|a, b| {
        b.3.cmp(&a.3)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    rows
}

/// Largest per-thread time in spans of category `cat` (named `name`, when
/// given), in seconds: on a multi-rank run, the slowest rank's share.
pub fn max_thread_s(tr: &trace::Trace, cat: &str, name: Option<&str>) -> f64 {
    tr.threads
        .iter()
        .map(|t| {
            t.spans
                .iter()
                .filter(|r| r.cat == cat && name.is_none_or(|n| r.name == n))
                .map(|r| r.total_ns)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0) as f64
        * 1e-9
}

/// Spans `(cat, name)` recorded on all threads.
pub fn span_count(tr: &trace::Trace, cat: &str, name: &str) -> u64 {
    tr.merged_spans()
        .iter()
        .filter(|r| r.cat == cat && r.name == name)
        .map(|r| r.count)
        .sum()
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size of the last-level cache in bytes, as the kernel reports it.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u64, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            break;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (level, size) = (level.trim().parse::<u64>().ok()?, size.trim());
        let bytes = match size.strip_suffix('K') {
            Some(kb) => kb.parse::<u64>().ok()? * 1024,
            None => match size.strip_suffix('M') {
                Some(mb) => mb.parse::<u64>().ok()? << 20,
                None => size.parse().ok()?,
            },
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| head.clone()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}
