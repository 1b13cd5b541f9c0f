//! Minimal wall-clock microbenchmark harness.
//!
//! The workspace builds with no external crates, so the `benches/` targets
//! use this instead of criterion: run a closure for a warmup pass plus a
//! fixed number of samples and print min / median / max wall time. Good
//! enough to compare data structures and spot order-of-magnitude
//! regressions; not a statistics suite.

use std::time::Instant;

/// Re-export of [`std::hint::black_box`] for benchmark bodies.
pub use std::hint::black_box;

/// Time `f` for `samples` iterations (after one warmup), print one aligned
/// result line under `name` and return the median in seconds.
pub fn bench<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples = samples.max(1);
    black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    let min = times[0];
    let median = times[times.len() / 2];
    let max = times[times.len() - 1];
    println!(
        "{name:<44} {:>10}  {:>10}  {:>10}   ({samples} samples)",
        fmt_secs(min),
        fmt_secs(median),
        fmt_secs(max),
    );
    median
}

/// Print the header matching [`bench`]'s output columns.
pub fn header(group: &str) {
    println!("\n== {group} ==");
    println!(
        "{:<44} {:>10}  {:>10}  {:>10}",
        "benchmark", "min", "median", "max"
    );
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}
