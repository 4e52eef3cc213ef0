//! # copier-bench — experiment harness support
//!
//! Shared statistics and table printing for the per-figure bench targets
//! (`benches/fig*.rs`, each with `harness = false`). Every target
//! regenerates one table or figure of the paper; EXPERIMENTS.md records
//! paper-vs-measured for each.

pub mod json;
pub mod refcore;

use copier_sim::Nanos;

/// Summary statistics over a latency sample set.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Arithmetic mean.
    pub avg: Nanos,
    /// Median.
    pub p50: Nanos,
    /// 99th percentile.
    pub p99: Nanos,
    /// 99.9th percentile (the soak benchmark's tail metric; equals the
    /// maximum below 1000 samples under the ceiling-rank definition).
    pub p999: Nanos,
    /// Minimum.
    pub min: Nanos,
    /// Maximum.
    pub max: Nanos,
    /// Sample count.
    pub n: usize,
}

/// Computes summary statistics (sorts the input).
///
/// Percentiles use the nearest-rank (ceiling) definition: the p-th
/// percentile is the smallest sample with at least `⌈p·n⌉` samples at or
/// below it. Rounding the rank instead (the classic off-by-one) reports
/// a sample *below* the true p99 for small n — e.g. the 66th of 67
/// samples instead of the 67th.
pub fn stats(samples: &mut [Nanos]) -> Stats {
    assert!(!samples.is_empty());
    samples.sort();
    let n = samples.len();
    let sum: u64 = samples.iter().map(|s| s.as_nanos()).sum();
    let pct = |p: f64| {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        samples[rank - 1]
    };
    Stats {
        avg: Nanos(sum / n as u64),
        p50: pct(0.50),
        p99: pct(0.99),
        p999: pct(0.999),
        min: samples[0],
        max: samples[n - 1],
        n,
    }
}

/// Minimum wall-clock milliseconds over `reps` *interleaved* runs of the
/// two variants. Sequential batches (all of A, then all of B) fold any
/// drift in host load into the ratio; pairing each A with an adjacent B
/// and taking minima measures the code, not the machine.
pub fn paired_min_ms(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        a();
        best.0 = best.0.min(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = std::time::Instant::now();
        b();
        best.1 = best.1.min(t1.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one row of `key = value` pairs, aligned.
pub fn row(cells: &[(&str, String)]) {
    let line: Vec<String> = cells.iter().map(|(k, v)| format!("{k}={v:>10}")).collect();
    println!("  {}", line.join("  "));
}

/// Formats a speedup/change versus a baseline.
pub fn delta(baseline: Nanos, other: Nanos) -> String {
    let b = baseline.as_nanos() as f64;
    let o = other.as_nanos() as f64;
    format!("{:+.1}%", (o - b) / b * 100.0)
}

/// Formats a throughput ratio.
pub fn ratio(new: f64, old: f64) -> String {
    format!("{:.2}x", new / old)
}

/// Human-readable byte size.
pub fn kb(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}MB", bytes / 1024 / 1024)
    } else if bytes >= 1024 {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_percentiles() {
        let mut v: Vec<Nanos> = (1..=100).map(Nanos).collect();
        let s = stats(&mut v);
        assert_eq!(s.avg, Nanos(50));
        assert_eq!(s.p50, Nanos(50)); // rank ⌈100·0.5⌉ = 50 → value 50
        assert_eq!(s.p99, Nanos(99)); // rank ⌈100·0.99⌉ = 99
        assert_eq!(s.p999, Nanos(100)); // rank ⌈100·0.999⌉ = 100
        assert_eq!(s.min, Nanos(1));
        assert_eq!(s.max, Nanos(100));
    }

    #[test]
    fn stats_p999_needs_a_thousand_samples_to_leave_the_max() {
        let mut v: Vec<Nanos> = (1..=2000).map(Nanos).collect();
        let s = stats(&mut v);
        assert_eq!(s.p999, Nanos(1998)); // rank ⌈2000·0.999⌉ = 1998
        assert_eq!(s.max, Nanos(2000));
    }

    #[test]
    fn stats_percentiles_small_n_use_ceil_rank() {
        // With 67 samples, ⌈0.99·67⌉ = 67: p99 must be the maximum. The
        // old round((n-1)·p) rank gave index 65 → value 66 (an
        // underestimate).
        let mut v: Vec<Nanos> = (1..=67).map(Nanos).collect();
        let s = stats(&mut v);
        assert_eq!(s.p99, Nanos(67));
        assert_eq!(s.p50, Nanos(34)); // ⌈33.5⌉ = 34

        let mut v: Vec<Nanos> = [10, 20, 30, 40].map(Nanos).to_vec();
        let s = stats(&mut v);
        assert_eq!(s.p50, Nanos(20)); // ⌈2.0⌉ = 2 → second sample
        assert_eq!(s.p99, Nanos(40));

        let mut v = vec![Nanos(7)];
        let s = stats(&mut v);
        assert_eq!(s.p50, Nanos(7));
        assert_eq!(s.p99, Nanos(7));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(512), "512B");
        assert_eq!(kb(16 * 1024), "16KB");
        assert_eq!(kb(2 * 1024 * 1024), "2MB");
        assert_eq!(delta(Nanos(100), Nanos(80)), "-20.0%");
        assert_eq!(ratio(3.0, 2.0), "1.50x");
    }
}
