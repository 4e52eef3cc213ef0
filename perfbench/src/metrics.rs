//! Metric math shared by the workloads: ceiling-rank percentiles, SLO
//! accounting, the quartile spread, span summaries, and the named metrics
//! the benchmark's last line prints.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Nearest-rank (ceiling) percentile of an ascending slice: the smallest
/// sample with at least `⌈p·n⌉` samples at or below it — the definition
/// `copier_bench::stats` uses, so numbers compare with the figure benches.
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Latency outcome of one attempted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed, with its latency in virtual ns.
    Done(u64),
    /// Refused (`WouldBlock` / `Overloaded`) or poisoned: never completed.
    Missed,
}

impl Outcome {
    /// The latency, with a miss ranking above any latency.
    pub fn rank(self) -> u64 {
        match self {
            Outcome::Done(l) => l,
            Outcome::Missed => u64::MAX,
        }
    }
}

/// Ascending latencies of the completed operations.
pub fn completed(outcomes: &[Outcome]) -> Vec<u64> {
    let mut v: Vec<u64> = outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Done(l) => Some(*l),
            Outcome::Missed => None,
        })
        .collect();
    v.sort_unstable();
    v
}

/// Share of attempted operations that completed within `limit` ns.
/// Refused and failed operations count as misses.
pub fn slo_frac(outcomes: &[Outcome], limit: u64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let met = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Done(l) if *l <= limit))
        .count();
    met as f64 / outcomes.len() as f64
}

/// Percentile over every attempted operation, a miss ranking above any
/// latency (`u64::MAX`): at more than `1 − p` misses it is unbounded.
pub fn pct_attempted(outcomes: &[Outcome], p: f64) -> u64 {
    let mut v: Vec<u64> = outcomes.iter().map(|o| o.rank()).collect();
    v.sort_unstable();
    pct(&v, p)
}

/// Median of unsorted host timings (the mean of the middle pair for an
/// even count, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default `exclusive` method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median — the figure each end-to-end bound is judged
/// against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// FNV-1a fold: the fingerprint of a run's virtual-time results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Virtual-time spans the benchmark stamps around its own calls into the
/// layers and in completion handlers. Disabled on untraced runs, where
/// `record` is a no-op; spans stay in memory until the run is summarised.
pub struct Spans {
    on: bool,
    by_name: RefCell<BTreeMap<&'static str, Vec<u64>>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new(false)
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            by_name: RefCell::new(BTreeMap::new()),
        }
    }

    /// Records one span of `name` from `start` to `end` (virtual ns).
    pub fn record(&self, name: &'static str, start: u64, end: u64) {
        if self.on {
            self.by_name
                .borrow_mut()
                .entry(name)
                .or_default()
                .push(end.saturating_sub(start));
        }
    }

    /// Adds `<name>.p50` and `<name>.p99` in µs to `m` for every stage in
    /// `names` (0 for a stage this workload never crosses).
    pub fn summarise(&self, names: &[&'static str], m: &mut Metrics) {
        let mut by = self.by_name.borrow_mut();
        for &name in names {
            let (p50, p99) = match by.get_mut(name) {
                Some(v) if !v.is_empty() => {
                    v.sort_unstable();
                    (pct(v, 0.50), pct(v, 0.99))
                }
                _ => (0, 0),
            };
            m.set(&format!("{name}.p50"), p50 as f64 / 1e3, "us");
            m.set(&format!("{name}.p99"), p99 as f64 / 1e3, "us");
        }
    }
}

/// Named metrics with units, kept in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Sets (or overwrites) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit.to_string();
            }
            None => self.0.push((name.to_string(), value, unit.to_string())),
        }
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Folds every value into a fingerprint.
    pub fn fold(&self, f: &mut Fnv) {
        for (_, v, _) in &self.0 {
            f.f64(*v);
        }
    }

    /// `"name": {"value": v, "unit": "u"}` pairs as a JSON object body.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// A JSON number (JSON has no NaN or infinity; those print as 0 and are
/// caught by the finiteness check before the report).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Ratio that reads 0 when the denominator is 0 (a counter the workload
/// never exercises).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::Nanos;

    #[test]
    fn percentiles_match_copier_bench_stats() {
        let sets: Vec<Vec<u64>> = vec![
            (1..=100).collect(),
            (1..=67).collect(),
            (1..=2000).collect(),
            vec![10, 20, 30, 40],
            vec![7],
            vec![5, 5, 9, 1, 300, 42, 42, 8, 1000, 3, 77],
        ];
        for s in sets {
            let mut nanos: Vec<Nanos> = s.iter().copied().map(Nanos).collect();
            let want = copier_bench::stats(&mut nanos);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            assert_eq!(pct(&sorted, 0.50), want.p50.as_nanos(), "p50 of {s:?}");
            assert_eq!(pct(&sorted, 0.99), want.p99.as_nanos(), "p99 of {s:?}");
            assert_eq!(pct(&sorted, 0.999), want.p999.as_nanos(), "p999 of {s:?}");
        }
    }

    #[test]
    fn refused_ops_count_as_slo_misses() {
        let o = [
            Outcome::Done(10),
            Outcome::Done(50),
            Outcome::Missed,
            Outcome::Done(200),
        ];
        // 2 of 4 attempted met the 100 ns limit: the refusal is a miss,
        // not dropped from the denominator.
        assert_eq!(slo_frac(&o, 100), 0.5);
        assert_eq!(slo_frac(&o, 1_000), 0.75);
        assert_eq!(slo_frac(&[Outcome::Missed], u64::MAX), 0.0);
        // One miss in four: the p50 is a real latency, the p99 is not.
        assert_eq!(pct_attempted(&o, 0.50), 50);
        assert_eq!(pct_attempted(&o, 0.99), u64::MAX);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartile_spread(&v), (8.25 - 2.75) / 5.5);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // Identical runs have no spread.
        assert_eq!(quartile_spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn spans_summarise_only_when_on() {
        let mut m = Metrics::default();
        let off = Spans::new(false);
        off.record("a", 0, 5_000);
        off.summarise(&["a"], &mut m);
        assert_eq!(m.get("a.p99"), Some(0.0));
        let on = Spans::new(true);
        for d in 1..=100 {
            on.record("a", 1_000, 1_000 + d * 1_000);
        }
        on.summarise(&["a"], &mut m);
        assert_eq!(m.get("a.p50"), Some(50.0));
        assert_eq!(m.get("a.p99"), Some(99.0));
    }
}
