//! The result line and the order statistics every workload reports.

use std::fmt::Write as _;

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints as its last line.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (jobs, seeds, served ops) plus checks made.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one correctness check; a failed one is recorded with its
    /// reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// The JSON result line. Values keep every digit `f64` prints.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of the samples (mean of the middle two for an even count); 0
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q ∈ [0, 1]`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples strictly above the `q` quantile — the support a tail
/// percentile has.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let cut = quantile(xs, q);
    xs.iter().filter(|&&x| x > cut).count()
}

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SUPPORT: usize = 10;

/// The tail percentile a `*_p95_*` metric reports: the 95th when at
/// least [`TAIL_SUPPORT`] samples lie beyond it, else the highest one
/// that has that many beyond it, but never below the median. Returns
/// `(q, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let q = (1.0 - TAIL_SUPPORT as f64 / n).clamp(0.5, 0.95);
    (q, quantile(xs, q))
}

/// One stderr line stating a tail metric's percentile and support.
pub fn describe_tail(what: &str, xs: &[f64]) -> String {
    let (q, value) = tail(xs);
    format!(
        "{what}: p{:.1} = {value:.3} ms over n={}, {} beyond",
        100.0 * q,
        xs.len(),
        beyond(xs, q)
    )
}

/// This process's peak resident set (VmHWM) in MiB.
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb(std::process::id())
}

/// A process's peak resident set (VmHWM) in MiB, 0 if unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(beyond(&xs, 0.5), 2);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(400)).0, 0.95);
        let xs = samples(120);
        let (q, value) = tail(&xs);
        assert!((q - 110.0 / 120.0).abs() < 1e-12, "{q}");
        assert!(beyond(&xs, q) >= TAIL_SUPPORT);
        assert!(value > median(&xs));
        assert_eq!(tail(&samples(12)), (0.5, median(&samples(12))));
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let mut r = Report::default();
        r.metric("wall_s", 1.0 / 3.0, "s");
        r.check(true, String::new);
        let line = r.json_line();
        let parsed = liteworp_runner::Json::parse(&line).unwrap();
        assert_eq!(
            parsed
                .get("correct")
                .and_then(liteworp_runner::Json::as_bool),
            Some(true)
        );
        assert!(line.contains("0.3333333333333333"), "{line}");
    }
}
