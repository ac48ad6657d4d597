//! Sample statistics and the benchmark's printed output.

use std::fmt::Write as _;

/// The median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method); a single sample
/// is all three.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |p: f64| {
                let m = p * (n as f64 + 1.0);
                let j = (m.floor() as usize).clamp(1, n - 1);
                let delta = m - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            let mid = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            (at(0.25), mid, at(0.75))
        }
    }
}

/// One reported metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// Interquartile range as a share of the median, when timed.
    pub spread: Option<f64>,
}

impl Metric {
    /// An exact count or ratio of counts (one sample, no spread).
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            spread: None,
        }
    }

    /// The median of timed samples.
    pub fn timed(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, mid, q3) = quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: mid,
            samples: samples.len(),
            spread: (mid != 0.0).then(|| (q3 - q1) / mid),
        }
    }
}

/// Renders metrics as an aligned table.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("== {title}\n");
    let _ = writeln!(
        out,
        "{:<40} {:>16} {:<9} {:>7} {:>8}",
        "metric", "value", "unit", "samples", "iqr/med"
    );
    for m in metrics {
        let spread = m
            .spread
            .map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
        let _ = writeln!(
            out,
            "{:<40} {:>16.6} {:<9} {:>7} {:>8}",
            m.name, m.value, m.unit, m.samples, spread
        );
    }
    out
}

/// The final result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; no metric should produce one.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[Metric::exact("a.b", "s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
