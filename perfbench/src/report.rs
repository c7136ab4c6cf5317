//! Metric records, the statistics that summarize samples, and the two
//! output forms: `name value unit` lines and the final JSON object.

use crate::{ALIASES, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`], [`PER_LAYER`] or [`ALIASES`].
    pub name: &'static str,
    /// Unit, from the same table.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Deterministic: a simulated-clock reading or a count, identical
    /// across runs of one seed. Host timings and memory are not.
    pub exact: bool,
    /// Samples a host summary (median, percentile) was taken over.
    pub samples: Option<usize>,
}

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (searches or queries, every pass).
    pub attempted: u64,
    /// Operations that failed: an engine error, a failed validation or a
    /// wrong, rejected or expired answer.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
}

/// Failures described in [`Report::failures`] beyond which only the
/// count grows.
const MAX_DESCRIBED: usize = 10;

/// The declared `(name, unit)` entry for `name`.
fn declared(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(ALIASES)
        .find(|(n, _)| *n == name)
        .copied()
        .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
}

impl Report {
    /// Record a deterministic metric (simulated clock or count).
    pub(crate) fn exact(&mut self, name: &str, value: f64) {
        self.push(name, value, true, None);
    }

    /// Record a host-clock or memory metric summarizing `samples`.
    pub(crate) fn host(&mut self, name: &str, value: f64, samples: usize) {
        self.push(name, value, false, Some(samples));
    }

    fn push(&mut self, name: &str, value: f64, exact: bool, samples: Option<usize>) {
        assert!(self.get(name).is_none(), "metric {name:?} recorded twice");
        let (name, unit) = declared(name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            exact,
            samples,
        });
    }

    /// Count one failed operation.
    pub(crate) fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < MAX_DESCRIBED {
            self.failures.push(why);
        }
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The deterministic metrics, for comparing runs of one seed.
    pub fn exact_metrics(&self) -> Vec<(&'static str, u64)> {
        self.metrics
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    }

    /// Check that every metric of `table` was recorded with a finite
    /// value.
    pub fn check_complete(&self, table: &[(&str, &str)]) -> Result<(), String> {
        for (name, _) in table {
            match self.get(name) {
                None => return Err(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Every metric as a `name value unit` line; host summaries add the
    /// sample count as a trailing comment.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{} {} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, "  # {n} samples");
            }
            out.push('\n');
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, and the
    /// metrics of `table`.
    pub fn render_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.get(name).unwrap_or(f64::NAN);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for no samples).
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub(crate) fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean of `xs` (0 for no samples).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set size of this process in MB (VmHWM).
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn json_lists_the_table_in_order() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.host("setup_s", 1.5, 3);
        r.exact("sim_qps", 2.0);
        let json = r.render_json(&[("setup_s", "s"), ("sim_qps", "1/s")]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"sim_qps\": {\"value\": 2, \"unit\": \"1/s\"}}}"
        );
    }
}
