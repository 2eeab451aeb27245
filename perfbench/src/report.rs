//! Named metrics, the human-readable table and the final JSON line.

use std::fmt::Write as _;

/// Metrics in the order they were recorded.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` = `value` in `unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// `(name, value, unit)` triples in recording order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.entries.iter().filter(|(_, v, _)| !v.is_finite()).map(|(n, _, _)| n.clone()).collect()
    }

    /// One `name value unit` line per metric.
    pub fn table(&self) -> String {
        let width = self.entries.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<width$}  {value:>16.6}  {unit}");
        }
        out
    }

    /// The result object: `{"correct", "attempted", "failed", "metrics"}`.
    /// Non-finite values are written as 0 (the caller counts them as
    /// failures first).
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
