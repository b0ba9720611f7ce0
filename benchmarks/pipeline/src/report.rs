//! The run's result: named metrics with units, the operation ledger,
//! and the two output forms (one `name value unit` line per metric, then
//! one JSON object as the last line of stdout).

use crate::spec::{END_TO_END, PER_LAYER};

pub struct Report {
    /// The metric table of this mode (`END_TO_END` or `PER_LAYER`).
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    /// Operations whose output was checked, and how many were wrong.
    pub ops: u64,
    pub failed_ops: u64,
    /// Why each failed operation failed, for the human reader.
    pub failures: Vec<String>,
}

impl Report {
    pub fn new(traced: bool) -> Report {
        let table: &'static [(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        Report {
            table,
            values: vec![None; table.len()],
            ops: 0,
            failed_ops: 0,
            failures: Vec::new(),
        }
    }

    /// Records a metric of this mode. A name outside the mode's table, or
    /// one set twice, is a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this mode's table"));
        assert!(self.values[i].is_none(), "metric {name} reported twice");
        self.values[i] = Some(value);
    }

    /// Counts one checked operation; `problem` names what was wrong.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed_ops += 1;
            self.failures.push(problem());
        }
    }

    /// Names of this mode's metrics nobody reported.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table.iter().zip(&self.values).filter(|(_, v)| v.is_none()).map(|(t, _)| t.0).collect()
    }

    pub fn correct(&self) -> bool {
        self.failed_ops == 0 && self.missing().is_empty()
    }

    /// `name value unit`, one metric per line, in table order.
    pub fn print_metrics(&self) {
        for ((name, unit), value) in self.table.iter().zip(&self.values) {
            if let Some(v) = value {
                println!("{name} {v} {unit}");
            }
        }
    }

    /// The contract's result object; must be the last line of stdout.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .table
            .iter()
            .zip(&self.values)
            .filter_map(|((name, unit), v)| {
                v.map(|v| {
                    format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v))
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.max(1),
            self.failed_ops,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits the measurement has. Non-finite
/// values have no JSON form; they become `null`, which fails the reader
/// loudly instead of passing as a number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_metrics_are_listed_and_fail_the_run() {
        let mut r = Report::new(false);
        r.put("setup_s", 0.25);
        assert!(r.missing().contains(&"probe_ns"));
        assert!(!r.missing().contains(&"setup_s"));
        assert!(!r.correct(), "a run that misses a metric is not correct");
        assert!(r.json().contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut r = Report::new(false);
        for (name, _) in END_TO_END {
            r.put(name, 1.5);
        }
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "container differs".into());
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
