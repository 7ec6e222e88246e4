//! What one run measured and checked, and how it is printed.

use crate::catalog::Metric;
use serde::{Deserialize, Value};
use std::collections::BTreeMap;

/// Any JSON document, parsed with the vendored `serde_json` (whose data
/// model has no `Deserialize` impl for a bare [`Value`]).
#[derive(Debug, Clone)]
pub struct Json(pub Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// On malformed JSON.
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The measurements and check results of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Workload-specific figures printed for people but not part of the
    /// JSON result: `(name, value, unit)`.
    extras: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    /// Operations (cells or jobs) checked.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Report {
    /// Records a catalog metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a figure that is printed but not part of the JSON result.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push((name.into(), value, unit));
    }

    /// Records a free-form line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `n` checked operations, `bad` of which failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad.min(n);
    }

    /// Records a failed check on one operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Checks `ok`; on failure records `what`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// The printed lines: one `name value unit` line per metric in
    /// `metrics` and per extra, then the JSON result line. A metric the
    /// run failed to measure is a failed check.
    pub fn render(mut self, metrics: &[Metric]) -> Vec<String> {
        let mut lines = Vec::new();
        let mut out: Vec<(String, Value)> = Vec::new();
        for m in metrics {
            match self.values.get(m.name).copied().filter(|v| v.is_finite()) {
                Some(v) => {
                    lines.push(format!("{} {v} {}", m.name, m.unit));
                    out.push((
                        m.name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::Float(v)),
                            ("unit".to_string(), Value::String(m.unit.to_string())),
                        ]),
                    ));
                }
                None => self
                    .failures
                    .push(format!("metric {} was not measured", m.name)),
            }
        }
        for (name, v, unit) in &self.extras {
            lines.push(format!("{name} {v} {unit}"));
        }
        lines.extend(self.notes.iter().cloned());
        for f in &self.failures {
            lines.push(format!("check failed: {f}"));
        }
        // A failed check that no operation tally absorbed still fails one.
        if !self.failures.is_empty() && self.failed == 0 {
            self.failed = 1;
            self.attempted = self.attempted.max(1);
        }
        let result = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failures.is_empty())),
            (
                "attempted".to_string(),
                Value::Int(i128::from(self.attempted.max(1))),
            ),
            ("failed".to_string(), Value::Int(i128::from(self.failed))),
            ("metrics".to_string(), Value::Object(out)),
        ]);
        lines.push(serde_json::to_string(&Raw(&result)).unwrap_or_default());
        lines
    }
}

/// Lets `serde_json` print a bare [`Value`].
struct Raw<'a>(&'a Value);

impl serde::Serialize for Raw<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Better, Metric};

    const M: [Metric; 2] = [
        Metric {
            name: "a_ms",
            unit: "ms",
            better: Better::Lower,
            bound: Some(0.1),
        },
        Metric {
            name: "b",
            unit: "count",
            better: Better::Higher,
            bound: None,
        },
    ];

    fn result(lines: &[String]) -> Value {
        parse_json(lines.last().unwrap()).unwrap()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.set("a_ms", 1.2034);
        r.set("b", 7.0);
        r.tally(10, 0);
        let lines = r.render(&M);
        assert_eq!(lines[0], "a_ms 1.2034 ms");
        let v = result(&lines);
        let Value::Object(keys) = &v else { panic!() };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Int(10)));
        let a = v.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(a.get("value").and_then(num), Some(1.2034));
        assert_eq!(a.get("unit"), Some(&Value::String("ms".to_string())));
    }

    #[test]
    fn a_missing_metric_or_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.set("a_ms", 1.0);
        r.tally(5, 0);
        let v = result(&r.render(&M));
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed"), Some(&Value::Int(1)));

        let mut r = Report::default();
        r.set("a_ms", 1.0);
        r.set("b", 1.0);
        r.tally(5, 2);
        r.fail("two cells timed out");
        let v = result(&r.render(&M));
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed"), Some(&Value::Int(2)));
    }
}
