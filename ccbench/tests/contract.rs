//! `BENCHMARK.json` must describe exactly what `ccbench` prints.

use ccbench::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use ccbench::report::{num, parse_json};
use serde::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(listed: &[Value], table: &[Metric], with_bound: bool) {
    assert_eq!(listed.len(), table.len(), "metric count");
    for (v, m) in listed.iter().zip(table) {
        let mut want = vec!["name", "unit", "better"];
        if with_bound {
            want.push("bound");
        }
        assert_eq!(keys(v), want, "{}", m.name);
        assert_eq!(string(v, "name"), m.name);
        assert_eq!(string(v, "unit"), m.unit, "{}", m.name);
        assert_eq!(string(v, "better"), m.better.as_str(), "{}", m.name);
        assert_eq!(v.get("bound").and_then(num), m.bound, "{}", m.name);
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        if let Some(b) = m.bound {
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let b = benchmark();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = array(&b, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (v, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(v), ["name", "why"]);
        assert_eq!(string(v, "name"), w.name);
        assert_eq!(string(v, "why"), w.why);
        assert!(valid_name(w.name));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    check_metrics(array(&b, "end_to_end"), &END_TO_END, true);
    check_metrics(array(&b, "per_layer"), &PER_LAYER, false);
}

#[test]
fn metric_names_are_unique_and_setup_has_the_largest_bound() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn the_command_stays_inside_the_benchmark_directory() {
    let b = benchmark();
    let paths: Vec<&str> = array(&b, "paths")
        .iter()
        .map(|p| match p {
            Value::String(s) => s.as_str(),
            other => panic!("path {other:?}"),
        })
        .collect();
    assert_eq!(paths, ["ccbench"]);
    let command = array(&b, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let Value::String(arg) = arg else {
            panic!("{arg:?}")
        };
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        if arg.contains('/') {
            assert!(
                paths.iter().any(|p| arg.starts_with(&format!("{p}/"))),
                "{arg}"
            );
        }
    }
    let secs = b.get("run_seconds").and_then(num).expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}
