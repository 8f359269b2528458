//! Runs every workload in smoke size, untraced and traced, and checks the
//! result line against `BENCHMARK.json`: the run is correct, no operation
//! failed, and the metrics are exactly the ones the file names, with its
//! units.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object holding {key}, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let spec = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
    match field(&spec, section) {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn run(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(field(&result, "correct"), &Value::Bool(true));
    assert_eq!(number(field(&result, "failed")), 0.0);
    assert!(number(field(&result, "attempted")) >= 1.0);

    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut expected = declared(section);
    let Value::Object(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object");
    };
    let mut printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = number(field(m, "value"));
            assert!(value.is_finite(), "{name} is not finite");
            if trace == 0 {
                assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
            }
            (name.clone(), text(field(m, "unit")).to_string())
        })
        .collect();
    expected.sort();
    printed.sort();
    assert_eq!(
        printed, expected,
        "{workload} trace {trace} metrics differ from {section}"
    );
}

#[test]
fn ingest_smoke() {
    run("ingest", 0);
    run("ingest", 1);
}

#[test]
fn catchup_smoke() {
    run("catchup", 0);
    run("catchup", 1);
}

#[test]
fn bounty_smoke() {
    run("bounty", 0);
    run("bounty", 1);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nonesuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
