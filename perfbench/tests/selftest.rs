//! The benchmark's own checks: every metric `BENCHMARK.json` names is
//! printed, with its unit, by a short run of every workload in both modes;
//! the compare mode accepts the records those runs leave, and flags a
//! change in the share of failed decodes but not in their count.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn out_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}"))
}

/// Runs one short workload and checks its result line against the catalog.
fn run(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(out_dir(workload))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(line).expect("the last line is JSON");
    let keys: Vec<&str> = match &result {
        Value::Object(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is not an object: {line}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));

    let printed: Vec<(String, String)> = match result.get("metrics") {
        Some(Value::Object(f)) => f
            .iter()
            .map(|(k, m)| {
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{k} has no value"
                );
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (k.clone(), unit.to_string())
            })
            .collect(),
        _ => panic!("no metrics object: {line}"),
    };
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(printed, declared(section), "{workload} --trace {trace}");
    if !trace {
        let value = |k: &str| {
            result
                .get("metrics")
                .and_then(|m| m.get(k))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .expect("metric")
        };
        for (name, _) in declared(section) {
            assert!(
                value(&name) > 0.0,
                "{workload}: end-to-end metric {name} reads 0"
            );
        }
    }
}

fn run_both_and_compare(workload: &str) {
    run(workload, false);
    run(workload, true);
    let dir = out_dir(workload);
    assert!(
        compare(&dir, &dir),
        "a record set compared with itself must pass"
    );
}

#[test]
fn rx_single_prints_every_declared_metric() {
    run_both_and_compare("rx-single");
}

#[test]
fn gateway_net_prints_every_declared_metric() {
    run_both_and_compare("gateway-net");
}

#[test]
fn serve_paced_prints_every_declared_metric() {
    run_both_and_compare("serve-paced");
}

/// Writes one untraced run record of a lossy seed into `dir`.
fn write_lossy_record(dir: &Path, attempted: u64, failed: u64) {
    std::fs::create_dir_all(dir).expect("record directory");
    let record = format!(
        r#"{{"workload": "gateway-net", "seed": 3, "trace": false,
            "host": {{"cpu_model": "test", "nproc": 2, "simd_backend": "scalar"}},
            "correct": false, "attempted": {attempted}, "failed": {failed},
            "metrics": {{"decode_ratio": {{"value": 0.99, "unit": "ratio"}}}}}}"#
    );
    std::fs::write(dir.join("gateway-net-seed3-trace0.json"), record).expect("write record");
}

fn compare(a: &Path, b: &Path) -> bool {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("compare")
        .arg(a)
        .arg(b)
        .arg("--benchmark")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .status()
        .expect("run compare")
        .success()
}

#[test]
fn compare_weighs_failures_by_attempts() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-compare");
    // The same loss over a different number of attempts, as when a faster
    // host fits more runs of one seed into the same seconds.
    write_lossy_record(&root.join("a"), 900, 3);
    write_lossy_record(&root.join("b"), 1500, 5);
    write_lossy_record(&root.join("c"), 900, 6);
    assert!(compare(&root.join("a"), &root.join("b")), "same loss share");
    assert!(!compare(&root.join("a"), &root.join("c")), "loss doubled");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
