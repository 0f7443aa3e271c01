//! `perfbench compare <dir-a> <dir-b>`: compares two sets of run records
//! (A = parent, B = change) under the bounds in `BENCHMARK.json`.
//!
//! For every workload and end-to-end metric it prints each side's median
//! and quartiles, the share of seed-matched pairs B wins, and a verdict:
//!
//! * `unresolved` — A's own quartile spread is wider than the bound, so a
//!   change within it cannot be told from noise (unless every B run beats
//!   every A run, which reads `improved`);
//! * `regression` — B's median is worse than A's by more than the bound;
//! * `improved` — B wins at least nine pairs in ten and the medians differ
//!   by more than A's quartile spread;
//! * `within bound` — otherwise.
//!
//! Any change in `decode_ratio`, `symbol_accuracy` or the share of failed
//! decodes (`failed` over `attempted`; how many decodes a run attempts
//! follows host speed) between runs of the same seed is flagged, as is a host mismatch (CPU
//! model, core count or SIMD backend) and any run during which the
//! hypervisor took more than 5% of the CPU time. Per-layer metrics of traced records
//! are listed with their medians, without a verdict. Exits 1 on a
//! regression or a decode change.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::stats::{median, quartiles};

/// A metric of `BENCHMARK.json`.
struct MetricSpec {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

/// One run record as written by a run.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    /// Share of the run's decodes that failed.
    failed_share: f64,
    /// Share of CPU time the hypervisor took during the run.
    steal: f64,
    host: String,
    metrics: BTreeMap<String, f64>,
}

fn fields(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(f) => f,
        _ => &[],
    }
}

fn load_specs(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let mut specs = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in bench.get(section).and_then(Value::as_array).unwrap_or(&[]) {
            specs.push(MetricSpec {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(specs)
}

fn load_records(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut records = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(v) = serde_json::from_str(&text) else {
            continue;
        };
        let Some(workload) = v.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let metrics = fields(v.get("metrics").unwrap_or(&Value::Null))
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let host = v.get("host").map(|h| {
            ["cpu_model", "nproc", "simd_backend"]
                .iter()
                .map(|k| {
                    h.get(k)
                        .map(|x| serde_json::to_string(x).unwrap_or_default())
                        .unwrap_or_default()
                })
                .collect::<Vec<_>>()
                .join(" / ")
        });
        records.push(Record {
            workload: workload.to_string(),
            seed: v.get("seed").and_then(Value::as_u64).unwrap_or(0),
            trace: v.get("trace").and_then(Value::as_bool).unwrap_or(false),
            failed_share: v.get("failed").and_then(Value::as_f64).unwrap_or(0.0)
                / v.get("attempted").and_then(Value::as_f64).unwrap_or(1.0),
            steal: v
                .get("host_steal_share")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            host: host.unwrap_or_default(),
            metrics,
        });
    }
    if records.is_empty() {
        return Err(format!("{}: no run records", dir.display()));
    }
    Ok(records)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let d = (b - a) / a.abs();
    if lower_is_better {
        d
    } else {
        -d
    }
}

fn verdict(a: &[f64], b: &[f64], pairs: &[(f64, f64)], spec: &MetricSpec) -> (String, f64) {
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let (am, bm) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let wins = pairs
        .iter()
        .filter(|(x, y)| worse_by(*x, *y, spec.lower_is_better) < 0.0)
        .count();
    let win_rate = if pairs.is_empty() {
        f64::NAN
    } else {
        wins as f64 / pairs.len() as f64
    };
    let all_better = a.iter().all(|x| {
        b.iter()
            .all(|y| worse_by(*x, *y, spec.lower_is_better) < 0.0)
    });
    let spread = (q3 - q1) / am.abs();
    let v = if spread > bound {
        if all_better {
            "improved"
        } else {
            "unresolved"
        }
    } else if worse_by(am, bm, spec.lower_is_better) > bound {
        "regression"
    } else if win_rate >= 0.9 && -worse_by(am, bm, spec.lower_is_better) * am.abs() > q3 - q1 {
        "improved"
    } else {
        "within bound"
    };
    (v.to_string(), win_rate)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut bench = String::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => bench = p.clone(),
                None => return crate::usage("--benchmark needs a path"),
            }
        } else {
            dirs.push(a.clone());
        }
    }
    if dirs.len() != 2 {
        return crate::usage("compare takes two record directories");
    }
    let loaded = load_specs(Path::new(&bench)).and_then(|s| {
        Ok((
            s,
            load_records(Path::new(&dirs[0]))?,
            load_records(Path::new(&dirs[1]))?,
        ))
    });
    let (specs, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => return crate::usage(&e),
    };

    let hosts: BTreeSet<&str> = a.iter().chain(&b).map(|r| r.host.as_str()).collect();
    let contended: Vec<String> = a
        .iter()
        .chain(&b)
        .filter(|r| r.steal > crate::STEAL_LIMIT)
        .map(|r| format!("{} seed {} ({:.0}%)", r.workload, r.seed, r.steal * 100.0))
        .collect();
    if !contended.is_empty() {
        println!(
            "WARNING: {} runs were taken on a contended host (steal > {:.0}%): {}",
            contended.len(),
            crate::STEAL_LIMIT * 100.0,
            contended.join(", ")
        );
    }
    if hosts.len() > 1 {
        println!("WARNING: records come from different hosts; differences may be the host, not the code:");
        for h in &hosts {
            println!("  {h}");
        }
    }
    let workloads: BTreeSet<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    let mut bad = false;
    println!(
        "{:<12} {:<32} {:>26} {:>26} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B wins"
    );
    for w in workloads {
        for trace in [false, true] {
            let side = |rs: &[Record]| -> BTreeMap<u64, BTreeMap<String, f64>> {
                rs.iter()
                    .filter(|r| r.workload == w && r.trace == trace)
                    .map(|r| (r.seed, r.metrics.clone()))
                    .collect()
            };
            let (sa, sb) = (side(&a), side(&b));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            for spec in &specs {
                let values = |s: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                    s.values()
                        .filter_map(|m| m.get(&spec.name).copied())
                        .collect()
                };
                let (va, vb) = (values(&sa), values(&sb));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let pairs: Vec<(f64, f64)> = sa
                    .iter()
                    .filter_map(|(seed, m)| {
                        Some((*m.get(&spec.name)?, *sb.get(seed)?.get(&spec.name)?))
                    })
                    .collect();
                let (aq1, aq3) = quartiles(&va);
                let (bq1, bq3) = quartiles(&vb);
                let change = (median(&vb) - median(&va)) / median(&va).abs() * 100.0;
                let (mut v, wins) = if trace {
                    (String::new(), f64::NAN)
                } else {
                    verdict(&va, &vb, &pairs, spec)
                };
                let decode = ["decode_ratio", "symbol_accuracy"].contains(&spec.name.as_str());
                if decode && pairs.iter().any(|(x, y)| x != y) {
                    v.push_str(" DECODE CHANGE");
                }
                bad |= v.contains("regression") || v.contains("DECODE");
                println!(
                    "{:<12} {:<32} {:>10.4} [{:.4}, {:.4}] {:>10.4} [{:.4}, {:.4}] {:>7.1}% {:>6}  {}",
                    w,
                    spec.name,
                    median(&va),
                    aq1,
                    aq3,
                    median(&vb),
                    bq1,
                    bq3,
                    change,
                    if wins.is_nan() { "-".to_string() } else { format!("{:.0}%", wins * 100.0) },
                    v
                );
            }
        }
        let failures = |rs: &[Record]| -> BTreeMap<u64, f64> {
            rs.iter()
                .filter(|r| r.workload == w && !r.trace)
                .map(|r| (r.seed, r.failed_share))
                .collect()
        };
        let (fa, fb) = (failures(&a), failures(&b));
        for (seed, x) in &fa {
            if let Some(y) = fb.get(seed).filter(|y| (*y - x).abs() > 1e-9) {
                println!("{w:<12} DECODE CHANGE: seed {seed} failed share {x:.6} -> {y:.6}");
                bad = true;
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
