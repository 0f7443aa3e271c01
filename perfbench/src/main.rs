//! The repository's benchmark: runs one named workload against the public
//! library APIs, checks every decode against ground truth, and prints each
//! metric by name with its unit.
//!
//! ```text
//! perfbench --workload <rx-single|gateway-net|serve-paced> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench compare <dir-a> <dir-b> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! A run's last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The full record
//! (host metadata, workload parameters, layer accounting) is written to
//! `<out>/<workload>-seed<n>-trace<t>.json`, and a traced run's spans to
//! `<out>/<workload>-seed<n>.spans.jsonl`. The process exits 1 when any
//! decode is wrong or missing.

mod compare;
mod gateway_net;
mod host;
mod rx_single;
mod serve_paced;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::{Outcome, RunArgs, END_TO_END, PER_LAYER, UNATTRIBUTED_LIMIT};

const WORKLOADS: &[&str] = &["rx-single", "gateway-net", "serve-paced"];

/// Steal share above which a run is reported as taken on a contended host.
const STEAL_LIMIT: f64 = 0.05;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       perfbench compare <dir-a> <dir-b> [--benchmark <path>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

struct Cli {
    workload: String,
    run: RunArgs,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Cli {
        workload,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            spans: None,
        },
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let mut cli = match parse(&args) {
        Ok(cli) => cli,
        Err(problem) => return usage(&problem),
    };
    let stem = format!("{}-seed{}", cli.workload, cli.run.seed);
    if cli.run.trace {
        cli.run.spans = Some(cli.out.join(format!("{stem}.spans.jsonl")));
    }
    let host = host::metadata();
    println!("host: {}", serde_json::to_string(&host).expect("json"));
    let (started, steal0) = (std::time::Instant::now(), host::steal_s());
    let outcome = match cli.workload.as_str() {
        "rx-single" => rx_single::run(&cli.run),
        "gateway-net" => gateway_net::run(&cli.run),
        _ => serve_paced::run(&cli.run),
    };
    // Share of the machine's CPU time the hypervisor took for other guests
    // during the run: a contended host slows every metric that reads a
    // clock, so a record carries it for comparisons to weigh.
    let steal_share =
        (host::steal_s() - steal0) / (started.elapsed().as_secs_f64() * host::nproc() as f64);
    let metrics = select_metrics(&cli.workload, &outcome, cli.run.trace);
    if let Some(acc) = &outcome.accounting {
        print_accounting(&cli.workload, acc);
    }
    if steal_share > STEAL_LIMIT {
        println!(
            "WARN: the host took {:.0}% of this machine's CPU time during the run",
            steal_share * 100.0
        );
    }
    let record = serde_json::json!({
        "workload": cli.workload.clone(),
        "seed": cli.run.seed,
        "seconds": cli.run.seconds,
        "trace": cli.run.trace,
        "host": host,
        "host_steal_share": steal_share,
        "params": outcome.params.clone(),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics.clone(),
    });
    let path = cli
        .out
        .join(format!("{stem}-trace{}.json", cli.run.trace as u8));
    if let Err(e) = write_record(&path, &record) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let line = serde_json::json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&line).expect("json"));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: {} of {} decodes wrong or missing",
            cli.workload, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// The metrics of this mode, in catalog order, as `{"name": {"value", "unit"}}`.
fn select_metrics(workload: &str, outcome: &Outcome, trace: bool) -> serde_json::Value {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let fields = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) => *v,
                // A per-layer metric of a layer this workload bypasses.
                None if trace => 0.0,
                None => panic!("{workload} did not measure {name}"),
            };
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (
                name.to_string(),
                serde_json::json!({"value": value, "unit": unit}),
            )
        })
        .collect();
    serde_json::Value::Object(fields)
}

fn print_accounting(workload: &str, acc: &workload::Accounting) {
    println!(
        "layer accounting for {workload} (basis: {} = {:.6})",
        acc.basis, acc.basis_s
    );
    for row in &acc.rows {
        println!(
            "  {:<32} {:>12.6} s  {:>8} calls  {:>6.1}%",
            row.layer,
            row.busy_s,
            row.calls,
            row.busy_s / acc.basis_s * 100.0
        );
    }
    let unattributed = acc.unattributed_share();
    println!(
        "  {:<32} {:>12.6} s  {:>8}        {:>6.1}%",
        "(unattributed)",
        acc.basis_s - acc.attributed_s(),
        "",
        unattributed * 100.0
    );
    if unattributed > UNATTRIBUTED_LIMIT {
        println!(
            "  FLAG: {:.1}% of {workload} is not attributed to a measured layer (limit {:.0}%)",
            unattributed * 100.0,
            UNATTRIBUTED_LIMIT * 100.0
        );
    }
}

fn write_record(path: &Path, record: &serde_json::Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        serde_json::to_string_pretty(record).expect("json") + "\n",
    )
}
