//! What every workload shares: its arguments, its outcome, the metric
//! catalog and the ground-truth decode check.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use netsim::longtrace::{random_payloads, TraceGroundTruth};
use saiyan::DemodResult;

use crate::host::process_cpu_s;
use crate::stats::{self, TooFewSamples};
use crate::trace::Tracer;

/// End-to-end metrics (printed with `--trace 0`), with units. Every
/// workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("realtime_x", "s/s"),
    ("cpu_s_per_air_s", "s/s"),
    ("decode_ratio", "ratio"),
    ("symbol_accuracy", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`), with units. A layer that a
/// workload bypasses reads 0 on it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.streaming.busy_s", "s"),
    ("core.streaming.chunk_p50_us", "us"),
    ("core.streaming.chunk_p99_us", "us"),
    ("core.streaming.bare_us_per_frame", "us"),
    ("core.streaming.samples_in", "count"),
    ("core.streaming.packets_out", "count"),
    ("analog.frontend.busy_s", "s"),
    ("analog.frontend.share", "ratio"),
    ("core.decoder.busy_s", "s"),
    ("core.decoder.symbol_errors", "count"),
    ("core.gateway.feed_busy_s", "s"),
    ("core.gateway.feed_share", "ratio"),
    ("core.gateway.feed_calls", "count"),
    ("analog.channelizer.busy_s", "s"),
    ("lora_phy.templates.assemble_s", "s"),
    ("rfsim.noise.awgn_s", "s"),
    ("netsim.synthesis.mix_s", "s"),
    ("netsim.engine.residual_s", "s"),
    ("mac.tx_per_delivery", "ratio"),
    ("mac.retransmission_requests", "count"),
    ("mac.channel_hops", "count"),
    ("mac.collisions", "count"),
    ("serve.rx.busy_s", "s"),
    ("serve.rx.busy_share", "ratio"),
    ("core.executor.reused_ratio", "ratio"),
    ("serve.queue.wait_p50_us", "us"),
    ("serve.queue.wait_p99_us", "us"),
    ("serve.queue.depth_max", "count"),
    ("serve.wire.decode_us_per_frame", "us"),
    ("serve.wire.encode_us_per_packet", "us"),
    ("serve.gen.send_p99_ms", "ms"),
    ("serve.daemon.open_p50_us", "us"),
    ("serve.daemon.retained_kb_per_stream", "kB"),
    ("serve.dropped_chunks", "count"),
    ("serve.malformed_bytes", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

/// Largest share of the accounting basis the traced run may leave
/// unattributed to a measured layer before the workload is flagged.
pub const UNATTRIBUTED_LIMIT: f64 = 0.05;

/// Packets a latency percentile needs: p99 then has ten samples beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 1000;

/// Chirp symbols per payload on the single-channel workloads.
pub const PAYLOAD_SYMBOLS: usize = 16;

/// Samples per chunk handed to a receiver (and per serve ingest frame).
pub const CHUNK_SAMPLES: usize = 4096;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

impl RunArgs {
    /// Writes a traced run's spans (best effort: a read-only checkout still
    /// gets its result line).
    pub fn write_spans(&self, tracer: &Tracer) {
        if let Some(path) = &self.spans {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
    }
}

/// One row of the traced run's layer accounting.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub layer: &'static str,
    pub busy_s: f64,
    pub calls: u64,
}

/// Layer time against the accounting basis of a traced run.
#[derive(Debug, Clone)]
pub struct Accounting {
    /// What the layer times are measured against, e.g. "wall per pass".
    pub basis: &'static str,
    pub basis_s: f64,
    pub rows: Vec<LayerRow>,
}

impl Accounting {
    pub fn attributed_s(&self) -> f64 {
        self.rows.iter().map(|r| r.busy_s).sum()
    }

    pub fn unattributed_share(&self) -> f64 {
        (self.basis_s - self.attributed_s()) / self.basis_s
    }
}

/// Everything a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload parameters recorded with the result (rates, sizes).
    pub params: serde_json::Value,
    /// Present on traced runs.
    pub accounting: Option<Accounting>,
}

/// SF7 / 500 kHz / K = 2 at the paper's 4x oversampling (2 Msps).
pub fn single_channel_lora() -> LoraParams {
    LoraParams::new(
        SpreadingFactor::Sf7,
        Bandwidth::Khz500,
        BitsPerChirp::new(2).expect("K = 2 is valid"),
    )
}

/// `count` distinct random payloads drawn from the seed. Distinct payloads
/// let a decoded packet be matched to the packet that was sent by content.
pub fn unique_payloads(count: usize, seed: u64) -> Vec<Vec<u32>> {
    let k = single_channel_lora().bits_per_chirp;
    let mut seen = HashSet::new();
    let out: Vec<Vec<u32>> = random_payloads(2 * count, PAYLOAD_SYMBOLS, k, seed)
        .into_iter()
        .filter(|p| seen.insert(p.clone()))
        .take(count)
        .collect();
    assert_eq!(out.len(), count, "seed {seed} drew too many equal payloads");
    out
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time, in CPU seconds of the whole process: work a set-up moves
/// to another thread still counts, and a slice the host gives to other
/// guests does not.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous copy first so peak memory holds one set of
        // inputs, not two.
        drop(last.take());
        let start = process_cpu_s();
        last = Some(setup());
        times.push(process_cpu_s() - start);
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Per-packet outcome of checking one stream's decodes against its truth.
#[derive(Debug, Clone, Default)]
pub struct DecodeCheck {
    /// Packets sent.
    pub expected: usize,
    /// Packets decoded with every symbol right.
    pub exact: usize,
    /// Payload symbols decoded right (a missed packet contributes none).
    pub symbols_ok: usize,
    /// Payload symbols decoded wrong or missed.
    pub symbol_errors: usize,
    /// Decoded packets that match no sent packet.
    pub spurious: usize,
    /// For each sent packet, the index of its decode (if any).
    pub matched: Vec<Option<usize>>,
}

impl DecodeCheck {
    pub fn failed(&self) -> usize {
        self.expected - self.exact + self.spurious
    }

    pub fn absorb(&mut self, other: &DecodeCheck) {
        self.expected += other.expected;
        self.exact += other.exact;
        self.symbols_ok += other.symbols_ok;
        self.symbol_errors += other.symbol_errors;
        self.spurious += other.spurious;
    }
}

/// Matches decodes to the packets that were sent, by payload start time
/// (within one symbol), and compares their symbols.
pub fn check_decodes(
    truth: &[TraceGroundTruth],
    fs: f64,
    t_sym: f64,
    decoded: &[&DemodResult],
) -> DecodeCheck {
    let mut used = vec![false; decoded.len()];
    let mut check = DecodeCheck {
        expected: truth.len(),
        ..DecodeCheck::default()
    };
    for t in truth {
        let t_payload = t.payload_start_sample as f64 / fs;
        let hit = decoded
            .iter()
            .enumerate()
            .position(|(i, r)| !used[i] && (r.payload_start_time - t_payload).abs() < t_sym);
        check.matched.push(hit);
        let Some(i) = hit else {
            check.symbol_errors += t.symbols.len();
            continue;
        };
        used[i] = true;
        let right = decoded[i]
            .symbols
            .iter()
            .zip(&t.symbols)
            .filter(|(a, b)| a == b)
            .count();
        check.symbols_ok += right;
        check.symbol_errors += t.symbols.len() - right;
        if right == t.symbols.len() && decoded[i].symbols.len() == t.symbols.len() {
            check.exact += 1;
        }
    }
    check.spurious = used.iter().filter(|u| !**u).count();
    check
}

/// Sample index of a packet's last payload sample.
pub fn last_payload_sample(t: &TraceGroundTruth, samples_per_symbol: usize) -> usize {
    t.payload_start_sample + t.symbols.len() * samples_per_symbol - 1
}

/// The latency distribution in coarse quantiles, for the run record.
pub fn latency_histogram(latencies_ms: &[f64]) -> serde_json::Value {
    let q = |p: f64| stats::percentile(latencies_ms, p).unwrap_or(f64::NAN);
    serde_json::json!({
        "samples": latencies_ms.len(),
        "p10": q(0.10),
        "p50": q(0.50),
        "p90": q(0.90),
        "p95": q(0.95),
        "p98": q(0.98),
        "p99": q(0.99),
        "max": latencies_ms.iter().copied().fold(f64::NAN, f64::max),
    })
}

/// p50 and p99 of a latency set, refusing a p99 without ten samples beyond.
///
/// The p99 is the median of the p99s of consecutive blocks of at least
/// [`MIN_LATENCY_SAMPLES`] packets (in the order they were sent), so one
/// block hit by a host stall moves the reported tail less than it would
/// move a p99 of the pooled set.
pub fn latency_percentiles(latencies_ms: &[f64]) -> Result<(f64, f64), TooFewSamples> {
    let n = latencies_ms.len();
    let blocks = (n / MIN_LATENCY_SAMPLES).max(1);
    let size = n / blocks;
    let p99s = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks { n } else { (b + 1) * size };
            stats::percentile(&latencies_ms[b * size..end], 0.99)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((stats::percentile(latencies_ms, 0.50)?, stats::median(&p99s)))
}
