//! `rx-single`: one long single-channel capture through the production
//! Super Saiyan `StreamingDemodulator`, closed loop and unpaced, on one
//! thread.

use std::collections::BTreeMap;
use std::time::Instant;

use lora_phy::iq::Iq;
use netsim::longtrace::{generate_long_trace, LongTraceConfig, TraceGroundTruth, TracePacket};
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::{DemodResult, Frontend, StreamingDemodulator};

use crate::host::{peak_rss_mb, process_cpu_s, thread_cpu_s};
use crate::stats::{self, median};
use crate::trace::{LayerSpans, Tracer};
use crate::workload::{
    check_decodes, last_payload_sample, latency_histogram, latency_percentiles,
    single_channel_lora, timed_setup, unique_payloads, Accounting, DecodeCheck, LayerRow, Outcome,
    RunArgs, CHUNK_SAMPLES, MIN_LATENCY_SAMPLES, PAYLOAD_SYMBOLS,
};

const PACKETS: usize = 240;
const SETUPS: usize = 5;
const NOISE_DBM: f64 = -82.0;

/// The capture and what was sent on it.
pub struct Capture {
    pub samples: Vec<Iq>,
    pub fs: f64,
    pub truth: Vec<TraceGroundTruth>,
}

impl Capture {
    pub fn air_s(&self) -> f64 {
        self.samples.len() as f64 / self.fs
    }
}

/// The production-profile Super Saiyan receiver configuration.
pub fn receiver_config() -> SaiyanConfig {
    SaiyanConfig::paper_default(single_channel_lora(), Variant::Super).high_throughput()
}

/// Builds `packets` packets at -48/-50/-52 dBm with 16-symbol gaps over
/// -82 dBm channel noise, payloads and noise drawn from the seed.
pub fn build_capture(packets: usize, seed: u64) -> Capture {
    let lora = single_channel_lora();
    let sent: Vec<TracePacket> = unique_payloads(packets, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| TracePacket::new(p, -48.0 - (i % 3) as f64 * 2.0, 16.0))
        .collect();
    let mut config = LongTraceConfig::new(lora).with_noise(NOISE_DBM);
    config.seed = seed ^ 0x00A1_5E00;
    let (trace, truth) = generate_long_trace(&config, &sent);
    Capture {
        fs: trace.sample_rate,
        samples: trace.samples,
        truth,
    }
}

/// One closed-loop pass of the capture through the receiver.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub check: DecodeCheck,
    /// Per sent packet: from when the chunk carrying its last payload sample
    /// was handed to the receiver to when the receiver returned it (or to
    /// the end of the pass for a missed packet), on this thread's CPU clock:
    /// the pass runs on one thread, so that is the receiver's own time, and
    /// a slice the host gives to other guests does not land in the tail.
    pub latencies_ms: Vec<f64>,
    pub packets_out: usize,
}

/// Streams the capture through `demod` in 4096-sample chunks.
pub fn run_pass(demod: &mut StreamingDemodulator, cap: &Capture, tracer: &Tracer, id: u64) -> Pass {
    let mut fed_at: Vec<f64> = Vec::with_capacity(cap.samples.len() / CHUNK_SAMPLES + 1);
    let mut returned: Vec<(DemodResult, f64)> = Vec::new();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for (j, chunk) in cap.samples.chunks(CHUNK_SAMPLES).enumerate() {
        fed_at.push(thread_cpu_s());
        let start = Instant::now();
        let out = demod.push_samples(chunk);
        let end = Instant::now();
        let back = thread_cpu_s();
        tracer.record(
            "core.streaming",
            id,
            j as u64,
            start,
            end,
            chunk.len() as u64,
        );
        returned.extend(out.into_iter().map(|r| (r, back)));
    }
    let start = Instant::now();
    let out = demod.finish();
    let end = Instant::now();
    let back = thread_cpu_s();
    tracer.record("core.streaming", id, fed_at.len() as u64, start, end, 0);
    returned.extend(out.into_iter().map(|r| (r, back)));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let lora = single_channel_lora();
    let decoded: Vec<&DemodResult> = returned.iter().map(|(r, _)| r).collect();
    let check = check_decodes(&cap.truth, cap.fs, lora.symbol_duration(), &decoded);
    let sps = lora.samples_per_symbol();
    let latencies_ms = cap
        .truth
        .iter()
        .zip(&check.matched)
        .map(|(t, hit)| {
            let due = fed_at[last_payload_sample(t, sps) / CHUNK_SAMPLES];
            (hit.map_or(back, |i| returned[i].1) - due) * 1e3
        })
        .collect();
    Pass {
        wall_s,
        cpu_s,
        check,
        latencies_ms,
        packets_out: returned.len(),
    }
}

/// Replays the receiver's analog front end on the same chunks, one span per
/// chunk: the front end's share of the receiver's busy time.
fn replay_frontend(cfg: &SaiyanConfig, cap: &Capture, tracer: &Tracer, id: u64) {
    let taps = cfg
        .streaming_saw_taps
        .unwrap_or(Frontend::STREAMING_SAW_TAPS);
    let mut frontend = Frontend::paper(cfg).streaming_with_taps(cap.fs, taps);
    let mut envelope = Vec::new();
    for (j, chunk) in cap.samples.chunks(CHUNK_SAMPLES).enumerate() {
        tracer.time("analog.frontend", id, j as u64, chunk.len() as u64, || {
            frontend.process_chunk_into(chunk, &mut envelope)
        });
    }
    std::hint::black_box(&envelope);
}

pub fn run(args: &RunArgs) -> Outcome {
    let cfg = receiver_config();
    let ((cap, mut demod), setup_s) = timed_setup(SETUPS, || {
        let cap = build_capture(PACKETS, args.seed);
        let demod = StreamingDemodulator::new(cfg.clone(), PAYLOAD_SYMBOLS);
        (cap, demod)
    });
    let air_s = cap.air_s();
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);

    // Untraced passes give the end-to-end metrics. A traced run alternates
    // untraced and traced passes for the same total time, so the tracing
    // overhead is measured under the same host conditions.
    let budget = if args.trace { 2.0 } else { 1.0 } * args.seconds;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(u64, Pass)> = Vec::new();
    // The peak resident set is read once the untraced passes carry 1000
    // packets, so the pass records kept after that do not make it follow
    // speed.
    let mut rss_mb = None;
    let started = Instant::now();
    let mut id = 0u64;
    while started.elapsed().as_secs_f64() < budget
        || plain.len() * cap.truth.len() < MIN_LATENCY_SAMPLES
        || (args.trace && traced.is_empty())
    {
        demod.reset();
        if args.trace && id % 2 == 1 {
            let pass = run_pass(&mut demod, &cap, &tracer, id);
            replay_frontend(&cfg, &cap, &tracer, id);
            traced.push((id, pass));
        } else {
            plain.push(run_pass(&mut demod, &cap, &untraced, id));
            if rss_mb.is_none() && plain.len() * cap.truth.len() >= MIN_LATENCY_SAMPLES {
                rss_mb = Some(peak_rss_mb());
            }
        }
        id += 1;
    }

    let mut check = DecodeCheck::default();
    for p in plain.iter().chain(traced.iter().map(|(_, p)| p)) {
        check.absorb(&p.check);
    }
    let correct = check.failed() == 0;
    let realtime = |passes: &mut dyn Iterator<Item = &Pass>| {
        median(&passes.map(|p| air_s / p.wall_s).collect::<Vec<_>>())
    };
    let plain_realtime = realtime(&mut plain.iter());
    let mut metrics = BTreeMap::new();
    let mut accounting = None;
    if args.trace {
        let spans = tracer.spans();
        let streaming = LayerSpans::of(&spans, "core.streaming");
        let frontend = LayerSpans::of(&spans, "analog.frontend");
        let per_pass =
            |l: &LayerSpans| median(&l.busy_by_parent().iter().map(|b| b.1).collect::<Vec<_>>());
        let rx_busy = per_pass(&streaming);
        let fe_busy = per_pass(&frontend);
        let wall = median(&traced.iter().map(|(_, p)| p.wall_s).collect::<Vec<_>>());
        let chunk_us = streaming.durations_us();
        let traced_realtime = realtime(&mut traced.iter().map(|(_, p)| p));
        let acc = Accounting {
            basis: "wall s per traced pass",
            basis_s: wall,
            rows: vec![
                LayerRow {
                    layer: "analog.frontend",
                    busy_s: fe_busy,
                    calls: frontend.calls() as u64 / traced.len() as u64,
                },
                LayerRow {
                    layer: "core.decoder",
                    busy_s: rx_busy - fe_busy,
                    calls: streaming.calls() as u64 / traced.len() as u64,
                },
            ],
        };
        metrics.insert("core.streaming.busy_s", rx_busy);
        metrics.insert(
            "core.streaming.chunk_p50_us",
            stats::percentile(&chunk_us, 0.5).expect("chunk spans"),
        );
        metrics.insert(
            "core.streaming.chunk_p99_us",
            stats::percentile(&chunk_us, 0.99).expect("chunk spans"),
        );
        metrics.insert("core.streaming.samples_in", cap.samples.len() as f64);
        metrics.insert("core.streaming.packets_out", traced[0].1.packets_out as f64);
        metrics.insert("analog.frontend.busy_s", fe_busy);
        metrics.insert("analog.frontend.share", fe_busy / rx_busy);
        metrics.insert("core.decoder.busy_s", rx_busy - fe_busy);
        metrics.insert("core.decoder.symbol_errors", check.symbol_errors as f64);
        metrics.insert(
            "trace.overhead_pct",
            (plain_realtime / traced_realtime - 1.0) * 100.0,
        );
        metrics.insert("trace.unattributed_share", acc.unattributed_share());
        accounting = Some(acc);
        args.write_spans(&tracer);
    } else {
        let latencies: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.latencies_ms.iter().copied())
            .collect();
        let (p50, p99) = latency_percentiles(&latencies).expect("at least 1000 packets");
        metrics.insert("setup_s", setup_s);
        metrics.insert("realtime_x", plain_realtime);
        metrics.insert(
            "cpu_s_per_air_s",
            median(&plain.iter().map(|p| p.cpu_s / air_s).collect::<Vec<_>>()),
        );
        metrics.insert("decode_ratio", check.exact as f64 / check.expected as f64);
        metrics.insert(
            "symbol_accuracy",
            check.symbols_ok as f64 / (check.symbols_ok + check.symbol_errors) as f64,
        );
        metrics.insert("latency_p50_ms", p50);
        metrics.insert("latency_p99_ms", p99);
        metrics.insert(
            "peak_rss_mb",
            rss_mb.expect("the loop runs to 1000 packets"),
        );
    }
    Outcome {
        correct,
        attempted: check.expected as u64,
        failed: check.failed() as u64,
        metrics,
        params: serde_json::json!({
            "receiver": "StreamingDemodulator, Super Saiyan, production profile",
            "packets_per_pass": cap.truth.len(),
            "air_s_per_pass": air_s,
            "sample_rate": cap.fs,
            "chunk_samples": CHUNK_SAMPLES,
            "realtime_per_pass": plain.iter().map(|p| air_s / p.wall_s).collect::<Vec<_>>(),
            "latency_ms": latency_histogram(&plain.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect::<Vec<_>>()),
            "untraced_passes": plain.len(),
            "traced_passes": traced.len(),
        }),
        accounting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_capture_fails_the_decode_check() {
        let mut cap = build_capture(6, 11);
        let mut demod = StreamingDemodulator::new(receiver_config(), PAYLOAD_SYMBOLS);
        let clean = run_pass(&mut demod, &cap, &Tracer::new(false), 0);
        assert_eq!(clean.check.failed(), 0, "the clean capture must decode");

        // Swap two payload symbols of the third packet: the receiver still
        // finds the packet, but its symbols no longer match what was sent.
        let sps = single_channel_lora().samples_per_symbol();
        let t = &cap.truth[2];
        let j = (2..PAYLOAD_SYMBOLS)
            .find(|&j| t.symbols[j] != t.symbols[1])
            .expect("a payload with two different symbols");
        let (a, b) = (
            t.payload_start_sample + sps,
            t.payload_start_sample + j * sps,
        );
        let first: Vec<Iq> = cap.samples[a..a + sps].to_vec();
        cap.samples.copy_within(b..b + sps, a);
        cap.samples[b..b + sps].copy_from_slice(&first);
        demod.reset();
        let corrupted = run_pass(&mut demod, &cap, &Tracer::new(false), 1);
        assert!(corrupted.check.failed() > 0, "corruption went unnoticed");
        assert!(corrupted.check.symbol_errors >= 2);
    }
}
