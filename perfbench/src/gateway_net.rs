//! `gateway-net`: the full waveform-path network simulator — template
//! synthesis, block AWGN, emission mixing, the 4-channel lockstep gateway
//! and the access point's ARQ and hopping feedback — on a 100-tag grid.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use analog::channelizer::{ChannelizerSpec, ChannelizerState};
use lora_phy::downlink::bytes_to_symbols;
use lora_phy::iq::Iq;
use lora_phy::modulator::Alphabet;
use lora_phy::templates::PacketTemplates;
use netsim::engine::{EngineReport, EngineScenario, MacPolicy, NetworkEngine};
use netsim::synthesis::EmissionMixer;
use rfsim::channel::dbm_to_buffer_power;
use rfsim::noise::AwgnSource;
use rfsim::units::Dbm;
use saiyan::gateway::{Gateway, GatewayConfig, GatewayPacket};
use saiyan::receiver::Receiver;
use saiyan_mac::{TagId, UplinkPacket};

use crate::host::{peak_rss_mb, process_cpu_s, thread_cpu_s};
use crate::stats::median;
use crate::trace::{LayerSpans, Tracer};
use crate::workload::{
    latency_histogram, latency_percentiles, timed_setup, Accounting, LayerRow, Outcome, RunArgs,
    MIN_LATENCY_SAMPLES,
};

const TAGS: usize = 100;
const CHANNELS: usize = 4;
const READINGS: usize = 3;
/// Set-up here takes about 0.1 ms, so it is repeated far more often than on
/// the other workloads to steady its median.
const SETUPS: usize = 101;

/// What the gateway wrapper saw during one engine run. Times are on the
/// engine thread's CPU clock: the engine, its synthesis and the inline
/// gateway all run on that one thread, so a slice the host gives to other
/// guests does not land in the latency tail.
#[derive(Default)]
struct FeedLog {
    /// Wideband index of each chunk's first sample, and when it was fed.
    chunk_start: Vec<u64>,
    fed_at: Vec<f64>,
    /// Released packets and when the gateway returned them.
    packets: Vec<(GatewayPacket, f64)>,
    /// Time spent replaying the channelizers (traced runs only); it is
    /// inside the engine's wall clock but not part of the workload.
    replay_s: f64,
}

/// A `Receiver` that times every call into the wrapped gateway and, on a
/// traced run, tee-replays each wideband chunk through channelizers built
/// with the gateway's per-channel spec.
struct GatewayProbe {
    inner: Gateway,
    log: Rc<RefCell<FeedLog>>,
    tracer: Rc<Tracer>,
    run: u64,
    pos: u64,
    channelizers: Vec<ChannelizerState>,
    baseband: Vec<Iq>,
}

impl GatewayProbe {
    fn new(
        config: &GatewayConfig,
        log: Rc<RefCell<FeedLog>>,
        tracer: Rc<Tracer>,
        run: u64,
    ) -> Self {
        let channelizers = if tracer.enabled() {
            channelizer_replicas(config)
        } else {
            Vec::new()
        };
        GatewayProbe {
            inner: Gateway::new(config.clone()),
            log,
            tracer,
            run,
            pos: 0,
            channelizers,
            baseband: Vec::new(),
        }
    }

    fn returned(&self, packets: &[GatewayPacket], at: f64) {
        let mut log = self.log.borrow_mut();
        log.packets.extend(packets.iter().map(|p| (p.clone(), at)));
    }
}

/// The channelizers `Gateway::new` builds for each channel of `config`.
fn channelizer_replicas(config: &GatewayConfig) -> Vec<ChannelizerState> {
    config
        .channels
        .iter()
        .map(|ch| {
            let decimation = (config.wideband_rate / ch.config.lora.sample_rate()).round() as usize;
            let spec = if ch.offset_hz == 0.0 && decimation == 1 {
                ChannelizerSpec::passthrough()
            } else {
                ChannelizerSpec::for_channel(ch.offset_hz, ch.config.lora.bw.hz(), decimation)
                    .with_taps(config.channelizer_taps)
                    .with_fast_phasor(ch.config.fast_oscillator)
            };
            spec.streaming(config.wideband_rate)
        })
        .collect()
}

impl Receiver for GatewayProbe {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn input_rate(&self) -> f64 {
        self.inner.wideband_rate()
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        let seq = self.log.borrow().fed_at.len() as u64;
        let fed = thread_cpu_s();
        let start = Instant::now();
        let packets = self.inner.push_chunk(chunk);
        let end = Instant::now();
        let back = thread_cpu_s();
        self.tracer.record(
            "core.gateway.feed",
            self.run,
            seq,
            start,
            end,
            chunk.len() as u64,
        );
        {
            let mut log = self.log.borrow_mut();
            log.chunk_start.push(self.pos);
            log.fed_at.push(fed);
        }
        self.pos += chunk.len() as u64;
        self.returned(&packets, back);
        if !self.channelizers.is_empty() {
            let replay = Instant::now();
            for ch in &mut self.channelizers {
                let out = &mut self.baseband;
                self.tracer.time(
                    "analog.channelizer",
                    self.run,
                    seq,
                    chunk.len() as u64,
                    || ch.process_chunk_into(chunk, out),
                );
            }
            self.log.borrow_mut().replay_s += replay.elapsed().as_secs_f64();
        }
        packets
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        let seq = self.log.borrow().fed_at.len() as u64;
        let start = Instant::now();
        let packets = self.inner.flush_in_place();
        let end = Instant::now();
        self.tracer
            .record("core.gateway.feed", self.run, seq, start, end, 0);
        self.returned(&packets, thread_cpu_s());
        packets
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.pos = 0;
    }
}

/// How the frames a gateway released compare with what the tags sent.
#[derive(Default)]
struct FrameCheck {
    /// Frames that parse and carry the sender's reading.
    verified: usize,
    /// Data frames of a deployed tag that carry a wrong reading: silent
    /// corruption, a wrong output.
    corrupt: usize,
    /// Frames that do not parse or name no deployed tag: a wrong decode
    /// the access point drops.
    rejected: usize,
}

fn check_frames<'a>(
    s: &EngineScenario,
    released: impl IntoIterator<Item = &'a GatewayPacket>,
) -> FrameCheck {
    let k = s.lora.bits_per_chirp;
    let mut check = FrameCheck::default();
    for p in released {
        match UplinkPacket::from_bytes(&p.result.to_bytes(k, s.frame_bytes())) {
            Ok(f) if (f.source.0 as usize) < s.n_tags && !f.is_ack => {
                if f.payload == reading_payload(f.source, s.payload_bytes) {
                    check.verified += 1;
                } else {
                    check.corrupt += 1;
                }
            }
            _ => check.rejected += 1,
        }
    }
    check
}

/// One engine run as the benchmark saw it.
struct EngineRun {
    id: u64,
    report: EngineReport,
    /// Engine wall clock without the channelizer replay.
    wall_s: f64,
    cpu_s: f64,
    /// Packets the gateway released, in release order.
    released: Vec<GatewayPacket>,
    frames: FrameCheck,
    latencies_ms: Vec<f64>,
}

impl EngineRun {
    fn realtime(&self) -> f64 {
        self.report.duration_s / self.wall_s
    }

    /// Readings the network lost, plus every released frame that does not
    /// carry its sender's reading.
    fn failures(&self) -> usize {
        self.report.readings_generated - self.report.readings_delivered
            + self.frames.corrupt
            + self.frames.rejected
    }
}

fn engine_run(
    engine: &NetworkEngine,
    config: &GatewayConfig,
    tracer: &Rc<Tracer>,
    id: u64,
) -> EngineRun {
    let log = Rc::new(RefCell::new(FeedLog::default()));
    let probe = GatewayProbe::new(config, Rc::clone(&log), Rc::clone(tracer), id);
    let cpu0 = process_cpu_s();
    let outcome = engine.run_waveform_with(move |_| Box::new(probe));
    let cpu_s = process_cpu_s() - cpu0;
    let log = log.borrow();

    let s = engine.scenario();
    let fs = s.wideband_rate();
    let air = s.payload_symbols() as f64 * s.lora.symbol_duration();
    let latencies_ms = log
        .packets
        .iter()
        .map(|(p, at)| {
            let last = (((p.result.payload_start_time + air) * fs).ceil() as u64).saturating_sub(1);
            let chunk = log
                .chunk_start
                .partition_point(|&c| c <= last)
                .saturating_sub(1);
            (at - log.fed_at[chunk]) * 1e3
        })
        .collect();
    EngineRun {
        id,
        wall_s: outcome.wall_s - log.replay_s,
        report: outcome.report,
        cpu_s: cpu_s - log.replay_s,
        frames: check_frames(s, log.packets.iter().map(|(p, _)| p)),
        released: log.packets.iter().map(|(p, _)| p.clone()).collect(),
        latencies_ms,
    }
}

/// Checks a set of runs of one seed: whether every run released the same
/// packets and ended with the same report (the engine's reproducibility
/// contract), and the most failures of any run. The set is correct when it
/// is reproducible and no run failed.
fn verdict(runs: &[&EngineRun]) -> (bool, usize) {
    let first = runs[0];
    let reproducible = runs
        .iter()
        .all(|r| r.report == first.report && r.released == first.released);
    let failures = runs.iter().map(|r| r.failures()).max().unwrap_or(0);
    (reproducible, failures)
}

/// The reading a tag sends: its id, padded with 0xA5.
fn reading_payload(tag: TagId, payload_bytes: usize) -> Vec<u8> {
    let mut payload = vec![tag.0 as u8, (tag.0 >> 8) as u8];
    payload.resize(payload_bytes, 0xA5);
    payload
}

/// Stand-alone replays of the three synthesis layers at one run's packet
/// and sample counts, in the engine's chunking: template assembly, emission
/// mixing and block AWGN. Emissions are spread evenly over the run, so the
/// mixer carries the same average number of overlapping packets.
fn replay_synthesis(engine: &NetworkEngine, report: &EngineReport, tracer: &Tracer, id: u64) {
    let s = engine.scenario();
    let fs = s.wideband_rate();
    let total = (report.duration_s * fs).round() as u64;
    let n_tx = report.uplink_transmissions.max(1) as u64;
    let spacing = total / n_tx;
    let offsets = s.offsets_hz();
    let scale = dbm_to_buffer_power(Dbm(s.base_power_dbm)).sqrt();

    let templates = tracer.time("lora_phy.templates.assemble", id, 0, 0, || {
        PacketTemplates::new(s.wideband_lora(), Alphabet::Downlink)
    });
    let mut mixer = EmissionMixer::new();
    let mut awgn = AwgnSource::new(s.seed);
    let variance = dbm_to_buffer_power(Dbm(s.noise_power_dbm.unwrap_or(-85.0)));
    let mut chunk: Vec<Iq> = Vec::with_capacity(s.chunk_samples);
    let (mut pos, mut next_tx, mut seq) = (0u64, 0u64, 0u64);
    while pos < total {
        let n = (s.chunk_samples as u64).min(total - pos) as usize;
        while next_tx < n_tx && next_tx * spacing < pos + n as u64 {
            let frame = UplinkPacket {
                source: TagId((next_tx % s.n_tags as u64) as u16),
                sequence: (next_tx / s.n_tags as u64) as u8,
                is_ack: false,
                payload: reading_payload(TagId(0), s.payload_bytes),
            };
            let symbols = bytes_to_symbols(&frame.to_bytes(), s.lora.bits_per_chirp);
            let mut samples = mixer.take_buffer();
            tracer.time("lora_phy.templates.assemble", id, next_tx, 1, || {
                templates
                    .assemble_scaled_extend(&symbols, scale, &mut samples)
                    .expect("frame symbols are within the downlink alphabet")
            });
            let cfo = (next_tx * 37 % 1001) as f64 - 500.0;
            let offset = offsets[(next_tx % offsets.len() as u64) as usize];
            tracer.time("netsim.synthesis.mix", id, next_tx, 0, || {
                mixer.push(next_tx * spacing, samples, cfo, offset, fs)
            });
            next_tx += 1;
        }
        // Like the engine: zero the chunk, then sum the overlapping
        // emissions into it.
        tracer.time("netsim.synthesis.mix", id, seq, n as u64, || {
            chunk.clear();
            chunk.resize(n, Iq::ZERO);
            mixer.mix_into(&mut chunk, pos)
        });
        tracer.time("rfsim.noise.awgn", id, seq, n as u64, || {
            awgn.add_noise_in_place(&mut chunk, variance)
        });
        pos += n as u64;
        seq += 1;
    }
    std::hint::black_box(&chunk);
}

pub fn run(args: &RunArgs) -> Outcome {
    let scenario = EngineScenario::grid(TAGS, CHANNELS, READINGS)
        .with_mac(MacPolicy::Hopping)
        .with_seed(args.seed);
    let ((engine, config), setup_s) = timed_setup(SETUPS, || {
        let engine = NetworkEngine::new(scenario.clone());
        // The engine's default gateway, run inline on the engine thread. On
        // the 2-core reference host its 2-worker lockstep pool was no faster
        // (1.3-1.8x vs 1.6-1.9x realtime, interleaved runs) and its latency
        // tail 2-3x wider and far less repeatable (p99 6-18 ms vs 4.6-5.4
        // ms): every chunk waits on two thread wake-ups.
        let config = engine.default_gateway_config().with_worker_threads(1);
        // Building the gateway designs its channelizers; every run pays it
        // again.
        drop(Gateway::new(config.clone()));
        (engine, config)
    });
    let tracer = Rc::new(Tracer::new(args.trace));
    let untraced = Rc::new(Tracer::new(false));

    let budget = if args.trace { 2.0 } else { 1.0 } * args.seconds;
    let mut plain: Vec<EngineRun> = Vec::new();
    let mut traced: Vec<EngineRun> = Vec::new();
    // The peak resident set is read once the untraced runs carry 1000
    // packets, a point fixed by the seed: the records of every run are
    // kept, so a reading at the end would grow with the number of runs
    // that fit in the budget, that is with speed.
    let mut rss_mb = None;
    let plain_packets =
        |plain: &[EngineRun]| plain.iter().map(|r| r.latencies_ms.len()).sum::<usize>();
    let started = Instant::now();
    let mut id = 0u64;
    while started.elapsed().as_secs_f64() < budget
        || plain_packets(&plain) < MIN_LATENCY_SAMPLES
        || (args.trace && traced.is_empty())
    {
        if args.trace && id % 2 == 1 {
            let run = engine_run(&engine, &config, &tracer, id);
            replay_synthesis(&engine, &run.report, &tracer, id);
            traced.push(run);
        } else {
            plain.push(engine_run(&engine, &config, &untraced, id));
            if rss_mb.is_none() && plain_packets(&plain) >= MIN_LATENCY_SAMPLES {
                rss_mb = Some(peak_rss_mb());
            }
        }
        id += 1;
    }

    // Every run of a seed is the same run, so the counts are per run.
    let runs: Vec<&EngineRun> = plain.iter().chain(&traced).collect();
    let (reproducible, failed) = verdict(&runs);
    let correct = reproducible && failed == 0;
    let first = &plain[0];
    let generated = first.report.readings_generated;
    let plain_realtime = median(&plain.iter().map(EngineRun::realtime).collect::<Vec<_>>());
    let mut metrics = BTreeMap::new();
    let mut accounting = None;
    if args.trace {
        let spans = tracer.spans();
        let per_run = |layer: &str| {
            let by_run = LayerSpans::of(&spans, layer).busy_by_parent();
            median(
                &traced
                    .iter()
                    .map(|r| by_run.iter().find(|b| b.0 == r.id).map_or(0.0, |b| b.1))
                    .collect::<Vec<_>>(),
            )
        };
        let row = |layer: &'static str| LayerRow {
            layer,
            busy_s: per_run(layer),
            calls: LayerSpans::of(&spans, layer).calls() as u64 / traced.len() as u64,
        };
        let rows = [
            "core.gateway.feed",
            "lora_phy.templates.assemble",
            "rfsim.noise.awgn",
            "netsim.synthesis.mix",
        ]
        .map(row);
        let wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let [feed, templates, awgn, mix] = rows.each_ref().map(|r| r.busy_s);
        metrics.insert("core.gateway.feed_busy_s", feed);
        metrics.insert("core.gateway.feed_share", feed / wall);
        metrics.insert("core.gateway.feed_calls", rows[0].calls as f64);
        metrics.insert("analog.channelizer.busy_s", per_run("analog.channelizer"));
        metrics.insert("lora_phy.templates.assemble_s", templates);
        metrics.insert("rfsim.noise.awgn_s", awgn);
        metrics.insert("netsim.synthesis.mix_s", mix);
        let acc = Accounting {
            basis: "engine wall s per traced run",
            basis_s: wall,
            rows: rows.to_vec(),
        };
        let last = &traced[traced.len() - 1].report;
        let traced_realtime = median(&traced.iter().map(EngineRun::realtime).collect::<Vec<_>>());
        metrics.insert("netsim.engine.residual_s", wall - acc.attributed_s());
        metrics.insert("mac.tx_per_delivery", last.transmissions_per_delivery());
        metrics.insert(
            "mac.retransmission_requests",
            last.retransmission_requests as f64,
        );
        metrics.insert("mac.channel_hops", last.channel_hops as f64);
        metrics.insert("mac.collisions", last.collisions as f64);
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
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        let (p50, p99) = latency_percentiles(&latencies).expect("at least 1000 packets");
        metrics.insert("setup_s", setup_s);
        metrics.insert("realtime_x", plain_realtime);
        metrics.insert(
            "cpu_s_per_air_s",
            median(
                &plain
                    .iter()
                    .map(|r| r.cpu_s / r.report.duration_s)
                    .collect::<Vec<_>>(),
            ),
        );
        // Readings delivered with the right content, of those generated.
        metrics.insert(
            "decode_ratio",
            first
                .report
                .readings_delivered
                .saturating_sub(first.frames.corrupt) as f64
                / generated as f64,
        );
        metrics.insert(
            "symbol_accuracy",
            first.frames.verified as f64 / first.report.uplink_transmissions as f64,
        );
        metrics.insert("latency_p50_ms", p50);
        metrics.insert("latency_p99_ms", p99);
        metrics.insert(
            "peak_rss_mb",
            rss_mb.expect("the loop runs to 1000 packets"),
        );
    }
    if !reproducible {
        eprintln!(
            "perfbench: gateway-net seed {}: runs of one seed differ",
            args.seed
        );
    }
    if failed > 0 {
        eprintln!(
            "perfbench: gateway-net seed {}: {} of {} readings lost, {} frames with a wrong reading, {} frames that name no tag",
            args.seed,
            generated - first.report.readings_delivered,
            generated,
            first.frames.corrupt,
            first.frames.rejected
        );
    }
    Outcome {
        correct,
        attempted: generated as u64,
        failed: failed.min(generated) as u64,
        metrics,
        params: serde_json::json!({
            "scenario": "EngineScenario::grid(100, 4, 3), MacPolicy::Hopping",
            "wideband_rate": scenario.wideband_rate(),
            "gateway_workers": config.worker_threads,
            "simulated_s_per_run": plain[0].report.duration_s,
            "readings_per_run": plain[0].report.readings_generated,
            "realtime_per_run": plain.iter().map(EngineRun::realtime).collect::<Vec<_>>(),
            "latency_ms": latency_histogram(&plain.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect::<Vec<_>>()),
            "undelivered_readings": generated - first.report.readings_delivered,
            "rejected_frames": first.frames.rejected,
            "corrupt_frames": first.frames.corrupt,
            "reproducible": reproducible,
            "untraced_runs": plain.len(),
            "traced_runs": traced.len(),
        }),
        accounting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reading_fails_the_run() {
        let scenario = EngineScenario::grid(TAGS, CHANNELS, READINGS)
            .with_mac(MacPolicy::Hopping)
            .with_seed(7);
        let engine = NetworkEngine::new(scenario);
        let config = engine.default_gateway_config().with_worker_threads(1);
        let mut run = engine_run(&engine, &config, &Rc::new(Tracer::new(false)), 0);
        assert_eq!(verdict(&[&run]), (true, 0), "seed 7 must decode cleanly");

        // Flip a bit of the last payload symbol of one released frame: its
        // header still names a real tag, but the reading is wrong.
        let mut released = run.released.clone();
        let symbols = &mut released[5].result.symbols;
        *symbols.last_mut().expect("a payload") ^= 1;
        run.frames = check_frames(engine.scenario(), &released);
        assert_eq!(run.frames.corrupt, 1);
        let (_, failed) = verdict(&[&run]);
        assert_eq!(failed, 1, "the corrupted reading went unnoticed");
    }
}
