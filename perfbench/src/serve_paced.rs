//! `serve-paced`: a `ServeDaemon` over a pool of production Vanilla
//! receivers, fed raw f32 byte frames by one generator thread and paced by
//! the daemon's Block backpressure: a stream keeps at most its queue bound
//! (8 frames, 16 ms of air) in flight, so the generator offers the next
//! frame as soon as the daemon admits it. Streams repeat in sequence, so
//! pooled receivers are recycled through `reset`.
//!
//! One stream is open at a time: its worker saturates one core of the
//! 2-core reference host and leaves the other to the generator. With two
//! concurrent streams, three busy threads shared two cores: over 10 seeds
//! the aggregate rate spread 0.23-0.26 and the p99 latency 0.30-0.66
//! (interquartile range over median), against 0.001 and 0.04 for one stream
//! in interleaved runs.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lora_phy::iq::Iq;
use netsim::longtrace::{generate_long_trace, LongTraceConfig, TraceGroundTruth, TracePacket};
use saiyan::config::{SaiyanConfig, Variant};
use saiyan::gateway::GatewayPacket;
use saiyan::receiver::Receiver;
use saiyan::{BoxedReceiver, DemodResult, PooledExecutor, ReceiverExecutor, StreamingDemodulator};
use saiyan_serve::wire::{self, BYTES_PER_SAMPLE};
use saiyan_serve::{BackpressurePolicy, ServeConfig, ServeDaemon, StreamHandle, StreamReport};

use crate::host::{peak_rss_mb, process_cpu_s, rss_mb, thread_cpu_s, ThreadClock};
use crate::stats;
use crate::trace::{LayerSpans, Tracer};
use crate::workload::{
    check_decodes, last_payload_sample, latency_histogram, latency_percentiles,
    single_channel_lora, timed_setup, unique_payloads, Accounting, DecodeCheck, LayerRow, Outcome,
    RunArgs, CHUNK_SAMPLES, MIN_LATENCY_SAMPLES, PAYLOAD_SYMBOLS,
};

/// Distinct captures the streams cycle through (stream `k` sends capture
/// `k mod 4`), so consecutive streams never share one.
const CAPTURES: usize = 4;
const PACKETS_PER_CAPTURE: usize = 24;
/// Streams every run opens (the fewest that carry 1000 packets). The peak
/// resident set is read after this many, because the daemon keeps every
/// finished stream until shutdown: read at the end of the run, it would
/// grow with the number of streams a run fits in, that is with speed.
const RSS_STREAMS: usize = MIN_LATENCY_SAMPLES.div_ceil(PACKETS_PER_CAPTURE);
/// Ingest queue bound per stream, in frames: the window of frames a stream
/// may have in the daemon.
const QUEUE_DEPTH: usize = 8;
const SETUPS: usize = 5;
const NOISE_DBM: f64 = -82.0;
const FRAME_BYTES: usize = CHUNK_SAMPLES * BYTES_PER_SAMPLE;

struct Capture {
    bytes: Vec<u8>,
    samples: usize,
    truth: Vec<TraceGroundTruth>,
}

impl Capture {
    fn frames(&self) -> usize {
        self.bytes.len().div_ceil(FRAME_BYTES)
    }

    fn frame(&self, j: usize) -> &[u8] {
        &self.bytes[j * FRAME_BYTES..((j + 1) * FRAME_BYTES).min(self.bytes.len())]
    }
}

fn build_captures(seed: u64) -> Vec<Capture> {
    let lora = single_channel_lora();
    let payloads = unique_payloads(CAPTURES * PACKETS_PER_CAPTURE, seed);
    payloads
        .chunks(PACKETS_PER_CAPTURE)
        .enumerate()
        .map(|(c, chunk)| {
            let sent: Vec<TracePacket> = chunk
                .iter()
                .enumerate()
                .map(|(i, p)| TracePacket::new(p.clone(), -48.0 - (i % 3) as f64 * 2.0, 16.0))
                .collect();
            let mut config = LongTraceConfig::new(lora).with_noise(NOISE_DBM);
            config.seed = seed ^ (0x5E4E_0000 + c as u64);
            let (trace, truth) = generate_long_trace(&config, &sent);
            Capture {
                bytes: wire::samples_to_bytes(&trace.samples),
                samples: trace.len(),
                truth,
            }
        })
        .collect()
}

fn receiver_config() -> SaiyanConfig {
    SaiyanConfig::paper_default(single_channel_lora(), Variant::Vanilla).high_throughput()
}

/// What the receiver wrappers saw, shared with the worker threads. Times
/// are on each stream's worker CPU clock, which a slice the host gives to
/// other guests does not advance.
#[derive(Default)]
struct ReturnLog {
    /// (stream, decoded packet, when the receiver returned it).
    packets: Vec<(usize, DemodResult, f64)>,
    /// Each stream's worker clock, published by the stream's first feed.
    clocks: HashMap<usize, ThreadClock>,
    /// When each stream's receiver was flushed at the end of the stream.
    flushed: HashMap<usize, f64>,
}

/// An executor that wraps each pooled receiver in a [`TimedReceiver`]
/// told which stream it serves. The generator arms `next` right before
/// `open_stream`, which checks a receiver out synchronously on the same
/// thread, so each wrapper learns its stream without a race.
struct StreamTagger {
    pool: Arc<PooledExecutor>,
    next: Mutex<Option<usize>>,
    returned: Arc<Mutex<ReturnLog>>,
    tracer: Arc<Tracer>,
}

impl ReceiverExecutor for StreamTagger {
    fn checkout(&self) -> BoxedReceiver {
        let stream = self
            .next
            .lock()
            .expect("tagger lock")
            .take()
            .expect("every stream is opened through the generator");
        Box::new(TimedReceiver {
            inner: Some(self.pool.checkout()),
            stream,
            frames: 0,
            pool: Arc::clone(&self.pool),
            returned: Arc::clone(&self.returned),
            tracer: Arc::clone(&self.tracer),
        })
    }

    /// Dropping the wrapper hands the pooled receiver back (see its `Drop`).
    fn checkin(&self, receiver: BoxedReceiver) {
        drop(receiver);
    }

    fn idle(&self) -> usize {
        self.pool.idle()
    }

    fn reused(&self) -> u64 {
        self.pool.reused()
    }
}

/// Times every call into a pooled receiver and logs what it returns.
struct TimedReceiver {
    inner: Option<BoxedReceiver>,
    stream: usize,
    frames: u64,
    pool: Arc<PooledExecutor>,
    returned: Arc<Mutex<ReturnLog>>,
    tracer: Arc<Tracer>,
}

impl TimedReceiver {
    fn rx(&mut self) -> &mut BoxedReceiver {
        self.inner.as_mut().expect("receiver present until drop")
    }

    fn log(&self, packets: &[GatewayPacket], at: f64) {
        if !packets.is_empty() {
            let mut log = self.returned.lock().expect("return log lock");
            let stream = self.stream;
            log.packets
                .extend(packets.iter().map(|p| (stream, p.result.clone(), at)));
        }
    }
}

impl Receiver for TimedReceiver {
    fn backend_name(&self) -> &'static str {
        "timed-pooled-receiver"
    }

    fn input_rate(&self) -> f64 {
        self.inner.as_ref().expect("receiver present").input_rate()
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        if self.frames == 0 {
            let mut log = self.returned.lock().expect("return log lock");
            log.clocks.insert(self.stream, ThreadClock::current());
        }
        let start = Instant::now();
        let packets = self.rx().feed(chunk);
        let end = Instant::now();
        let (stream, seq) = (self.stream as u64, self.frames);
        self.tracer
            .record("serve.rx", stream, seq, start, end, chunk.len() as u64);
        self.frames += 1;
        self.log(&packets, thread_cpu_s());
        packets
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        let start = Instant::now();
        let packets = self.rx().flush();
        let end = Instant::now();
        let (stream, seq) = (self.stream as u64, self.frames);
        self.tracer.record("serve.rx", stream, seq, start, end, 0);
        let flushed = thread_cpu_s();
        self.log(&packets, flushed);
        let mut log = self.returned.lock().expect("return log lock");
        log.flushed.insert(self.stream, flushed);
        packets
    }

    fn reset(&mut self) {
        self.rx().reset();
        self.frames = 0;
    }
}

impl Drop for TimedReceiver {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let tracer = Arc::clone(&self.tracer);
            tracer.time("core.executor.checkin", self.stream as u64, 0, 1, || {
                self.pool.checkin(inner)
            });
        }
    }
}

/// What one run through the daemon produced.
struct ServeRun {
    /// Capture sent on each stream, in opening order.
    streams: Vec<usize>,
    reports: Vec<StreamReport>,
    check: DecodeCheck,
    latencies_ms: Vec<f64>,
    /// When the daemon admitted each frame, per stream.
    admitted: Vec<Vec<Instant>>,
    /// Time the generator spent in `send_bytes` per frame, ms (blocked on
    /// a full queue, mostly).
    send_ms: Vec<f64>,
    depth_max: u64,
    /// Peak resident set after the first `RSS_STREAMS` streams, MB.
    peak_rss_mb: f64,
    air_s: f64,
    wall_s: f64,
    cpu_s: f64,
    /// Decoded packets the byte or JSONL stream failed to carry intact.
    wire_errors: usize,
}

impl ServeRun {
    /// Air seconds admitted per wall second: the median over streams of
    /// each stream's admission rate. A host stall that spans less than half
    /// the run does not move it.
    fn realtime_x(&self) -> f64 {
        let frame_air_s = self.air_s / (self.streams.len() * self.admitted[0].len()) as f64;
        let rates: Vec<f64> = self
            .admitted
            .iter()
            .map(|a| {
                let span = a[a.len() - 1].duration_since(a[0]).as_secs_f64();
                (a.len() - 1) as f64 * frame_air_s / span
            })
            .collect();
        stats::median(&rates)
    }
}

/// Sends whole captures, one stream after another, until `seconds` have
/// passed and at least 1000 packets were sent.
fn serve_run(
    daemon: &ServeDaemon,
    tagger: &StreamTagger,
    captures: &[Capture],
    seconds: f64,
    traced: bool,
) -> ServeRun {
    let frames = captures[0].frames();
    let mut streams: Vec<usize> = Vec::new();
    let mut admitted: Vec<Vec<Instant>> = Vec::new();
    // The stream worker's CPU clock when the daemon admitted each frame (0
    // before the worker's first feed: it has barely run by then).
    let mut admitted_cpu: Vec<Vec<f64>> = Vec::new();
    let mut send_ms = Vec::new();
    let mut closed: Vec<StreamHandle> = Vec::new();
    let mut depth_max = 0u64;
    let mut rss_mb = 0.0;
    let cpu0 = process_cpu_s();
    let origin = Instant::now();
    while origin.elapsed().as_secs_f64() < seconds
        || streams.len() * PACKETS_PER_CAPTURE < MIN_LATENCY_SAMPLES
    {
        let stream = streams.len();
        let capture = &captures[stream % CAPTURES];
        streams.push(stream % CAPTURES);
        *tagger.next.lock().expect("tagger lock") = Some(stream);
        let mut handle = tagger
            .tracer
            .time("serve.daemon.open", stream as u64, 0, 1, || {
                daemon.open_stream(format!("s{stream}"))
            })
            .expect("daemon is running");
        let mut at = Vec::with_capacity(frames);
        let mut at_cpu = Vec::with_capacity(frames);
        for j in 0..frames {
            let frame = capture.frame(j).to_vec();
            let start = Instant::now();
            handle.send_bytes(frame).expect("stream open until closed");
            let end = Instant::now();
            let worker = tagger
                .returned
                .lock()
                .expect("return log lock")
                .clocks
                .get(&stream)
                .copied();
            at_cpu.push(
                worker
                    .map_or(Some(0.0), ThreadClock::now_s)
                    .expect("a stream's worker runs until the stream is closed"),
            );
            at.push(end);
            send_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
            if traced {
                depth_max = depth_max.max(handle.stats().snapshot().queue_depth);
            }
        }
        handle.close();
        closed.push(handle);
        admitted.push(at);
        admitted_cpu.push(at_cpu);
        if streams.len() == RSS_STREAMS {
            rss_mb = peak_rss_mb();
        }
    }
    let mut reports: Vec<StreamReport> = closed.into_iter().map(StreamHandle::wait).collect();
    let end = Instant::now();
    let cpu_s = process_cpu_s() - cpu0;
    reports.sort_by_key(|r| r.name[1..].parse::<usize>().expect("stream name s<n>"));

    // Check every stream's decodes against what its capture carried, and
    // time each packet from when the daemon admitted the frame with its
    // last payload sample to when its receiver returned it, on the stream
    // worker's CPU clock: in a batch with 1-18% steal, the wall-clock p99
    // followed the steal (2.7 ms at 1%, 7.4 ms at 18%; spread 0.59 over 10
    // seeds) while the p50 held within 0.013.
    let lora = single_channel_lora();
    let (fs, sps) = (lora.sample_rate(), lora.samples_per_symbol());
    let log = std::mem::take(&mut *tagger.returned.lock().expect("return log lock"));
    let mut by_stream: Vec<Vec<(DemodResult, f64)>> = vec![Vec::new(); streams.len()];
    for (s, r, at) in log.packets {
        by_stream[s].push((r, at));
    }
    let mut check = DecodeCheck::default();
    let mut latencies_ms = Vec::new();
    let mut wire_errors = 0;
    for (s, &capture) in streams.iter().enumerate() {
        let truth = &captures[capture].truth;
        let decoded: Vec<&DemodResult> = by_stream[s].iter().map(|(r, _)| r).collect();
        let c = check_decodes(truth, fs, lora.symbol_duration(), &decoded);
        for (t, hit) in truth.iter().zip(&c.matched) {
            let due = admitted_cpu[s][last_payload_sample(t, sps) / CHUNK_SAMPLES];
            let back = hit.map_or(log.flushed[&s], |i| by_stream[s][i].1);
            latencies_ms.push((back - due) * 1e3);
        }
        check.absorb(&c);
        wire_errors += wire_mismatches(&reports[s], &decoded);
    }
    ServeRun {
        air_s: streams.len() as f64 * captures[0].samples as f64 / fs,
        streams,
        reports,
        check,
        latencies_ms,
        admitted,
        send_ms,
        depth_max,
        peak_rss_mb: rss_mb,
        wall_s: end.duration_since(origin).as_secs_f64(),
        cpu_s,
        wire_errors,
    }
}

/// Packets of a stream report that its binary or JSONL encoding does not
/// carry back intact, or that differ from what the receiver returned.
fn wire_mismatches(report: &StreamReport, returned: &[&DemodResult]) -> usize {
    let same = |a: &[GatewayPacket]| {
        a.len() == returned.len()
            && a.iter().zip(returned).all(|(p, r)| {
                p.result.symbols == r.symbols
                    && (p.result.payload_start_time - r.payload_start_time).abs() < 1e-9
            })
    };
    let binary = wire::decode_binary_stream(&report.binary).unwrap_or_default();
    let jsonl = wire::decode_jsonl_stream(&report.jsonl).unwrap_or_default();
    if same(&report.packets) && same(&binary) && same(&jsonl) {
        0
    } else {
        returned.len().max(1)
    }
}

/// Mean seconds per frame of `work` over every frame of every capture,
/// recorded as spans of `layer`.
fn replay_frames(
    captures: &[Capture],
    tracer: &Tracer,
    layer: &'static str,
    mut work: impl FnMut(usize, &[u8]),
) -> f64 {
    let mut frames = 0u64;
    for (c, capture) in captures.iter().enumerate() {
        for j in 0..capture.frames() {
            tracer.time(layer, c as u64, j as u64, 1, || work(c, capture.frame(j)));
            frames += 1;
        }
    }
    LayerSpans::of(&tracer.spans(), layer).busy_s() / frames as f64
}

/// Per-packet cost of the binary + JSONL packet encoders, replayed on every
/// packet the run returned.
fn replay_wire_encode(reports: &[StreamReport], tracer: &Tracer) -> f64 {
    let mut binary = Vec::new();
    let mut packets = 0u64;
    for report in reports {
        for p in &report.packets {
            binary.clear();
            tracer.time("serve.wire.encode", 0, packets, 1, || {
                wire::encode_packet_binary(p, &mut binary);
                wire::encode_packet_jsonl(p).expect("decoded packets are finite")
            });
            packets += 1;
        }
    }
    LayerSpans::of(&tracer.spans(), "serve.wire.encode").busy_s() / packets.max(1) as f64
}

pub fn run(args: &RunArgs) -> Outcome {
    let tracer = Arc::new(Tracer::new(args.trace));
    let untraced = Arc::new(Tracer::new(false));
    let ((captures, pool), setup_s) = timed_setup(SETUPS, || {
        let captures = build_captures(args.seed);
        let factory: saiyan::ReceiverFactory = Arc::new(|| {
            Box::new(StreamingDemodulator::new(
                receiver_config(),
                PAYLOAD_SYMBOLS,
            )) as BoxedReceiver
        });
        (captures, Arc::new(PooledExecutor::new(factory, 1)))
    });
    let serve = |tracer: &Arc<Tracer>| {
        let tagger = Arc::new(StreamTagger {
            pool: Arc::clone(&pool),
            next: Mutex::new(None),
            returned: Arc::new(Mutex::new(ReturnLog::default())),
            tracer: Arc::clone(tracer),
        });
        let daemon = ServeDaemon::new(
            tagger.clone() as Arc<dyn ReceiverExecutor>,
            ServeConfig::default()
                .with_queue_depth(QUEUE_DEPTH)
                .with_policy(BackpressurePolicy::Block),
        );
        let run = serve_run(&daemon, &tagger, &captures, args.seconds, tracer.enabled());
        // The daemon keeps every finished stream's worker, queue and
        // telemetry until shutdown; what shutdown gives back is that
        // retention.
        let before = rss_mb();
        let telemetry = daemon.shutdown();
        let retained_kb = (before - rss_mb()) * 1024.0 / run.streams.len() as f64;
        (run, telemetry, retained_kb)
    };

    let (plain, _, _) = serve(&untraced);
    let mut check = plain.check.clone();
    let mut failed = (check.failed() + plain.wire_errors) as u64;
    let mut metrics = BTreeMap::new();
    let mut accounting = None;
    if args.trace {
        let built0 = pool.built();
        let reused0 = pool.reused();
        let (run, telemetry, retained_kb) = serve(&tracer);
        check.absorb(&run.check);
        failed += (run.check.failed() + run.wire_errors) as u64;
        let built = pool.built() - built0;
        let reused = pool.reused() - reused0;

        // Stand-alone replays: the ingest byte decoder per frame, the same
        // receiver alone on this thread per frame (the bare baseline the
        // served receiver is compared with), and the packet encoders.
        let mut scratch: Vec<Iq> = Vec::new();
        let decode_s = replay_frames(&captures, &tracer, "serve.wire.decode", |_, frame| {
            scratch.clear();
            wire::bytes_to_samples_into(frame, &mut scratch);
        });
        let mut bare: Vec<StreamingDemodulator> = (0..CAPTURES)
            .map(|_| StreamingDemodulator::new(receiver_config(), PAYLOAD_SYMBOLS))
            .collect();
        let frames: Vec<Vec<Vec<Iq>>> = captures
            .iter()
            .map(|c| {
                (0..c.frames())
                    .map(|j| wire::bytes_to_samples(c.frame(j)).0)
                    .collect()
            })
            .collect();
        let mut next = [0usize; CAPTURES];
        let bare_s = replay_frames(&captures, &tracer, "core.streaming.bare", |c, _| {
            std::hint::black_box(bare[c].push_samples(&frames[c][next[c]]));
            next[c] += 1;
        });
        let encode_s = replay_wire_encode(&run.reports, &tracer);

        let spans = tracer.spans();
        let rx = LayerSpans::of(&spans, "serve.rx");
        let checkin = LayerSpans::of(&spans, "core.executor.checkin");
        let fed: Vec<_> = spans
            .iter()
            .filter(|s| s.layer == "serve.rx" && s.count > 0)
            .collect();
        let waits_us: Vec<f64> = fed
            .iter()
            .map(|s| {
                let admitted = tracer.offset_ns(run.admitted[s.parent as usize][s.seq as usize]);
                (s.start_ns as f64 - admitted as f64) / 1e3
            })
            .collect();
        let chunk_us: Vec<f64> = fed.iter().map(|s| s.secs() * 1e6).collect();
        let n_frames = fed.len() as u64;
        let packets: usize = run.reports.iter().map(|r| r.packets.len()).sum();
        // Each stream has its own worker thread for the whole run, and the
        // receiver spans are wall time, so the basis is worker wall time.
        let acc = Accounting {
            basis: "stream-worker wall s (one stream at a time)",
            basis_s: run.wall_s,
            rows: vec![
                LayerRow {
                    layer: "serve.rx",
                    busy_s: rx.busy_s(),
                    calls: rx.calls() as u64,
                },
                LayerRow {
                    layer: "serve.wire.decode",
                    busy_s: decode_s * n_frames as f64,
                    calls: n_frames,
                },
                LayerRow {
                    layer: "serve.wire.encode",
                    busy_s: encode_s * packets as f64,
                    calls: packets as u64,
                },
                LayerRow {
                    layer: "core.executor.checkin",
                    busy_s: checkin.busy_s(),
                    calls: checkin.calls() as u64,
                },
            ],
        };
        let pct = |v: &[f64], q: f64| stats::percentile(v, q).expect("over 1000 frames");
        metrics.insert("core.streaming.busy_s", rx.busy_s());
        metrics.insert("core.streaming.chunk_p50_us", pct(&chunk_us, 0.5));
        metrics.insert("core.streaming.chunk_p99_us", pct(&chunk_us, 0.99));
        metrics.insert("core.streaming.bare_us_per_frame", bare_s * 1e6);
        metrics.insert("core.streaming.samples_in", rx.count() as f64);
        metrics.insert("core.streaming.packets_out", packets as f64);
        metrics.insert("core.decoder.symbol_errors", check.symbol_errors as f64);
        metrics.insert("serve.rx.busy_s", rx.busy_s());
        metrics.insert("serve.rx.busy_share", rx.busy_s() / run.wall_s);
        metrics.insert(
            "core.executor.reused_ratio",
            reused as f64 / (built + reused) as f64,
        );
        metrics.insert("serve.queue.wait_p50_us", pct(&waits_us, 0.5));
        metrics.insert("serve.queue.wait_p99_us", pct(&waits_us, 0.99));
        metrics.insert("serve.queue.depth_max", run.depth_max as f64);
        metrics.insert("serve.wire.decode_us_per_frame", decode_s * 1e6);
        metrics.insert("serve.wire.encode_us_per_packet", encode_s * 1e6);
        metrics.insert("serve.gen.send_p99_ms", pct(&run.send_ms, 0.99));
        let opens = LayerSpans::of(&spans, "serve.daemon.open").durations_us();
        metrics.insert("serve.daemon.open_p50_us", pct(&opens, 0.5));
        metrics.insert("serve.daemon.retained_kb_per_stream", retained_kb);
        metrics.insert(
            "serve.dropped_chunks",
            telemetry.dropped_chunks_total as f64,
        );
        metrics.insert(
            "serve.malformed_bytes",
            telemetry.malformed_bytes_total as f64,
        );
        metrics.insert(
            "trace.overhead_pct",
            (plain.realtime_x() / run.realtime_x() - 1.0) * 100.0,
        );
        metrics.insert("trace.unattributed_share", acc.unattributed_share());
        accounting = Some(acc);
        args.write_spans(&tracer);
    } else {
        let (p50, p99) = latency_percentiles(&plain.latencies_ms).expect("at least 1000 packets");
        metrics.insert("setup_s", setup_s);
        metrics.insert("realtime_x", plain.realtime_x());
        metrics.insert("cpu_s_per_air_s", plain.cpu_s / plain.air_s);
        metrics.insert("decode_ratio", check.exact as f64 / check.expected as f64);
        metrics.insert(
            "symbol_accuracy",
            check.symbols_ok as f64 / (check.symbols_ok + check.symbol_errors) as f64,
        );
        metrics.insert("latency_p50_ms", p50);
        metrics.insert("latency_p99_ms", p99);
        metrics.insert("peak_rss_mb", plain.peak_rss_mb);
    }
    Outcome {
        correct: failed == 0,
        attempted: check.expected as u64,
        failed,
        metrics,
        params: serde_json::json!({
            "receiver": "StreamingDemodulator, Vanilla, production profile, pooled",
            "concurrent_streams": 1,
            "peak_rss_after_streams": RSS_STREAMS,
            "frame_samples": CHUNK_SAMPLES,
            "queue_depth": QUEUE_DEPTH,
            "backpressure": "block",
            "streams_per_run": plain.streams.len(),
            "packets_per_stream": PACKETS_PER_CAPTURE,
            "latency_ms": latency_histogram(&plain.latencies_ms),
            "send_ms": latency_histogram(&plain.send_ms),
        }),
        accounting,
    }
}
