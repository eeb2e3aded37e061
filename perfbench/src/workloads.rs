//! The runs: one untraced workload for the end-to-end metrics, or the
//! traced run for the per-layer metrics of every workload.

use crate::host::peak_rss_mb;
use crate::inputs::{ModelArtifact, BATCH};
use crate::layers;
use crate::offline::{run_loop, Backend, LoopStats, OfflineInputs};
use crate::report::{median, quantile, spearman, Metrics, Tally};
use crate::serve::{batching, drive, replay_stages, Conn, HttpInputs};
use crate::trace::Tracer;
use crate::Args;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A run measures in this many rounds. Each round times one bring-up,
/// then one segment of the closed loop, so the bring-ups and the loop
/// both sample the whole run rather than one stretch of it.
const ROUNDS: u32 = 28;
/// Bring-ups of each engine in the traced run.
const TRACED_BRING_UPS: usize = 5;
/// Closed-loop warm-up before anything is timed.
const WARMUP: Duration = Duration::from_secs(1);
/// Requests of stream 0 replayed stage by stage in the traced run.
const REPLAY_REQUESTS: usize = 256;
/// Time spent on each engine of each layer by the layer probes.
const PROBE_PER_CALL: Duration = Duration::from_millis(40);

/// What the rounds of an untraced run measured.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    completed: f64,
    seconds: f64,
    /// Sum and count of the clip latencies, milliseconds.
    latency_sum_ms: f64,
    latencies: usize,
    tally: Tally,
}

impl Rounds {
    fn push(
        &mut self,
        setup_s: f64,
        completed: usize,
        seconds: f64,
        latencies_ms: &[f64],
        tally: Tally,
    ) {
        self.setup_s.push(setup_s);
        self.completed += completed as f64;
        self.seconds += seconds;
        self.latency_sum_ms += latencies_ms.iter().sum::<f64>();
        self.latencies += latencies_ms.len();
        self.tally.add(tally);
    }

    /// `setup_s` is the median bring-up; `throughput_rps` the clips
    /// completed over the time the loop ran; `latency_mean_ms` the mean
    /// over every clip. The clips of a batch finish together, so a
    /// median would be the batch time of whichever host speed mode held
    /// most of the run; the mean averages over the modes as throughput
    /// does.
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("throughput_rps", self.completed / self.seconds, "1/s");
        m.put(
            "latency_mean_ms",
            self.latency_sum_ms / self.latencies as f64,
            "ms",
        );
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    }
}

pub fn run_offline(backend: Backend, args: &Args) -> (Metrics, Tally) {
    let inputs = OfflineInputs::new(backend, args.seed);
    let mut off = Tracer::off();
    let (mut engine, _) = inputs.bring_up(&mut off);
    let want = inputs.reference(&engine);
    let mut next = 0;
    let mut warm = LoopStats::default();
    let t = Instant::now();
    run_loop(
        &inputs,
        &mut engine,
        &want,
        t + WARMUP,
        &mut next,
        &mut off,
        &mut warm,
    );
    let mut rounds = Rounds {
        tally: warm.tally,
        ..Rounds::default()
    };
    for _ in 0..ROUNDS {
        let (_, setup_s) = inputs.bring_up(&mut off);
        let mut seg = LoopStats::default();
        let t = Instant::now();
        run_loop(
            &inputs,
            &mut engine,
            &want,
            t + args.seconds / ROUNDS,
            &mut next,
            &mut off,
            &mut seg,
        );
        let seconds = t.elapsed().as_secs_f64();
        rounds.push(
            setup_s,
            seg.batches * BATCH,
            seconds,
            &seg.clip_ms,
            seg.tally,
        );
    }
    (rounds.metrics(), rounds.tally)
}

/// Untraced and traced throughput over the segments of `SEGMENTS`.
struct Alternation {
    rates: [Vec<f64>; 2],
}

impl Alternation {
    fn new() -> Alternation {
        Alternation {
            rates: [Vec::new(), Vec::new()],
        }
    }

    fn push(&mut self, traced: bool, completed: f64, seconds: f64) {
        self.rates[usize::from(traced)].push(completed / seconds);
    }

    /// Mean throughput of the untraced segments.
    fn untraced_rate(&self) -> f64 {
        mean(&self.rates[0])
    }

    /// Throughput lost to tracing, as a percentage of the untraced one.
    fn overhead_pct(&self) -> f64 {
        100.0 * (mean(&self.rates[0]) - mean(&self.rates[1])) / mean(&self.rates[0])
    }
}

/// Arithmetic mean of `v`; NaN when empty.
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Whether each segment of a workload's share of the traced run is
/// traced. The order is ABBA twice, so linear drift over the share falls
/// on both sides alike.
const SEGMENTS: [bool; 8] = [false, true, true, false, false, true, true, false];

pub fn run_traced(args: &Args) -> (Metrics, Tally) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let mut off = Tracer::off();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    // The f32 loop, the sim loop and the HTTP loop get a third each.
    let segment = args.seconds / (3 * SEGMENTS.len() as u32);

    // Offline loops, f32 then sim.
    let mut offline = Vec::new();
    for backend in [Backend::F32, Backend::Sim] {
        let inputs = OfflineInputs::new(backend, args.seed);
        let mut engine = (0..TRACED_BRING_UPS)
            .map(|_| inputs.bring_up(&mut tr).0)
            .last()
            .expect("at least one bring-up");
        let want = inputs.reference(&engine);
        let mut next = 0;
        let mut stats = LoopStats::default();
        let t = Instant::now();
        run_loop(
            &inputs,
            &mut engine,
            &want,
            t + WARMUP / 2,
            &mut next,
            &mut off,
            &mut stats,
        );
        let grows = engine.arena_grow_events();
        let mut alt = Alternation::new();
        for traced in SEGMENTS {
            let mut seg = LoopStats::default();
            let t = Instant::now();
            let sink = if traced { &mut tr } else { &mut off };
            run_loop(
                &inputs,
                &mut engine,
                &want,
                t + segment,
                &mut next,
                sink,
                &mut seg,
            );
            alt.push(
                traced,
                (seg.batches * BATCH) as f64,
                t.elapsed().as_secs_f64(),
            );
            stats.tally.add(seg.tally);
        }
        tally.add(stats.tally);
        offline.push((
            backend,
            alt.overhead_pct(),
            engine.arena_grow_events() - grows,
        ));
    }

    // HTTP server: measured here only, ungated; see perfbench/README.md.
    let http = HttpInputs::new(args.seed);
    for _ in 1..TRACED_BRING_UPS {
        http.bring_up(&mut tr).0.shutdown();
    }
    let (server, _) = http.bring_up(&mut tr);
    let mut conns = Conn::open_all(server.local_addr());
    tally.add(drive(&http, &mut conns, Instant::now() + WARMUP / 2, &mut off).tally);
    let before = server.snapshot();
    let mut alt = Alternation::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    for traced in SEGMENTS {
        let t = Instant::now();
        let sink = if traced { &mut tr } else { &mut off };
        let stats = drive(&http, &mut conns, t + segment, sink);
        alt.push(traced, stats.completed as f64, t.elapsed().as_secs_f64());
        if traced {
            traced_ms.extend(stats.total_ms);
        } else {
            untraced_ms.extend(stats.total_ms);
        }
        tally.add(stats.tally);
    }
    let (clips_per_batch, hit_ratio) = batching(&before, &server.snapshot());
    drop(conns);
    server.shutdown();
    let http_overhead = alt.overhead_pct();

    // Stage replays and layer probes, with nothing else running.
    replay_stages(&http, REPLAY_REQUESTS, &mut tr, &mut tally);
    let probes = layers::probe(
        &ModelArtifact::pruned_lite(args.seed),
        args.seed,
        PROBE_PER_CALL,
        &mut tr,
    );

    // Setup steps.
    let ms = |name: &str| median(&tr.durations_ms(name));
    m.put("setup.ckpt_parse_ms", ms("setup.ckpt_parse"), "ms");
    m.put("setup.build_restore_ms", ms("setup.build_restore"), "ms");
    m.put(
        "setup.block_csr_ms",
        median(&tr.self_times_ms("setup.new_pruned")),
        "ms",
    );
    m.put("setup.quantize_ms", ms("setup.quantize"), "ms");
    m.put("setup.first_batch_ms", ms("setup.first_batch"), "ms");
    m.put(
        "setup.sim_first_batch_ms",
        ms("setup.sim_first_batch"),
        "ms",
    );
    m.put(
        "setup.http.ckpt_parse_ms",
        ms("setup.http.ckpt_parse"),
        "ms",
    );
    m.put(
        "setup.http.build_restore_ms",
        ms("setup.http.build_restore"),
        "ms",
    );
    m.put("setup.server_start_ms", ms("setup.server_start"), "ms");
    m.put("setup.first_response_ms", ms("setup.first_response"), "ms");

    // Offline engines and scheduler.
    for (backend, overhead, grows) in offline {
        match backend {
            Backend::F32 => {
                m.put("engine.f32.batch_ms", ms("engine.f32.batch"), "ms");
                m.put(
                    "scheduler.overhead_ms",
                    median(&tr.self_times_ms("scheduler.drain")),
                    "ms",
                );
                m.put("engine.arena_grow_events", grows as f64, "count");
                m.put("trace.overhead_f32_pct", overhead, "%");
            }
            Backend::Sim => {
                m.put("engine.sim.batch_ms", ms("engine.sim.batch"), "ms");
                m.put("trace.overhead_sim_pct", overhead, "%");
            }
        }
    }

    // Conv layers, f32 and Q7.8, beside the analytic model.
    for p in &probes {
        m.put(format!("nn.{}.f32_ms", p.name), p.f32_ms, "ms");
        m.put(
            format!("nn.{}.macs_run", p.name),
            p.macs_run as f64,
            "count",
        );
    }
    for p in &probes {
        m.put(format!("fpga.{}.q78_ms", p.name), p.q78_ms, "ms");
        m.put(
            format!("fpga.{}.sim_cycles", p.name),
            p.sim_cycles as f64,
            "count",
        );
        m.put(
            format!("fpga.{}.blocks_skipped", p.name),
            p.blocks_skipped as f64,
            "count",
        );
        m.put(
            format!("fpga.{}.model_cycles", p.name),
            p.model_cycles as f64,
            "count",
        );
    }
    let col = |f: fn(&layers::LayerProbe) -> f64| probes.iter().map(f).collect::<Vec<f64>>();
    let model = col(|p| p.model_cycles as f64);
    m.put(
        "nn.rank_corr_f32_vs_model",
        spearman(&col(|p| p.f32_ms), &model),
        "rho",
    );
    m.put(
        "fpga.rank_corr_q78_vs_model",
        spearman(&col(|p| p.q78_ms), &model),
        "rho",
    );

    // HTTP stages.
    let us = |name: &str| 1e3 * ms(name);
    m.put("wire.head_parse_us", us("wire.head_parse"), "us");
    m.put("wire.decode_f32_us", us("wire.decode_f32"), "us");
    m.put("wire.decode_q78_us", us("wire.decode_q78"), "us");
    m.put("wire.decode_vid_us", us("wire.decode_vid"), "us");
    m.put("engine.f32.clip_ms", ms("engine.f32.clip"), "ms");
    m.put("json.render_us", us("json.render"), "us");
    m.put("wire.write_us", us("wire.write"), "us");
    let ttfb = ms("client.ttfb");
    let replay_total = tr.durations_ms("replay");
    let replay_self = tr.self_times_ms("replay");
    let staged: Vec<f64> = replay_total
        .iter()
        .zip(&replay_self)
        .map(|(t, s)| t - s)
        .collect();
    m.put("client.ttfb_ms", ttfb, "ms");
    m.put("http.unattributed_ms", ttfb - median(&staged), "ms");
    m.put("http.clips_per_batch", clips_per_batch, "count");
    m.put("respcache.hit_ratio", hit_ratio, "ratio");
    m.put("http.throughput_rps", alt.untraced_rate(), "1/s");
    m.put("http.latency_mean_ms", mean(&untraced_ms), "ms");
    m.put("latency_p50_ms", quantile(&traced_ms, 0.5), "ms");
    m.put("latency_p99_ms", quantile(&traced_ms, 0.99), "ms");
    m.put("latency_p99_samples", traced_ms.len() as f64, "count");
    m.put("trace.overhead_http_pct", http_overhead, "%");

    let path = trace_dir().join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
    (m, tally)
}

/// Where the traced run writes its spans: under the build directory.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-traces")
}
