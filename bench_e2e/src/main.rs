//! `bench_e2e` — paced, oracle-checked end-to-end benchmark.
//!
//! Replays a seeded workload through the threaded runtime's public API in
//! real time (`Pacing::RealTime { speedup: 1.0 }`), so every result is
//! timed from the due time of its later tuple and driver lateness counts.
//! Every run's result pairs are checked against the Kang oracle.
//!
//! ```text
//! bench_e2e --workload <band_scan|equi_hop|band_elastic|all>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` additionally runs the workload traced (nodes wrapped in
//! `TracedNode`, the checkpoint store in `TracedStore`) and reports the
//! per-layer metrics, the single-threaded Kang baseline and, for the
//! fixed-chain workloads, the simulator's prediction.  Every metric is
//! printed as `metric <name> <value> <unit> n=<samples>`; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and the gated
//! metrics of the chosen mode.

use bench_e2e::layers::{analyse, LayerReport};
use bench_e2e::oracle::{compare, Key};
use bench_e2e::procfs::{
    cpu_ticks, peak_rss_mib, process_cpu_seconds, reset_peak_rss, steal_share,
};
use bench_e2e::stats::{median, windowed_quantile, Quantiles};
use bench_e2e::trace::{TraceSink, TracedNode, TracedStore};
use llhj_baselines::run_kang;
use llhj_core::checkpoint::{CheckpointStore, DirStore};
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::RoundRobin;
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::{verify_punctuated_stream, OutputItem};
use llhj_core::result::TimedResult;
use llhj_core::stats::NodeCounters;
use llhj_core::time::TimeDelta;
use llhj_core::window::WindowSpec;
use llhj_runtime::{
    llhj_factory, llhj_indexed_factory, llhj_indexed_nodes, llhj_nodes, run_pipeline,
    CheckpointConfig, ElasticPipeline, NodeFactory, Pacing, PipelineOptions, ResizeEvent,
    ScalePlan, ScaleStep,
};
use llhj_sim::{run_simulation, Algorithm, SimConfig};
use llhj_workload::{
    BandJoinWorkload, BandPredicate, EquiJoinWorkload, EquiXaPredicate, RTuple, STuple,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 7;
/// The second seed a claimed gain must also hold on (never tuned against).
const HOLDOUT_SEED: u64 = 1009;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// `band_elastic` checkpoints after every this many schedule events.
const CHECKPOINT_EVERY: usize = 16_000;

/// End-to-end metrics, gated, printed in the JSON line with `--trace 0`.
/// The 99th percentile and CPU per tuple are printed but not gated: on a
/// shared 2-core virtual machine their run-to-run spread (up to 36% and
/// 26% over ten runs) exceeds any usable bound.
const END_TO_END: &[&str] = &["latency_p50_ms", "latency_p95_ms", "peak_rss_mb", "setup_s"];

/// Per-layer metrics printed in the JSON line with `--trace 1`: the ones
/// every workload measures.  Elastic and checkpoint timings, the batching
/// fill, `runtime.batch_allocs` and the simulator rows are missing or a
/// constant 0 on some workload, so they are printed as `metric` lines only.
const PER_LAYER: &[&str] = &[
    "cpu_us_per_tuple",
    "setup.generate_s",
    "setup.schedule_s",
    "driver.frames",
    "driver.msgs_per_frame",
    "driver.lag_ms",
    "entry.wait_ms_p50",
    "entry.wait_ms_p99",
    "hop.wait_ms_p50",
    "hop.wait_ms_p99",
    "runtime.idle_wakeups",
    "node.busy_s",
    "node.busy_share",
    "node.frame_us_p50",
    "node.frame_us_p99",
    "node.acks",
    "node.expedition_ends",
    "node.forwards",
    "store.comparisons_per_arrival",
    "store.hit_ratio",
    "store.window_peak",
    "store.iws_peak",
    "collector.results",
    "collector.punctuations",
    "elastic.moved_tuples",
    "checkpoint.count",
    "checkpoint.bytes",
    "decomp.latency_ms",
    "decomp.entry_wait_ms",
    "decomp.hops_ms",
    "decomp.frame_ms",
    "decomp.residual_ms",
    "trace.overhead",
    "kang.us_per_tuple",
    "kang.comparisons",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    BandScan,
    EquiHop,
    BandElastic,
}

/// One workload's fixed parameters; the seed and length come from the CLI.
#[derive(Debug)]
struct Spec {
    kind: Kind,
    name: &'static str,
    /// Tuples per second, per stream.
    rate: f64,
    /// Time window of both streams (ms).
    window_ms: u64,
    /// Join-attribute domain.
    domain: u32,
    /// Driver batch size.
    batch: usize,
    /// Flush timer of partial entry frames (ms of stream time).
    flush_ms: Option<u64>,
    /// Initial chain width.
    nodes: usize,
}

const SPECS: [Spec; 3] = [
    Spec {
        kind: Kind::BandScan,
        name: "band_scan",
        rate: 8000.0,
        window_ms: 4000,
        domain: 4000,
        batch: 64,
        flush_ms: Some(2),
        nodes: 2,
    },
    Spec {
        kind: Kind::EquiHop,
        name: "equi_hop",
        rate: 10_000.0,
        window_ms: 1000,
        domain: 10_000,
        batch: 1,
        flush_ms: None,
        nodes: 2,
    },
    Spec {
        kind: Kind::BandElastic,
        name: "band_elastic",
        rate: 4000.0,
        window_ms: 2000,
        domain: 2000,
        batch: 64,
        flush_ms: Some(2),
        nodes: 2,
    },
];

impl Spec {
    fn window(&self) -> WindowSpec {
        WindowSpec::Time(TimeDelta::from_millis(self.window_ms))
    }

    fn options(&self) -> PipelineOptions {
        PipelineOptions {
            pacing: Pacing::RealTime { speedup: 1.0 },
            batch_size: self.batch,
            flush_interval: self.flush_ms.map(TimeDelta::from_millis),
            punctuate: self.kind == Kind::BandElastic,
            ..Default::default()
        }
    }
}

struct Args {
    specs: Vec<&'static Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: bench_e2e --workload <band_scan|equi_hop|band_elastic|all> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    let specs: Vec<&Spec> = SPECS
        .iter()
        .filter(|s| workload == "all" || s.name == workload)
        .collect();
    if specs.is_empty() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        specs,
        seed,
        seconds,
        trace,
    })
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

type Schedule = DriverSchedule<RTuple, STuple>;
type Nodes = Vec<Box<dyn PipelineNode<RTuple, STuple>>>;
type Timed = TimedResult<RTuple, STuple>;

/// The workload's inputs, built the way a deployment would build them.
struct Prepared {
    schedule: Schedule,
    generate_s: f64,
    schedule_s: f64,
}

/// Generates the seeded arrivals, compiles the driver schedule, and drops
/// the events after the last arrival: they only drain windows, and a paced
/// replay would idle through one window span to inject them.
fn prepare(spec: &Spec, seed: u64, seconds: u64) -> Prepared {
    let started = Instant::now();
    let duration = TimeDelta::from_secs(seconds);
    let (r, s) = match spec.kind {
        Kind::EquiHop => {
            let w = EquiJoinWorkload {
                rate_per_sec: spec.rate,
                duration,
                domain: spec.domain,
                seed,
            };
            (w.generate_r(), w.generate_s())
        }
        Kind::BandScan | Kind::BandElastic => {
            let w = BandJoinWorkload::scaled(spec.rate, duration, spec.domain, seed);
            (w.generate_r(), w.generate_s())
        }
    };
    let generated = Instant::now();
    let full = DriverSchedule::build(r, s, spec.window(), spec.window());
    let arrivals_end = full
        .events()
        .iter()
        .rposition(|e| e.event.is_arrival())
        .map_or(0, |i| i + 1);
    let schedule = full.truncated(arrivals_end);
    drop(full);
    let done = Instant::now();
    Prepared {
        schedule,
        generate_s: (generated - started).as_secs_f64(),
        schedule_s: (done - generated).as_secs_f64(),
    }
}

/// What one pipeline run produced, whichever API ran it.
struct Run {
    results: Vec<Timed>,
    keys: Vec<Key>,
    output: Vec<OutputItem<Timed>>,
    counters: Vec<NodeCounters>,
    metered: Metered,
    frames_injected: u64,
    idle_wakeups: u64,
    batch_allocs: Option<u64>,
    punctuations: u64,
    resize_log: Vec<ResizeEvent>,
}

impl Run {
    /// The `q`-quantile of latency per 1 s window of detection time,
    /// median over the windows (and their number).
    fn windowed_latency_ms(&self, q: f64) -> (f64, usize) {
        let samples: Vec<(f64, f64)> = self
            .results
            .iter()
            .map(|t| {
                (
                    t.detected_at.as_secs_f64(),
                    t.latency().as_micros() as f64 / 1e3,
                )
            })
            .collect();
        windowed_quantile(&samples, 1.0, q, 1000)
    }

    fn latencies_ms(&self) -> Quantiles {
        Quantiles::of(
            self.results
                .iter()
                .map(|t| t.latency().as_micros() as f64 / 1e3)
                .collect(),
        )
    }

    /// Punctuation violations (0 or 1: the check stops at the first; an
    /// unpunctuated run has an empty output stream and none).
    fn punctuation_errors(&self) -> u64 {
        u64::from(verify_punctuated_stream(&self.output, |t| t.result.ts()).is_err())
    }

    fn total(&self) -> NodeCounters {
        let mut total = NodeCounters::default();
        for c in &self.counters {
            total.merge(c);
        }
        total
    }
}

/// CPU time, wall time and peak memory around one pipeline call.
struct Meter {
    started: Instant,
    cpu: f64,
    ticks: [u64; 2],
}

/// What a [`Meter`] read.
struct Metered {
    wall_s: f64,
    cpu_s: f64,
    rss_mib: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    steal: f64,
}

impl Meter {
    fn start() -> Meter {
        if !reset_peak_rss() {
            eprintln!("bench_e2e: cannot reset VmHWM; peak_rss_mb covers the whole process");
        }
        Meter {
            started: Instant::now(),
            cpu: process_cpu_seconds().unwrap_or(0.0),
            ticks: cpu_ticks(),
        }
    }

    fn stop(self) -> Metered {
        let wall_s = self.started.elapsed().as_secs_f64();
        let cpu_s = process_cpu_seconds().unwrap_or(0.0) - self.cpu;
        Metered {
            wall_s,
            cpu_s,
            rss_mib: peak_rss_mib().unwrap_or(0.0),
            steal: steal_share(self.ticks, cpu_ticks()),
        }
    }
}

fn run_fixed<P>(spec: &Spec, predicate: P, nodes: Nodes, schedule: &Schedule) -> Run
where
    P: JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    let meter = Meter::start();
    let outcome = run_pipeline(nodes, predicate, RoundRobin, schedule, &spec.options());
    let metered = meter.stop();
    let keys = outcome.result_keys();
    Run {
        results: outcome.results,
        keys,
        output: outcome.output,
        counters: outcome.counters,
        metered,
        frames_injected: outcome.frames_injected,
        idle_wakeups: outcome.idle_wakeups,
        batch_allocs: Some(outcome.batch_allocs),
        punctuations: outcome.punctuation_count,
        resize_log: Vec::new(),
    }
}

fn run_elastic<P>(
    spec: &Spec,
    predicate: P,
    factory: NodeFactory<RTuple, STuple>,
    store: Arc<dyn CheckpointStore>,
    schedule: &Schedule,
) -> Run
where
    P: JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    // Grow 2 -> 3 at a third of the events, shrink back at two thirds.
    let events = schedule.events().len();
    let plan = ScalePlan::new(vec![
        ScaleStep {
            after_events: events / 3,
            target_nodes: spec.nodes + 1,
        },
        ScaleStep {
            after_events: 2 * events / 3,
            target_nodes: spec.nodes,
        },
    ]);
    let cfg = CheckpointConfig::new(store, CHECKPOINT_EVERY);
    let meter = Meter::start();
    let mut pipeline =
        ElasticPipeline::new(spec.nodes, factory, predicate, RoundRobin, spec.options());
    let _ = pipeline.run_schedule_checkpointed(schedule, &plan, &cfg);
    let outcome = pipeline.finish();
    let metered = meter.stop();
    let keys = outcome.result_keys();
    let mut counters = outcome.counters;
    counters.extend(outcome.retired_counters);
    Run {
        results: outcome.results,
        keys,
        output: outcome.output,
        counters,
        metered,
        frames_injected: outcome.frames_injected,
        idle_wakeups: outcome.idle_wakeups,
        batch_allocs: None,
        punctuations: outcome.punctuation_count,
        resize_log: outcome.resize_log,
    }
}

fn build_nodes<P>(spec: &Spec, predicate: &P) -> Nodes
where
    P: JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    if spec.kind == Kind::EquiHop {
        llhj_indexed_nodes(spec.nodes, predicate.clone())
    } else {
        llhj_nodes(spec.nodes, predicate.clone())
    }
}

fn factory<P>(spec: &Spec, predicate: &P) -> NodeFactory<RTuple, STuple>
where
    P: JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    if spec.kind == Kind::EquiHop {
        llhj_indexed_factory(predicate.clone())
    } else {
        llhj_factory(predicate.clone())
    }
}

/// A fresh checkpoint directory inside the working directory (the
/// benchmark reads and writes nothing outside it).
fn checkpoint_dir(tag: &str) -> PathBuf {
    Path::new(".bench_tmp").join(format!("ckpt-{}-{tag}", std::process::id()))
}

fn open_store(dir: &Path) -> Arc<dyn CheckpointStore> {
    Arc::new(DirStore::open(dir).unwrap_or_else(|e| panic!("cannot open {}: {e:?}", dir.display())))
}

fn remove_checkpoints(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Succeeds only once the last run's directory is gone.
    let _ = std::fs::remove_dir(".bench_tmp");
}

/// Runs the workload untraced (and, with `trace`, traced), checks both
/// against the oracle, and collects every metric.
fn run_workload<P>(spec: &Spec, predicate: P, seed: u64, seconds: u64, trace: bool) -> Report
where
    P: JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    let mut report = Report::default();

    // Set-up, repeated: generation, schedule compilation and trimming,
    // and building the nodes.
    // Each entry: [total, generation, schedule] seconds.
    let mut setups: Vec<[f64; 3]> = Vec::new();
    let mut prepared = None;
    let mut nodes = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let p = prepare(spec, seed, seconds);
        let built = (spec.kind != Kind::BandElastic).then(|| build_nodes(spec, &predicate));
        setups.push([started.elapsed().as_secs_f64(), p.generate_s, p.schedule_s]);
        prepared = Some(p);
        nodes = built;
    }
    let prepared = prepared.expect("at least one set-up");
    let schedule = &prepared.schedule;
    let arrivals = schedule.r_count() + schedule.s_count();
    let last_due_ms = schedule
        .last_arrival_ts()
        .map_or(0.0, |t| t.as_micros() as f64 / 1e3);
    let setup_median = |k: usize| median(&setups.iter().map(|s| s[k]).collect::<Vec<_>>());

    // Untraced, measured run.
    let run = match spec.kind {
        Kind::BandElastic => {
            let dir = checkpoint_dir("plain");
            let run = run_elastic(
                spec,
                predicate.clone(),
                factory(spec, &predicate),
                open_store(&dir),
                schedule,
            );
            remove_checkpoints(&dir);
            run
        }
        _ => run_fixed(
            spec,
            predicate.clone(),
            nodes.take().expect("fixed nodes"),
            schedule,
        ),
    };

    // The oracle runs after the measured call, so the peak-memory reading
    // does not include it.
    let kang_started = Instant::now();
    let kang = run_kang(predicate.clone(), schedule);
    let kang_s = kang_started.elapsed().as_secs_f64();
    let oracle = kang.result_keys();

    let errors = compare(&run.keys, &oracle);
    let punctuation_errors = run.punctuation_errors();
    let failed = errors.total() + punctuation_errors;
    report.attempted += oracle.len() as u64;
    report.failed += failed;
    eprintln!(
        "bench_e2e: {}: {} pairs, oracle {}; missing {}, spurious {}, duplicate {}, punctuation violations {}",
        spec.name,
        run.keys.len(),
        oracle.len(),
        errors.missing,
        errors.spurious,
        errors.duplicates,
        punctuation_errors
    );

    let latency = run.latencies_ms();
    let (p50, windows) = run.windowed_latency_ms(0.50);
    let (p99, _) = run.windowed_latency_ms(0.99);
    report.add("latency_p50_ms", p50, "ms", windows);
    report.add("latency_p99_ms", p99, "ms", windows);
    report.add(
        "latency_p95_ms",
        run.windowed_latency_ms(0.95).0,
        "ms",
        windows,
    );
    report.add(
        "latency_p50_whole_run_ms",
        latency.p50,
        "ms",
        latency.samples,
    );
    report.add(
        "latency_p99_whole_run_ms",
        latency.p99,
        "ms",
        latency.samples,
    );
    report.add("latency_p999_ms", latency.p999, "ms", latency.samples);
    report.add(
        "cpu_us_per_tuple",
        run.metered.cpu_s * 1e6 / arrivals.max(1) as f64,
        "us",
        arrivals,
    );
    report.add("peak_rss_mb", run.metered.rss_mib, "MiB", 1);
    report.add("setup_s", setup_median(0), "s", SETUP_REPEATS);
    report.add(
        "error_pairs",
        failed as f64 / oracle.len().max(1) as f64,
        "share",
        oracle.len(),
    );
    report.add("run.wall_s", run.metered.wall_s, "s", 1);
    report.add("host.steal_share", run.metered.steal, "share", 1);

    if !trace {
        return report;
    }

    // Traced run: the same workload with every node and the store wrapped.
    let sink = TraceSink::new();
    let width = spec.nodes;
    let traced = match spec.kind {
        Kind::BandElastic => {
            let dir = checkpoint_dir("traced");
            let inner = factory(spec, &predicate);
            let node_sink = Arc::clone(&sink);
            let wrapped: NodeFactory<RTuple, STuple> = Arc::new(move |id, n| {
                Box::new(TracedNode::new(inner(id, n), n, Arc::clone(&node_sink)))
            });
            let store = Arc::new(TracedStore::new(open_store(&dir), Arc::clone(&sink)));
            let run = run_elastic(spec, predicate.clone(), wrapped, store, schedule);
            remove_checkpoints(&dir);
            run
        }
        _ => {
            let nodes = build_nodes(spec, &predicate)
                .into_iter()
                .map(|n| {
                    Box::new(TracedNode::new(n, width, Arc::clone(&sink)))
                        as Box<dyn PipelineNode<RTuple, STuple>>
                })
                .collect();
            run_fixed(spec, predicate.clone(), nodes, schedule)
        }
    };
    // Tracing must be transparent: the traced run's pairs equal the
    // untraced run's (and therefore the oracle's).
    let drift = compare(&traced.keys, &run.keys).total() + traced.punctuation_errors();
    report.attempted += run.keys.len() as u64;
    report.failed += drift;
    let layers = analyse(&sink.take_nodes(), &sink.take_puts(), &traced.results);
    add_layer_metrics(&mut report, spec, &traced, &layers, arrivals, last_due_ms);
    report.add("setup.generate_s", setup_median(1), "s", SETUP_REPEATS);
    report.add("setup.schedule_s", setup_median(2), "s", SETUP_REPEATS);
    let traced_p50 = traced.latencies_ms().p50;
    report.add(
        "trace.overhead",
        traced_p50 / latency.p50.max(1e-9),
        "ratio",
        latency.samples,
    );
    report.add(
        "kang.us_per_tuple",
        kang_s * 1e6 / arrivals.max(1) as f64,
        "us",
        arrivals,
    );
    report.add("kang.comparisons", kang.comparisons as f64, "count", 1);

    // Simulator prediction on the same schedule (fixed chains only).
    if spec.kind != Kind::BandElastic {
        let mut cfg = SimConfig::new(
            spec.nodes,
            if spec.kind == Kind::EquiHop {
                Algorithm::LlhjIndexed
            } else {
                Algorithm::Llhj
            },
        );
        cfg.batch_size = spec.batch;
        cfg.window_r = spec.window();
        cfg.window_s = spec.window();
        cfg.expected_rate_per_sec = spec.rate;
        let sim = run_simulation(&cfg, predicate, RoundRobin, schedule);
        let predicted = Quantiles::of(
            sim.results
                .iter()
                .map(|t| t.latency().as_micros() as f64 / 1e3)
                .collect(),
        );
        report.add("sim.latency_p50_ms", predicted.p50, "ms", predicted.samples);
        report.add(
            "sim.p50_ratio",
            predicted.p50 / latency.p50.max(1e-9),
            "ratio",
            predicted.samples,
        );
    }
    report
}

fn add_layer_metrics(
    report: &mut Report,
    spec: &Spec,
    run: &Run,
    layers: &LayerReport,
    arrivals: usize,
    last_due_ms: f64,
) {
    let total = run.total();
    let peak_window = run
        .counters
        .iter()
        .map(|c| c.wr_peak + c.ws_peak)
        .max()
        .unwrap_or(0);
    let peak_iws = run.counters.iter().map(|c| c.iws_peak).max().unwrap_or(0);
    let frames = layers.frame_us.samples;
    let d = &layers.decomposition;

    report.add("driver.frames", run.frames_injected as f64, "count", 1);
    report.add(
        "driver.msgs_per_frame",
        layers.msgs_per_entry_frame,
        "msgs",
        layers.fill_ms.samples,
    );
    report.add(
        "driver.fill_ms_p50",
        layers.fill_ms.p50,
        "ms",
        layers.fill_ms.samples,
    );
    report.add(
        "driver.lag_ms",
        run.metered.wall_s * 1e3 - last_due_ms,
        "ms",
        1,
    );
    report.add(
        "entry.wait_ms_p50",
        layers.entry_wait_ms.p50,
        "ms",
        layers.entry_wait_ms.samples,
    );
    report.add(
        "entry.wait_ms_p99",
        layers.entry_wait_ms.p99,
        "ms",
        layers.entry_wait_ms.samples,
    );
    report.add(
        "hop.wait_ms_p50",
        layers.hop_wait_ms.p50,
        "ms",
        layers.hop_wait_ms.samples,
    );
    report.add(
        "hop.wait_ms_p99",
        layers.hop_wait_ms.p99,
        "ms",
        layers.hop_wait_ms.samples,
    );
    report.add("runtime.idle_wakeups", run.idle_wakeups as f64, "count", 1);
    if let Some(allocs) = run.batch_allocs {
        report.add("runtime.batch_allocs", allocs as f64, "count", 1);
    }
    report.add("node.busy_s", layers.busy_s, "s", frames);
    report.add("node.busy_share", layers.busy_share, "share", frames);
    report.add("node.frame_us_p50", layers.frame_us.p50, "us", frames);
    report.add("node.frame_us_p99", layers.frame_us.p99, "us", frames);
    report.add("node.acks", total.acks as f64, "count", 1);
    report.add(
        "node.expedition_ends",
        total.expedition_ends as f64,
        "count",
        1,
    );
    report.add("node.forwards", total.forwards as f64, "count", 1);
    report.add(
        "store.comparisons_per_arrival",
        total.comparisons as f64 / arrivals.max(1) as f64,
        "cmp/tuple",
        arrivals,
    );
    report.add(
        "store.hit_ratio",
        total.results as f64 / total.comparisons.max(1) as f64,
        "share",
        total.comparisons as usize,
    );
    report.add(
        "store.window_peak",
        peak_window as f64,
        "tuples",
        run.counters.len(),
    );
    report.add(
        "store.iws_peak",
        peak_iws as f64,
        "tuples",
        run.counters.len(),
    );
    report.add("collector.results", run.results.len() as f64, "count", 1);
    report.add(
        "collector.punctuations",
        run.punctuations as f64,
        "count",
        1,
    );

    let fences: Vec<f64> = run
        .resize_log
        .iter()
        .map(|e| e.fence_wall_micros as f64 / 1e3)
        .collect();
    let moved: usize = run
        .resize_log
        .iter()
        .map(|e| e.migrated_tuples + e.rebalanced_tuples)
        .sum();
    report.add("elastic.moved_tuples", moved as f64, "tuples", fences.len());
    report.add("checkpoint.count", layers.put_ms.samples as f64, "count", 1);
    report.add(
        "checkpoint.bytes",
        layers.checkpoint_bytes as f64,
        "bytes",
        layers.put_ms.samples,
    );
    if spec.kind == Kind::BandElastic {
        report.add(
            "elastic.fence_ms_sum",
            fences.iter().sum(),
            "ms",
            fences.len(),
        );
        report.add(
            "elastic.fence_ms_max",
            fences.iter().copied().fold(0.0, f64::max),
            "ms",
            fences.len(),
        );
        report.add("elastic.export_ms", layers.export_ms, "ms", fences.len());
        report.add("elastic.import_ms", layers.import_ms, "ms", fences.len());
        report.add(
            "checkpoint.put_ms_p50",
            layers.put_ms.p50,
            "ms",
            layers.put_ms.samples,
        );
        report.add(
            "checkpoint.put_ms_max",
            layers.put_ms.max,
            "ms",
            layers.put_ms.samples,
        );
        report.add(
            "checkpoint.capture_ms",
            layers.capture_ms.p50,
            "ms",
            layers.capture_ms.samples,
        );
    }

    report.add("decomp.latency_ms", d.latency_ms, "ms", d.samples);
    report.add("decomp.fill_ms", d.fill_ms, "ms", d.samples);
    report.add("decomp.entry_wait_ms", d.entry_wait_ms, "ms", d.samples);
    report.add("decomp.hops_ms", d.hops_ms, "ms", d.samples);
    report.add("decomp.frame_ms", d.frame_ms, "ms", d.samples);
    report.add("decomp.residual_ms", d.residual_ms, "ms", d.samples);
}

/// The commit the working directory was checked out at, if it is a git
/// checkout (read from `.git` directly; no process is started).
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench_e2e: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "run seed={} holdout_seed={} seconds={} trace={} commit={}",
        args.seed,
        HOLDOUT_SEED,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    // No workload pins threads: two workers, the driver and the collector
    // already outnumber the cores of the 2-core hosts this targets.
    println!("host {}", llhj_bench::host_meta_json_pinned(false));

    let multi = args.specs.len() > 1;
    let mut total = Report::default();
    let mut json_metrics = Vec::new();
    for spec in &args.specs {
        println!(
            "workload {} rate_per_stream={} window_ms={} domain={} batch={} flush_ms={} nodes={} pacing=realtime(1.0)",
            spec.name,
            spec.rate,
            spec.window_ms,
            spec.domain,
            spec.batch,
            spec.flush_ms.map_or("none".to_string(), |f| f.to_string()),
            spec.nodes,
        );
        let report = match spec.kind {
            Kind::EquiHop => {
                run_workload(spec, EquiXaPredicate, args.seed, args.seconds, args.trace)
            }
            Kind::BandScan | Kind::BandElastic => run_workload(
                spec,
                BandPredicate::default(),
                args.seed,
                args.seconds,
                args.trace,
            ),
        };
        for m in &report.metrics {
            println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
        let gated = if args.trace { PER_LAYER } else { END_TO_END };
        for name in gated {
            let m = report
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let key = if multi {
                format!("{}.{name}", spec.name)
            } else {
                name.to_string()
            };
            json_metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        total.attempted += report.attempted;
        total.failed += report.failed;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.failed == 0,
        total.attempted.max(1),
        total.failed,
        json_metrics.join(", ")
    );
}
