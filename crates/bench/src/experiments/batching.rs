//! Batching sweep: throughput and latency of the threaded runtime as a
//! function of the driver's frame granularity.
//!
//! This is the experiment the batched-transport refactor exists for.  The
//! equi-join workload keeps per-tuple matching work small (node-local hash
//! indexes), so transport — channel operations, wake-ups, per-message
//! dispatch — dominates the hot path, and the sweep isolates how much of
//! that cost frames of `batch_size` tuples amortise.  `batch_size = 1` is
//! the eager per-tuple transport of the low-latency configuration;
//! `batch_size = 64` is the paper's default driver batch (Section 7.3).
//! The simulator runs the same sweep in virtual time, which is how the
//! latency side of the trade-off (Figure 20's axis) is measured without
//! wall-clock noise.

use crate::{fmt_f, Scale, TextTable};
use llhj_baselines::run_kang;
use llhj_core::homing::RoundRobin;
use llhj_core::time::TimeDelta;
use llhj_core::window::WindowSpec;
use llhj_runtime::{llhj_indexed_nodes, run_pipeline, PipelineOptions};
use llhj_sim::{run_simulation, Algorithm, SimConfig};
use llhj_workload::{equi_join_schedule, EquiJoinWorkload, EquiXaPredicate};

/// One measured operating point of the sweep.
#[derive(Debug, Clone)]
pub struct BatchingRow {
    /// Driver batch size in tuples per frame.
    pub batch_size: usize,
    /// Threaded-runtime throughput (tuples/s per stream, wall clock).
    pub throughput_per_stream: f64,
    /// Entry frames the threaded driver injected.
    pub frames_injected: u64,
    /// Simulator mean result latency (virtual time, milliseconds).
    pub sim_latency_ms: f64,
    /// Simulator frames delivered (injections plus forwards).
    pub sim_frames: u64,
    /// Result count; [`run`] asserts the result set equals the Kang
    /// oracle's on the sweep's schedule.
    pub results: usize,
}

/// Output of the batching sweep.
#[derive(Debug)]
pub struct BatchingReport {
    /// One row per swept batch size.
    pub rows: Vec<BatchingRow>,
    /// Human-readable report.
    pub report: String,
}

impl BatchingReport {
    /// Throughput of the row with the given batch size.
    pub fn throughput_at(&self, batch_size: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.batch_size == batch_size)
            .map(|r| r.throughput_per_stream)
    }

    /// Serialises the sweep as a JSON snapshot (hand-rolled: the build
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": \"batching_sweep\",\n");
        out.push_str(&format!("  \"host\": {},\n", crate::host_meta_json()));
        out.push_str("  \"workload\": \"equi_join\",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"batch_size\": {}, \"throughput_per_stream\": {:.1}, \
                 \"frames_injected\": {}, \"sim_latency_ms\": {:.3}, \
                 \"sim_frames\": {}, \"results\": {}}}{}\n",
                row.batch_size,
                row.throughput_per_stream,
                row.frames_injected,
                row.sim_latency_ms,
                row.sim_frames,
                row.results,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The equi-join workload the sweep replays.
pub fn sweep_workload(scale: &Scale) -> EquiJoinWorkload {
    EquiJoinWorkload {
        rate_per_sec: scale.rate_per_sec * 20.0,
        // A wide key domain keeps the match count low, so the measured
        // time is transport, not result materialisation.
        duration: TimeDelta::from_secs(scale.duration_secs.min(10)),
        domain: scale.domain * 20,
        seed: scale.seed,
    }
}

/// Runs the sweep over the given batch sizes.
///
/// # Panics
///
/// If a row's threaded result set differs from the Kang oracle's on the
/// same schedule.
pub fn run(scale: &Scale, batch_sizes: &[usize]) -> BatchingReport {
    let workload = sweep_workload(scale);
    let window = WindowSpec::Count((workload.rate_per_sec / 4.0) as usize);
    let schedule = equi_join_schedule(&workload, window, window);
    let oracle = run_kang(EquiXaPredicate, &schedule).result_keys();
    let nodes = 4;

    let mut rows = Vec::with_capacity(batch_sizes.len());
    for &batch_size in batch_sizes {
        // Wall-clock side: the threaded runtime, unpaced.
        let opts = PipelineOptions {
            batch_size,
            ..Default::default()
        };
        let outcome = run_pipeline(
            llhj_indexed_nodes(nodes, EquiXaPredicate),
            EquiXaPredicate,
            RoundRobin,
            &schedule,
            &opts,
        );
        assert_eq!(
            outcome.result_keys(),
            oracle,
            "batch {batch_size}: the threaded run's results differ from Kang's"
        );

        // Virtual-time side: the simulator at the same granularity.
        let mut cfg = SimConfig::new(nodes, Algorithm::LlhjIndexed);
        cfg.batch_size = batch_size;
        cfg.window_r = window;
        cfg.window_s = window;
        cfg.expected_rate_per_sec = workload.rate_per_sec;
        cfg.latency_bucket = u64::MAX;
        let sim = run_simulation(&cfg, EquiXaPredicate, RoundRobin, &schedule);

        rows.push(BatchingRow {
            batch_size,
            throughput_per_stream: outcome.throughput_per_stream(),
            frames_injected: outcome.frames_injected,
            sim_latency_ms: sim.latency.mean().as_millis_f64(),
            sim_frames: sim.frames_delivered,
            results: outcome.results.len(),
        });
    }

    let mut table = TextTable::new([
        "batch",
        "throughput (t/s)",
        "frames",
        "sim latency (ms)",
        "sim frames",
        "results",
    ]);
    for row in &rows {
        table.row([
            row.batch_size.to_string(),
            fmt_f(row.throughput_per_stream, 1),
            row.frames_injected.to_string(),
            fmt_f(row.sim_latency_ms, 3),
            row.sim_frames.to_string(),
            row.results.to_string(),
        ]);
    }
    let report = format!(
        "Batching sweep: frame granularity vs throughput and latency (equi join)\n{}",
        table.render()
    );
    BatchingReport { rows, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_consistent_and_batching_helps() {
        let scale = Scale::smoke();
        let report = run(&scale, &[1, 16]);
        assert_eq!(report.rows.len(), 2);
        // `run` asserts each row's result set equals Kang's; the counts
        // must then agree with the oracle's, and be non-trivial.
        let workload = sweep_workload(&scale);
        let window = WindowSpec::Count((workload.rate_per_sec / 4.0) as usize);
        let schedule = equi_join_schedule(&workload, window, window);
        let kang = run_kang(EquiXaPredicate, &schedule).results.len();
        assert!(kang > 0);
        assert!(report.rows.iter().all(|row| row.results == kang));
        // Coarser frames -> fewer frames, both measured and simulated.
        assert!(report.rows[1].frames_injected < report.rows[0].frames_injected);
        assert!(report.rows[1].sim_frames < report.rows[0].sim_frames);
        // Latency grows with the batch (virtual time, so exact).
        assert!(report.rows[1].sim_latency_ms > report.rows[0].sim_latency_ms);
        let json = report.to_json();
        assert!(json.contains("\"batch_size\": 16"));
        assert!(report.report.contains("Batching sweep"));
    }
}
