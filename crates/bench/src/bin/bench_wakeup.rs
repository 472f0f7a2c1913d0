//! Paced-run wake-up and latency measurement.  Replays an equi-join
//! workload in real time — the operating mode the event-driven worker
//! wake-ups and the driver's punctual pacing wait exist for — at batch
//! 1, 8 and 64, asserts that every row's result keys equal the Kang
//! oracle's on the same schedule, and prints the idle worker wake-ups
//! and the per-result latency distribution as JSON, with the host that
//! measured them.  `BENCH_wakeup.json` at the repo root is a snapshot.
//!
//! Run with `cargo run --release -p llhj-bench --bin bench_wakeup`.

use llhj_baselines::run_kang;
use llhj_core::homing::RoundRobin;
use llhj_core::time::TimeDelta;
use llhj_core::window::WindowSpec;
use llhj_runtime::{llhj_indexed_nodes, run_pipeline, Pacing, PipelineOptions};
use llhj_workload::{equi_join_schedule, EquiJoinWorkload, EquiXaPredicate};

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let workload = EquiJoinWorkload {
        rate_per_sec: 1_000.0,
        duration: TimeDelta::from_secs(2),
        domain: 4_000,
        seed: 0xC0FFEE,
    };
    let window = WindowSpec::Count(250);
    let schedule = equi_join_schedule(&workload, window, window);
    let nodes = 4;
    let oracle = run_kang(EquiXaPredicate, &schedule).result_keys();

    println!("{{\n  \"experiment\": \"paced_wakeups\",");
    println!("  \"host\": {},", llhj_bench::host_meta_json());
    println!(
        "  \"rate_per_sec\": {}, \"stream_secs\": 2, \"nodes\": {nodes}, \"speedup\": 1.0,",
        workload.rate_per_sec
    );
    println!("  \"rows\": [");
    let batches = [1usize, 8, 64];
    for (i, &batch_size) in batches.iter().enumerate() {
        let opts = PipelineOptions {
            batch_size,
            pacing: Pacing::RealTime { speedup: 1.0 },
            flush_interval: Some(TimeDelta::from_millis(5)),
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
            "batch {batch_size}: the paced run's results differ from Kang's"
        );
        let mut lat: Vec<f64> = outcome
            .results
            .iter()
            .map(|t| t.latency().as_millis_f64())
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "    {{\"batch_size\": {}, \"idle_wakeups\": {}, \"frames_injected\": {}, \
             \"results\": {}, \"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"max_ms\": {:.3}, \"elapsed_s\": {:.3}}}{}",
            batch_size,
            outcome.idle_wakeups,
            outcome.frames_injected,
            outcome.results.len(),
            outcome.latency.mean().as_millis_f64(),
            percentile_ms(&lat, 0.50),
            percentile_ms(&lat, 0.99),
            outcome.latency.max().as_millis_f64(),
            outcome.elapsed.as_secs_f64(),
            if i + 1 < batches.len() { "," } else { "" },
        );
    }
    println!("  ]\n}}");
}
