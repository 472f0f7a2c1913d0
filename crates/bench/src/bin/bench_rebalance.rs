//! What rebalance-on-grow buys: post-grow throughput recovery time.
//!
//! Before this PR a grow added *empty* nodes: the old nodes kept the whole
//! distributed window, so every probing tuple still scanned the same
//! oversized segments and the chain stayed bottlenecked until the window
//! naturally turned over (one full window span).  The chain-wide
//! redistribution spreads the window at the fence, so the grown chain
//! scans balanced segments — and is at full speed — immediately.
//!
//! This binary replays the same saturating workload twice through the
//! discrete-event simulator (host-independent virtual time): a 2 → 4 grow
//! with `rebalance_on_resize` on and off, and measures the **recovery
//! time** — how long after the fence the output rate first sustains 90%
//! of the post-grow steady rate.  The smoke assertion (run by CI) is the
//! acceptance criterion of the redistribution protocol: the rebalanced
//! chain must recover at least 2× faster than the cold-grow baseline, and
//! within one autoscale sample interval (100 ms) rather than the better
//! part of a window turnover.
//!
//! Snapshotted to `BENCH_rebalance.json` (sim section only — virtual time
//! does not depend on host cores; host metadata recorded for provenance).

use llhj_core::homing::RoundRobin;
use llhj_core::time::TimeDelta;
use llhj_core::window::WindowSpec;
use llhj_sim::{run_elastic_simulation, Algorithm, ElasticSimReport, SimConfig};
use llhj_workload::{band_join_schedule, BandJoinWorkload, BandPredicate, RTuple, STuple};

const BUCKET_NS: u64 = 20_000_000; // 20 ms of virtual time
const WINDOW_MS: u64 = 500;
const SAMPLE_INTERVAL_MS: u64 = 100;
const GROW_TO: usize = 6;

fn run(rebalance: bool) -> ElasticSimReport<RTuple, STuple> {
    // A steady rate that over-saturates two virtual cores (scan-dominated
    // cost model: each node's ~1.4 busy-seconds per second at width 2
    // drop to ~0.5 at width 6 — but only once the window state actually
    // spreads) and a domain dense enough for a smooth output-rate trace.
    let workload = BandJoinWorkload::scaled(1_200.0, TimeDelta::from_secs(3), 220, 0x5EED);
    let window = WindowSpec::Time(TimeDelta::from_millis(WINDOW_MS));
    let schedule = band_join_schedule(&workload, window, window);
    let grow_at = schedule
        .events()
        .iter()
        .position(|e| e.at >= llhj_core::time::Timestamp::from_millis(1_000))
        .expect("grow point inside the schedule");
    let mut cfg = SimConfig::new(2, Algorithm::Llhj);
    cfg.batch_size = 16;
    cfg.cost.per_comparison_ns = 2_000.0;
    cfg.window_r = window;
    cfg.window_s = window;
    cfg.expected_rate_per_sec = 1_200.0;
    cfg.latency_bucket = u64::MAX;
    cfg.rebalance_on_resize = rebalance;
    run_elastic_simulation(
        &cfg,
        BandPredicate::default(),
        RoundRobin,
        &schedule,
        &[(grow_at, GROW_TO)],
    )
}

/// Virtual nanoseconds from the fence until the output rate first reaches
/// `floor` results/s and stays at or above it for three consecutive
/// buckets (sustained recovery, not a transient spike).
fn recovery_ns(report: &ElasticSimReport<RTuple, STuple>, floor: f64) -> Option<u64> {
    let resize_at = report.resize_log[0].at_ns;
    let trace = report.throughput_trace(BUCKET_NS);
    let after: Vec<&(u64, f64)> = trace.iter().filter(|&&(t, _)| t >= resize_at).collect();
    for (i, &&(t, _)) in after.iter().enumerate() {
        let sustained = after[i..]
            .iter()
            .take(3)
            .filter(|&&&(_, rate)| rate >= floor)
            .count()
            == after[i..].len().min(3);
        if sustained && after.len() - i >= 3 {
            return Some(t - resize_at);
        }
    }
    None
}

fn main() {
    let balanced = run(true);
    let cold = run(false);

    // (No result-set check here: this binary measures the throughput
    // story.  The simulator's expiry barrier keeps even this saturated
    // run exact; tests/equivalence.rs and tests/elastic_scaling.rs pin
    // exactness.)
    let trace = balanced.throughput_trace(BUCKET_NS);
    let tail: Vec<f64> = trace
        .iter()
        .filter(|&&(t, _)| (2_200_000_000..2_900_000_000).contains(&t))
        .map(|&(_, rate)| rate)
        .collect();
    let steady = tail.iter().sum::<f64>() / tail.len() as f64;
    let floor = 0.9 * steady;

    let rec_balanced = recovery_ns(&balanced, floor).expect("rebalanced chain must recover");
    let rec_cold = recovery_ns(&cold, floor).expect("cold chain must recover eventually");

    println!("{{");
    println!("  \"experiment\": \"rebalance_on_grow\",");
    println!("  \"host\": {},", llhj_bench::host_meta_json());
    println!("  \"sim\": {{");
    println!(
        "    \"rate_per_sec\": 1200, \"stream_secs\": 3, \"window_ms\": {WINDOW_MS}, \
         \"plan\": \"grow 2->{GROW_TO} at 1 s\", \"trace_bucket_ms\": {},",
        BUCKET_NS / 1_000_000
    );
    println!(
        "    \"rebalanced\": {{\"rebalanced_tuples\": {}, \"residence_after\": {:?}, \
         \"recovery_ms\": {:.1}}},",
        balanced.resize_log[0].rebalanced_tuples,
        balanced.resize_log[0]
            .residence_after
            .iter()
            .map(|&(wr, ws)| wr + ws)
            .collect::<Vec<_>>(),
        rec_balanced as f64 / 1e6
    );
    println!(
        "    \"cold_grow\": {{\"rebalanced_tuples\": {}, \"residence_after\": {:?}, \
         \"recovery_ms\": {:.1}}},",
        cold.resize_log[0].rebalanced_tuples,
        cold.resize_log[0]
            .residence_after
            .iter()
            .map(|&(wr, ws)| wr + ws)
            .collect::<Vec<_>>(),
        rec_cold as f64 / 1e6
    );
    println!(
        "    \"steady_results_per_s\": {steady:.0}, \"recovery_speedup\": {:.1}, \
         \"window_turnover_ms\": {WINDOW_MS}, \"sample_interval_ms\": {SAMPLE_INTERVAL_MS}",
        rec_cold as f64 / rec_balanced as f64
    );
    println!("  }}");
    println!("}}");

    // The acceptance criteria, asserted so the CI smoke run guards them:
    // rebalanced recovery is at least 2x faster than the cold grow, and
    // lands within one sample interval instead of a window turnover.
    assert!(
        rec_cold as f64 >= 2.0 * rec_balanced as f64,
        "rebalance must recover >= 2x faster: {rec_balanced} ns vs {rec_cold} ns"
    );
    assert!(
        rec_balanced <= SAMPLE_INTERVAL_MS * 1_000_000,
        "rebalanced chain must be at steady throughput within one sample \
         interval, took {} ms",
        rec_balanced as f64 / 1e6
    );
}
