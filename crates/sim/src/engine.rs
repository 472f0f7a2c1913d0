//! The discrete-event pipeline simulator.
//!
//! The simulator stands in for the 48-core AMD "Magny Cours" machine used
//! in the paper's evaluation.  It executes the *same* node state machines
//! as the threaded runtime, one virtual core per pipeline node, connected
//! by FIFO links with a configurable hop latency.  Like the threaded
//! runtime, the links carry [`MessageBatch`](llhj_core::message::MessageBatch)
//! *frames*: the driver groups up to `batch_size` arrivals per entry
//! frame, and a node forwards the complete output of one frame as one
//! frame per direction.  Every frame charges its node a service time
//! derived from the [`crate::cost::CostModel`] (one per-frame transport
//! cost, then per-message and per-comparison costs for its contents) and
//! each inter-node hop is paid once per frame — so the latency/throughput
//! trade-off of message granularity (Sections 2 and 4 of the paper)
//! emerges from the algorithm's real behaviour rather than from
//! closed-form assumptions, while remaining deterministic and independent
//! of the host machine's core count.
//!
//! A fixed chain is the elastic chain of [`crate::elastic`] with an empty
//! resize plan: one event loop and one entry batcher serve every
//! simulated chain.

use crate::config::SimConfig;
use crate::report::SimReport;
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::HomePolicy;
use llhj_core::predicate::JoinPredicate;

/// Runs one simulation of the configured pipeline over a driver schedule.
///
/// The same schedule fed to `llhj_baselines::run_kang` (or to the
/// threaded runtime) yields exactly the same result *set*; what the
/// simulator adds is virtual time: latencies, utilization and punctuation
/// behaviour.
pub fn run_simulation<R, S, P, H>(
    config: &SimConfig,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
) -> SimReport<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    crate::elastic::run_elastic_simulation(config, predicate, policy, schedule, &[]).report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::fixtures::{eq_pred, small_schedule};
    use llhj_core::homing::RoundRobin;
    use llhj_core::punctuation::verify_punctuated_stream;
    use llhj_core::time::Timestamp;
    use llhj_core::window::WindowSpec;

    /// Like [`small_schedule`], but followed by one full window length of
    /// never-matching "flush" tuples.  The original handshake join only
    /// moves tuples through the pipeline while new input keeps arriving, so
    /// over a finite input its pending pairs are only guaranteed to be
    /// reported if the stream keeps flowing for one more window length —
    /// this is exactly what a real, infinite stream provides.
    fn flushed_schedule() -> DriverSchedule<u32, u32> {
        let window_ms = 1_000u64;
        let real = 200u64;
        let flush = window_ms + 100;
        let r: Vec<_> = (0..real)
            .map(|i| (Timestamp::from_millis(i), (i % 20) as u32))
            .chain((0..flush).map(|i| (Timestamp::from_millis(real + i), 1_000_000u32)))
            .collect();
        let s: Vec<_> = (0..real)
            .map(|i| (Timestamp::from_millis(i), (i % 25) as u32))
            .chain((0..flush).map(|i| (Timestamp::from_millis(real + i), 2_000_000u32)))
            .collect();
        DriverSchedule::build(r, s, WindowSpec::time_secs(1), WindowSpec::time_secs(1))
    }

    fn config(nodes: usize, algorithm: Algorithm) -> SimConfig {
        let mut cfg = SimConfig::new(nodes, algorithm);
        cfg.batch_size = 4;
        cfg.window_r = WindowSpec::time_secs(1);
        cfg.window_s = WindowSpec::time_secs(1);
        cfg.expected_rate_per_sec = 1000.0;
        cfg.latency_bucket = 50;
        cfg
    }

    #[test]
    fn llhj_simulation_matches_kang_oracle() {
        let schedule = small_schedule();
        let oracle = llhj_baselines::run_kang(eq_pred(), &schedule);
        for nodes in [1, 2, 3, 5, 8] {
            let report = run_simulation(
                &config(nodes, Algorithm::Llhj),
                eq_pred(),
                RoundRobin,
                &schedule,
            );
            assert_eq!(
                report.result_keys(),
                oracle.result_keys(),
                "LLHJ with {nodes} nodes must produce the oracle result set"
            );
        }
    }

    #[test]
    fn hsj_simulation_matches_kang_oracle() {
        let schedule = flushed_schedule();
        let oracle = llhj_baselines::run_kang(eq_pred(), &schedule);
        for nodes in [1, 2, 4, 7] {
            let report = run_simulation(
                &config(nodes, Algorithm::Hsj),
                eq_pred(),
                RoundRobin,
                &schedule,
            );
            assert_eq!(
                report.result_keys(),
                oracle.result_keys(),
                "HSJ with {nodes} nodes must produce the oracle result set"
            );
        }
    }

    #[test]
    fn llhj_latency_is_far_below_hsj_latency() {
        let schedule = flushed_schedule();
        let llhj = run_simulation(
            &config(4, Algorithm::Llhj),
            eq_pred(),
            RoundRobin,
            &schedule,
        );
        let hsj = run_simulation(&config(4, Algorithm::Hsj), eq_pred(), RoundRobin, &schedule);
        assert!(llhj.latency.count() > 0);
        assert!(hsj.latency.count() > 0);
        // LLHJ latency is dominated by driver batching (a few ms at this
        // rate); HSJ latency is a sizeable fraction of the 1-second window.
        assert!(
            llhj.latency.mean().as_millis_f64() * 10.0 < hsj.latency.mean().as_millis_f64(),
            "expedition must reduce latency by far more than 10x: {} vs {}",
            llhj.latency.mean(),
            hsj.latency.mean()
        );
    }

    #[test]
    fn batching_trades_latency_for_transport_work() {
        let schedule = small_schedule();
        let mut fine = config(3, Algorithm::Llhj);
        fine.batch_size = 1;
        let mut coarse = config(3, Algorithm::Llhj);
        coarse.batch_size = 64;
        let fine_r = run_simulation(&fine, eq_pred(), RoundRobin, &schedule);
        let coarse_r = run_simulation(&coarse, eq_pred(), RoundRobin, &schedule);

        // Same join, same result set: the batch size is pure transport.
        assert_eq!(fine_r.result_keys(), coarse_r.result_keys());

        // The coarse run moves far fewer (but larger) frames...
        assert!(
            coarse_r.frames_delivered * 4 < fine_r.frames_delivered,
            "frames: {} coarse vs {} fine",
            coarse_r.frames_delivered,
            fine_r.frames_delivered
        );
        // (Even at batch 1 a frame can hold several messages: queued
        // expiries ride the next arrival's frame, as in the seed driver.)
        assert!(
            coarse_r.messages_delivered / coarse_r.frames_delivered
                > fine_r.messages_delivered / fine_r.frames_delivered
        );

        // ...spending less virtual time on transport overall...
        assert!(
            coarse_r.busy_ns.iter().sum::<u64>() < fine_r.busy_ns.iter().sum::<u64>(),
            "batching must reduce total busy time"
        );

        // ...at the price of batching delay: per-tuple latency grows.
        assert!(
            coarse_r.latency.mean() > fine_r.latency.mean(),
            "coarse batches must cost latency: {} vs {}",
            coarse_r.latency.mean(),
            fine_r.latency.mean()
        );
    }

    #[test]
    fn punctuated_output_is_valid_and_sortable() {
        let schedule = small_schedule();
        let mut cfg = config(3, Algorithm::Llhj);
        cfg.punctuate = true;
        let report = run_simulation(&cfg, eq_pred(), RoundRobin, &schedule);
        assert!(report.punctuation_count > 0);
        assert_eq!(
            verify_punctuated_stream(&report.output, |t| t.result.ts()),
            Ok(())
        );
        let (max_buffer, emitted) = report.sorted_output_buffer();
        assert_eq!(emitted as usize, report.results.len());
        assert!(max_buffer <= report.results.len());
    }

    #[test]
    fn utilization_grows_with_offered_load() {
        let make = |gap_us: u64| {
            let r: Vec<_> = (0..400u64)
                .map(|i| (Timestamp::from_micros(i * gap_us), (i % 5) as u32))
                .collect();
            let s: Vec<_> = (0..400u64)
                .map(|i| (Timestamp::from_micros(i * gap_us), (i % 7) as u32))
                .collect();
            DriverSchedule::build(r, s, WindowSpec::Count(200), WindowSpec::Count(200))
        };
        let cfg = config(2, Algorithm::Llhj);
        let slow = run_simulation(&cfg, eq_pred(), RoundRobin, &make(2_000));
        let fast = run_simulation(&cfg, eq_pred(), RoundRobin, &make(20));
        assert!(fast.max_utilization() > slow.max_utilization());
        assert!(slow.is_sustainable(0.95));
    }

    #[test]
    fn report_counts_are_consistent() {
        let schedule = small_schedule();
        let report = run_simulation(
            &config(3, Algorithm::Llhj),
            eq_pred(),
            RoundRobin,
            &schedule,
        );
        assert_eq!(report.arrivals_per_stream, (200, 200));
        assert_eq!(report.nodes, 3);
        assert_eq!(report.counters.len(), 3);
        assert!(report.total_comparisons() > 0);
        assert!(report.makespan_ns >= report.last_injection_ns);
        let series_total: u64 = report
            .latency_series
            .iter()
            .map(|p| p.summary.count())
            .sum();
        assert_eq!(series_total as usize, report.results.len());
    }

    #[test]
    fn indexed_llhj_matches_and_uses_fewer_comparisons() {
        // Equi predicate with keys so the index applies.
        #[derive(Clone)]
        struct Eq;
        impl JoinPredicate<u32, u32> for Eq {
            fn matches(&self, r: &u32, s: &u32) -> bool {
                r == s
            }
            fn r_key(&self, r: &u32) -> Option<u64> {
                Some(*r as u64)
            }
            fn s_key(&self, s: &u32) -> Option<u64> {
                Some(*s as u64)
            }
            fn supports_index(&self) -> bool {
                true
            }
        }
        let schedule = small_schedule();
        let plain = run_simulation(&config(4, Algorithm::Llhj), Eq, RoundRobin, &schedule);
        let indexed = run_simulation(
            &config(4, Algorithm::LlhjIndexed),
            Eq,
            RoundRobin,
            &schedule,
        );
        assert_eq!(plain.result_keys(), indexed.result_keys());
        assert!(
            indexed.total_comparisons() < plain.total_comparisons() / 2,
            "index should cut comparisons: {} vs {}",
            indexed.total_comparisons(),
            plain.total_comparisons()
        );
        assert!(indexed.busy_ns.iter().sum::<u64>() < plain.busy_ns.iter().sum::<u64>());
    }
}
