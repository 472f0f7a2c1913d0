//! # llhj-runtime — threaded pipeline runtime for handshake joins
//!
//! Deploys the node state machines of `llhj-core` the way the paper deploys
//! them on its multicore machine: one worker thread per pipeline node,
//! point-to-point FIFO frame channels between neighbours, a driver
//! thread that applies the sliding-window specification, and a collector
//! thread that assembles the result stream (optionally punctuated).
//!
//! The transport is *batched*: channels move [`llhj_core::MessageBatch`]
//! frames, and workers forward the complete output of each frame as one
//! frame per direction.  The driver batches only while the entry node is
//! busy: once the driver has caught up with the schedule, an entry frame
//! leaves as soon as its link is empty, so a node that keeps up gets one
//! frame per arrival, and arrivals accumulate only while it (or the
//! driver) is behind — up to [`PipelineOptions::batch_size`], and for at
//! most [`PipelineOptions::flush_interval`].  `batch_size = 1` reproduces
//! the eager per-tuple transport exactly.
//!
//! Scheduling is *event-driven*: an idle worker parks on a per-worker
//! [`channel::WaitSet`] registered with both of its input channels and is
//! woken by the next frame on either input (or by shutdown) — there is no
//! polling loop anywhere in the pipeline.  On paced runs with a
//! `flush_interval`, the driver's pacing wait wakes every half interval to
//! re-apply the flush policy, so a stream that goes silent cannot hold
//! results back; there is no timer thread.  See [`pipeline`] for the full
//! picture.
//!
//! Tuning: `batch_size` caps how much batching a busy node may absorb
//! (one channel operation per frame), and `flush_interval` bounds how long
//! a frame held back by a busy node may wait — set it near your latency
//! budget.  Neither adds latency while the nodes keep up.
//!
//! ```no_run
//! use llhj_core::prelude::*;
//! use llhj_runtime::{llhj_nodes, run_pipeline, PipelineOptions};
//!
//! let pred = FnPredicate(|r: &u32, s: &u32| r == s);
//! let schedule = DriverSchedule::build(
//!     vec![(Timestamp::from_millis(1), 7u32)],
//!     vec![(Timestamp::from_millis(2), 7u32)],
//!     WindowSpec::time_secs(10),
//!     WindowSpec::time_secs(10),
//! );
//! let outcome = run_pipeline(
//!     llhj_nodes(4, pred.clone()),
//!     pred,
//!     RoundRobin,
//!     &schedule,
//!     &PipelineOptions::default(),
//! );
//! assert_eq!(outcome.results.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autoscale;
pub mod channel;
pub mod elastic;
mod exec;
pub mod mesh;
pub mod metrics;
pub mod options;
pub mod pipeline;
pub mod ring;

pub use autoscale::{run_autoscaled_pipeline, AutoscaleOptions};
pub use channel::CancelToken;
pub use elastic::{
    hsj_age_factory, llhj_factory, llhj_indexed_factory, recover_elastic_pipeline,
    run_elastic_pipeline, CheckpointConfig, ElasticPipeline, NodeFactory, ResizeEvent,
    ScalePipeline, ScalePlan, ScaleStep,
};
pub use mesh::{recover_mesh_pipeline, run_mesh_pipeline, MeshOutcome, MeshPipeline, ReshardEvent};
pub use metrics::MetricsBus;
pub use options::{Pacing, PipelineOptions};
pub use pipeline::{run_pipeline, RunOutcome};

/// Whether [`PipelineOptions::pin_cores`] can actually pin on this host:
/// the platform supports thread affinity and exposes at least `threads`
/// logical cores (one per pinned thread).  Bench binaries use this to
/// record honestly whether their numbers were taken pinned.
pub fn pinning_available(threads: usize) -> bool {
    exec::pinning_available(threads)
}

use llhj_core::node::PipelineNode;
use llhj_core::node_hsj::{FlowPolicy, HsjNode};
use llhj_core::node_llhj::LlhjNode;
use llhj_core::predicate::JoinPredicate;

/// Builds the nodes of a low-latency handshake join pipeline.
pub fn llhj_nodes<R, S, P>(nodes: usize, predicate: P) -> Vec<Box<dyn PipelineNode<R, S>>>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
{
    (0..nodes)
        .map(|k| {
            Box::new(LlhjNode::new(k, nodes, predicate.clone())) as Box<dyn PipelineNode<R, S>>
        })
        .collect()
}

/// Builds the nodes of a low-latency handshake join pipeline with node-local
/// hash indexes (requires a predicate that exposes equi-keys).
pub fn llhj_indexed_nodes<R, S, P>(nodes: usize, predicate: P) -> Vec<Box<dyn PipelineNode<R, S>>>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
{
    (0..nodes)
        .map(|k| {
            Box::new(LlhjNode::with_index(k, nodes, predicate.clone()))
                as Box<dyn PipelineNode<R, S>>
        })
        .collect()
}

/// Builds the nodes of an original handshake join pipeline with the given
/// flow policy.
pub fn hsj_nodes<R, S, P>(
    nodes: usize,
    flow: FlowPolicy,
    predicate: P,
) -> Vec<Box<dyn PipelineNode<R, S>>>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
{
    (0..nodes)
        .map(|k| {
            Box::new(HsjNode::new(k, nodes, flow, predicate.clone())) as Box<dyn PipelineNode<R, S>>
        })
        .collect()
}

/// Test fixtures shared by the crate's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use llhj_core::driver::DriverSchedule;
    use llhj_core::predicate::FnPredicate;
    use llhj_core::time::{TimeDelta, Timestamp};
    use llhj_core::window::WindowSpec;

    /// Equality on `u32` payloads.
    pub(crate) fn eq_pred() -> FnPredicate<fn(&u32, &u32) -> bool> {
        fn eq(r: &u32, s: &u32) -> bool {
            r == s
        }
        FnPredicate(eq as fn(&u32, &u32) -> bool)
    }

    /// `tuples` arrivals per stream 1 ms apart, values cycling mod 13 (R)
    /// and mod 17 (S), under `window_ms` time windows.
    pub(crate) fn schedule(tuples: u64, window_ms: u64) -> DriverSchedule<u32, u32> {
        let r: Vec<_> = (0..tuples)
            .map(|i| (Timestamp::from_millis(i), (i % 13) as u32))
            .collect();
        let s: Vec<_> = (0..tuples)
            .map(|i| (Timestamp::from_millis(i), (i % 17) as u32))
            .collect();
        let window = WindowSpec::Time(TimeDelta::from_millis(window_ms));
        DriverSchedule::build(r, s, window, window)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{eq_pred, schedule};
    use super::*;
    use llhj_baselines::run_kang;
    use llhj_core::driver::DriverSchedule;
    use llhj_core::homing::RoundRobin;
    use llhj_core::punctuation::verify_punctuated_stream;
    use llhj_core::time::{TimeDelta, Timestamp};
    use llhj_core::window::WindowSpec;

    fn flushed_schedule(tuples: u64, window_ms: u64) -> DriverSchedule<u32, u32> {
        let flush = window_ms + 10;
        let r: Vec<_> = (0..tuples)
            .map(|i| (Timestamp::from_millis(i), (i % 13) as u32))
            .chain((0..flush).map(|i| (Timestamp::from_millis(tuples + i), 1_000_000u32)))
            .collect();
        let s: Vec<_> = (0..tuples)
            .map(|i| (Timestamp::from_millis(i), (i % 17) as u32))
            .chain((0..flush).map(|i| (Timestamp::from_millis(tuples + i), 2_000_000u32)))
            .collect();
        DriverSchedule::build(
            r,
            s,
            WindowSpec::Time(TimeDelta::from_millis(window_ms)),
            WindowSpec::Time(TimeDelta::from_millis(window_ms)),
        )
    }

    #[test]
    fn threaded_llhj_matches_kang_oracle() {
        let sched = schedule(300, 150);
        let oracle = run_kang(eq_pred(), &sched);
        for nodes in [1usize, 2, 4] {
            // Replay in real time: window semantics are only exact when the
            // window span dwarfs the pipeline traversal time, as on a real
            // deployment.
            let opts = PipelineOptions {
                batch_size: 8,
                pacing: Pacing::RealTime { speedup: 1.0 },
                ..Default::default()
            };
            let outcome = run_pipeline(
                llhj_nodes(nodes, eq_pred()),
                eq_pred(),
                RoundRobin,
                &sched,
                &opts,
            );
            assert_eq!(
                outcome.result_keys(),
                oracle.result_keys(),
                "threaded LLHJ with {nodes} workers"
            );
            assert_eq!(outcome.counters.len(), nodes);
            assert!(outcome.total_comparisons() > 0);
        }
    }

    #[test]
    fn threaded_hsj_matches_kang_oracle() {
        let sched = flushed_schedule(200, 100);
        let oracle = run_kang(eq_pred(), &sched);
        let flow = llhj_core::node_hsj::FlowPolicy::by_age(
            TimeDelta::from_millis(100),
            TimeDelta::from_millis(100),
        );
        for (nodes, batch_size) in [(1usize, 1usize), (3, 1), (2, 8)] {
            // Exact oracle equality at every granularity: self-expiry is
            // one-sided (each probe evicts only the window it is about to
            // scan), so a frame lagging in the opposite direction can no
            // longer lose the tuples it still needs.  Historically this
            // held only at batch_size = 1; the coarse-batch sweep lives in
            // `llhj-bench`'s oracle_miss experiment, which asserts zero
            // misses up to batch 32.
            let opts = PipelineOptions {
                batch_size,
                pacing: Pacing::RealTime { speedup: 1.0 },
                ..Default::default()
            };
            let outcome = run_pipeline(
                hsj_nodes(nodes, flow, eq_pred()),
                eq_pred(),
                RoundRobin,
                &sched,
                &opts,
            );
            assert_eq!(
                outcome.result_keys(),
                oracle.result_keys(),
                "threaded HSJ with {nodes} workers at batch {batch_size}"
            );
        }
    }

    #[test]
    fn threaded_hsj_is_exact_under_coarse_batching() {
        // Coarse frames historically missed boundary pairs because
        // self-expiry evicted both windows with one probe's timestamp;
        // one-sided eviction makes batch 16 exact too.
        let sched = flushed_schedule(200, 100);
        let oracle = run_kang(eq_pred(), &sched);
        let flow = llhj_core::node_hsj::FlowPolicy::by_age(
            TimeDelta::from_millis(100),
            TimeDelta::from_millis(100),
        );
        let opts = PipelineOptions {
            batch_size: 16,
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let outcome = run_pipeline(
            hsj_nodes(2, flow, eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &opts,
        );
        let keys = outcome.result_keys();
        let mut deduped = keys.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), keys.len(), "no duplicates");
        assert_eq!(
            keys,
            oracle.result_keys(),
            "HSJ at batch 16 must match the oracle exactly"
        );
    }

    #[test]
    fn punctuated_output_is_valid() {
        let sched = schedule(250, 100);
        let opts = PipelineOptions {
            batch_size: 4,
            punctuate: true,
            ..Default::default()
        };
        let outcome = run_pipeline(
            llhj_nodes(3, eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &opts,
        );
        assert!(outcome.punctuation_count > 0);
        assert_eq!(
            verify_punctuated_stream(&outcome.output, |t| t.result.ts()),
            Ok(())
        );
        // Every result also appears in the punctuated stream.
        let result_items = outcome
            .output
            .iter()
            .filter(|i| i.as_result().is_some())
            .count();
        assert_eq!(result_items, outcome.results.len());
    }

    #[test]
    fn indexed_pipeline_matches_and_is_cheaper() {
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
        let sched = schedule(300, 200);
        let opts = PipelineOptions {
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let oracle = run_kang(Eq, &sched);
        let plain = run_pipeline(llhj_nodes(2, Eq), Eq, RoundRobin, &sched, &opts);
        let indexed = run_pipeline(llhj_indexed_nodes(2, Eq), Eq, RoundRobin, &sched, &opts);
        assert_eq!(plain.result_keys(), oracle.result_keys());
        assert_eq!(indexed.result_keys(), oracle.result_keys());
        assert!(indexed.total_comparisons() < plain.total_comparisons());
    }

    #[test]
    fn real_time_pacing_reports_latencies() {
        // 100 tuples per stream over 0.1 s of stream time, replayed at 2x
        // speed: the run takes ~0.05 s of wall-clock time and latencies are
        // small but non-zero.
        let sched = schedule(100, 100);
        let opts = PipelineOptions {
            pacing: Pacing::RealTime { speedup: 2.0 },
            batch_size: 4,
            ..Default::default()
        };
        let outcome = run_pipeline(
            llhj_nodes(2, eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &opts,
        );
        let oracle = run_kang(eq_pred(), &sched);
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert!(outcome.latency.count() > 0);
        assert!(outcome.elapsed.as_secs_f64() < 5.0);
        assert!(outcome.throughput_per_stream() > 0.0);
    }
}
