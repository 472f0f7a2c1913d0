//! The threaded pipeline runtime.
//!
//! This module deploys a handshake-join pipeline the way the paper does on
//! its 48-core machine: one worker thread per processing node, neighbouring
//! workers connected by point-to-point FIFO links, a driver thread that
//! replays the window driver's schedule, and a collector thread that
//! vacuums the per-worker result queues and (optionally) emits
//! punctuations derived from the high-water marks (Figure 15 / 16 of the
//! paper).
//!
//! The links carry batched frames, and entry frames fill only while the
//! entry node (or the driver) is busy — see the crate docs.
//!
//! [`run_pipeline`] deploys the given nodes as an
//! [`ElasticPipeline`] that is never steered: a fixed chain is an elastic
//! chain that never receives a scale command, replayed by the same driver
//! loop, so the two paths cannot drift.  What such a chain skips is only
//! what steering needs (see [`crate::elastic`]).
//!
//! The workers execute exactly the same node state machines as the
//! discrete-event simulator, so the produced result *set* is identical; the
//! runtime is what you would deploy on real hardware, while the simulator
//! is what the evaluation harness uses to sweep core counts beyond the host
//! machine.

use crate::elastic::{ElasticPipeline, ResizeEvent, ScalePlan};
use crate::options::PipelineOptions;
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::HomePolicy;
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::OutputItem;
use llhj_core::result::TimedResult;
use llhj_core::stats::{LatencyPoint, LatencySummary, NodeCounters};
use llhj_core::tuple::SeqNo;
use llhj_sync::time::Duration;

/// Everything measured during one threaded chain run, fixed or elastic.
#[derive(Debug)]
pub struct RunOutcome<R, S> {
    /// All produced results, in collection order.
    pub results: Vec<TimedResult<R, S>>,
    /// The punctuated output stream (empty unless `punctuate` was set).
    pub output: Vec<OutputItem<TimedResult<R, S>>>,
    /// Work counters of the nodes alive at shutdown, indexed by node id.
    pub counters: Vec<NodeCounters>,
    /// Work counters of nodes retired by shrink operations, in retirement
    /// order (empty for a chain that never shrank).
    pub retired_counters: Vec<NodeCounters>,
    /// Latency statistics (meaningful only for paced runs).
    pub latency: LatencySummary,
    /// Latency time series.
    pub latency_series: Vec<LatencyPoint>,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
    /// Number of punctuations emitted.
    pub punctuation_count: u64,
    /// Number of R/S arrivals actually injected: the schedule's counts,
    /// unless the run was cancelled mid-replay (then the injected prefix).
    pub arrivals_per_stream: (usize, usize),
    /// Number of frames the driver injected into the pipeline ends.
    pub frames_injected: u64,
    /// Number of frame buffers allocated: every frame, whether the driver
    /// injected it or a worker (alive or retired) forwarded it, is
    /// assembled in a fresh buffer, so this is the total number of frames
    /// sent.
    pub batch_allocs: u64,
    /// Number of times a worker (alive or retired) woke up and found
    /// neither of its inputs ready.  Under event-driven scheduling this
    /// stays near zero; a busy-polling loop accumulates one per idle poll
    /// interval.
    pub idle_wakeups: u64,
    /// Every reconfiguration the pipeline went through, in order.
    pub resize_log: Vec<ResizeEvent>,
    /// Final chain width.
    pub nodes: usize,
    /// True if the run was interrupted by [`PipelineOptions::cancel`]
    /// before the whole schedule was replayed.  The results cover exactly
    /// the injected prefix of the schedule (the pipeline is drained before
    /// returning, so nothing in flight is lost).
    pub cancelled: bool,
}

impl<R, S> RunOutcome<R, S> {
    /// Sorted `(r_seq, s_seq)` result keys for comparison with the oracle.
    pub fn result_keys(&self) -> Vec<(SeqNo, SeqNo)> {
        let mut keys: Vec<_> = self.results.iter().map(|t| t.result.key()).collect();
        keys.sort_unstable();
        keys
    }

    /// Observed throughput in tuples per second per stream (wall clock).
    pub fn throughput_per_stream(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.arrivals_per_stream.0 as f64 / self.elapsed.as_secs_f64()
    }

    /// Total predicate evaluations across all workers, retired included.
    pub fn total_comparisons(&self) -> u64 {
        self.counters
            .iter()
            .chain(self.retired_counters.iter())
            .map(|c| c.comparisons)
            .sum()
    }
}

/// Runs a pipeline of the given nodes over a complete driver schedule and
/// waits for all results.
///
/// `nodes` must contain one [`PipelineNode`] per pipeline position, in
/// order (use [`crate::llhj_nodes`] / [`crate::hsj_nodes`] to build them).
/// The chain is never resized, so the nodes need not support migration.
pub fn run_pipeline<R, S, P, H>(
    nodes: Vec<Box<dyn PipelineNode<R, S>>>,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
    options: &PipelineOptions,
) -> RunOutcome<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let mut pipeline = ElasticPipeline::from_nodes(nodes, predicate, policy, options.clone());
    // The driver (this thread) takes the last pin slot; its affinity is
    // restored before returning.
    let pinned = pipeline.pin_driver();
    pipeline.run_schedule(schedule, &ScalePlan::none());
    let outcome = pipeline.finish();
    if pinned {
        crate::exec::unpin_thread();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llhj_nodes;
    use crate::options::Pacing;
    use llhj_core::driver::DriverSchedule;
    use llhj_core::homing::RoundRobin;
    use llhj_core::message::{LeftToRight, NodeOutput, RightToLeft};
    use llhj_core::predicate::FnPredicate;
    use llhj_core::result::ResultTuple;
    use llhj_core::time::{TimeDelta, Timestamp};
    use llhj_core::window::WindowSpec;
    use llhj_sync::thread;
    use llhj_sync::time::Instant;

    #[test]
    #[should_panic(expected = "invalid PipelineOptions")]
    fn run_pipeline_rejects_non_finite_speedup() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        let schedule = DriverSchedule::build(
            vec![(Timestamp::from_millis(1), 1u32)],
            vec![(Timestamp::from_millis(1), 1u32)],
            WindowSpec::time_secs(1),
            WindowSpec::time_secs(1),
        );
        let opts = PipelineOptions {
            pacing: Pacing::RealTime { speedup: f64::NAN },
            ..Default::default()
        };
        let _ = run_pipeline(
            llhj_nodes(1, pred.clone()),
            pred,
            RoundRobin,
            &schedule,
            &opts,
        );
    }

    /// The ROADMAP open item the cancel token closes: a cancel arriving in
    /// the middle of a long pacing gap must interrupt the wait instead of
    /// sleeping the gap out.
    #[test]
    fn cancel_interrupts_a_long_pacing_gap() {
        use crate::channel::CancelToken;
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        // One early pair, then a 30-second silence before the next event:
        // without the deadline-based wait the driver would sleep ~30 s.
        let mk = |v: u32| {
            vec![
                (Timestamp::from_millis(1), v),
                (Timestamp::from_secs(30), v + 1_000),
            ]
        };
        let schedule = DriverSchedule::build(
            mk(7),
            mk(7),
            WindowSpec::time_secs(60),
            WindowSpec::time_secs(60),
        );
        let cancel = CancelToken::new();
        let opts = PipelineOptions {
            batch_size: 1,
            pacing: Pacing::RealTime { speedup: 1.0 },
            cancel: Some(cancel.clone()),
            ..Default::default()
        };
        let canceller = thread::spawn({
            let cancel = cancel.clone();
            move || {
                thread::sleep(Duration::from_millis(100));
                cancel.cancel();
            }
        });
        let started = Instant::now();
        let outcome = run_pipeline(
            llhj_nodes(2, pred.clone()),
            pred,
            RoundRobin,
            &schedule,
            &opts,
        );
        canceller.join().unwrap();
        assert!(outcome.cancelled, "the run must report the interruption");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancel must interrupt the 30 s pacing gap, not sleep it out \
             (took {:?})",
            started.elapsed()
        );
        // The injected prefix (the first pair of each stream) was fully
        // processed before returning: nothing in flight was dropped.
        assert_eq!(
            outcome.result_keys(),
            vec![(llhj_core::tuple::SeqNo(0), llhj_core::tuple::SeqNo(0))]
        );
        // And the outcome reports what was actually injected, not the
        // full schedule (throughput numbers would otherwise be inflated).
        assert_eq!(outcome.arrivals_per_stream, (1, 1));
    }

    type Out = NodeOutput<u32, u32, ResultTuple<u32, u32>>;

    /// Node 0 behind a wrapper that sleeps on every left (entry) frame,
    /// keeping the driver's left entry link busy.
    struct SlowEntry {
        inner: Box<dyn PipelineNode<u32, u32>>,
        per_frame: Duration,
    }

    impl PipelineNode<u32, u32> for SlowEntry {
        fn handle_left(&mut self, msg: LeftToRight<u32>, out: &mut Out) {
            self.inner.handle_left(msg, out);
        }

        fn handle_right(&mut self, msg: RightToLeft<u32>, out: &mut Out) {
            self.inner.handle_right(msg, out);
        }

        fn handle_left_batch(&mut self, msgs: &mut Vec<LeftToRight<u32>>, out: &mut Out) {
            thread::sleep(self.per_frame);
            self.inner.handle_left_batch(msgs, out);
        }

        fn handle_right_batch(&mut self, msgs: &mut Vec<RightToLeft<u32>>, out: &mut Out) {
            self.inner.handle_right_batch(msgs, out);
        }

        fn node_id(&self) -> usize {
            self.inner.node_id()
        }

        fn node_counters(&self) -> NodeCounters {
            self.inner.node_counters()
        }

        fn resident_tuples(&self) -> usize {
            self.inner.resident_tuples()
        }

        fn observe_time(&mut self, now: Timestamp) {
            self.inner.observe_time(now);
        }
    }

    /// The reason the wall-clock timer thread once existed: a stream that
    /// goes silent mid-run must not hold a partial entry frame until the
    /// driver happens to observe the next schedule event.  With no timer
    /// thread, the sliced pacing wait is what releases it.
    #[test]
    fn flush_timer_bounds_latency_across_a_silent_gap() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        let opts = PipelineOptions {
            // A batch far larger than the pre-gap tuple count: a frame
            // that waited to fill would stay partial for the whole gap.
            batch_size: 64,
            flush_interval: Some(TimeDelta::from_millis(10)),
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let assert_prompt = |outcome: &RunOutcome<u32, u32>, pairs: u64| {
            for seq in 0..pairs {
                let key = (llhj_core::tuple::SeqNo(seq), llhj_core::tuple::SeqNo(seq));
                let result = outcome
                    .results
                    .iter()
                    .find(|t| t.result.key() == key)
                    .unwrap_or_else(|| panic!("the pre-gap pair {key:?} must be found"));
                let latency = result.latency();
                assert!(
                    latency < TimeDelta::from_millis(200),
                    "pre-gap result {key:?} waited {latency} — the pacing \
                     slices should have released its frame during the gap"
                );
            }
        };

        // One matching pair right at the start, then ~700 ms of silence
        // before the streams resume.  The driver waits through the gap.
        let mk = |v: u32| {
            vec![
                (Timestamp::from_millis(1), v),
                (Timestamp::from_millis(700), v + 1_000),
                (Timestamp::from_millis(710), v + 2_000),
            ]
        };
        let schedule = DriverSchedule::build(
            mk(7),
            mk(7),
            WindowSpec::time_secs(2),
            WindowSpec::time_secs(2),
        );
        let outcome = run_pipeline(
            llhj_nodes(2, pred.clone()),
            pred.clone(),
            RoundRobin,
            &schedule,
            &opts,
        );
        assert_prompt(&outcome, 1);

        // A frame held back by a busy link right before the gap.  Node 0
        // takes 20 ms per entry frame: the first arrival leaves on the
        // idle link, the second waits in the link, and the third is held
        // back in the driver when the gap begins.  Three entry frames in
        // a row put the honest latency near 60 ms; a frame held until the
        // streams resume would show up at ~700 ms.
        let mk = |v: u32| {
            vec![
                (Timestamp::from_millis(1), v),
                (Timestamp::from_millis(2), v + 1),
                (Timestamp::from_millis(3), v + 2),
                (Timestamp::from_millis(700), v + 1_000),
                (Timestamp::from_millis(710), v + 2_000),
            ]
        };
        let schedule = DriverSchedule::build(
            mk(7),
            mk(7),
            WindowSpec::time_secs(2),
            WindowSpec::time_secs(2),
        );
        let mut nodes = llhj_nodes(2, pred.clone());
        let inner = nodes.remove(0);
        nodes.insert(
            0,
            Box::new(SlowEntry {
                inner,
                per_frame: Duration::from_millis(20),
            }),
        );
        let outcome = run_pipeline(nodes, pred, RoundRobin, &schedule, &opts);
        assert_prompt(&outcome, 3);
    }
}
