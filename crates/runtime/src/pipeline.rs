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
//! The links carry [`MessageBatch`] *frames* rather than individual
//! messages: the driver sends an entry frame as soon as the entry node
//! has taken the previous one and the driver has caught up with the
//! schedule, so arrivals accumulate — up to `batch_size` of them — only
//! while that node (or the driver) is busy, and every worker
//! drains the complete output of one frame into one outgoing frame per
//! direction.  One channel operation (lock, wake-up) is thus amortised
//! over the whole run of messages exactly when the node is behind — the
//! granularity trade-off of the paper's Section 2, paid only under load.
//! A `batch_size` of 1 degenerates to one message per frame and
//! reproduces the eager per-tuple transport exactly, FIFO order and
//! quiescence protocol included.
//!
//! The worker threads, entry batching, pacing wait and collector are the
//! *shared* execution machinery of the crate-private `exec` module — the
//! same code the elastic pipeline deploys.  A fixed pipeline is an
//! elastic pipeline that never receives a scale command, so the two
//! paths cannot drift.  What stays here is only the fixed deployment:
//! channel wiring for a construction-time node count and the schedule
//! replay loop.
//!
//! The workers execute exactly the same node state machines as the
//! discrete-event simulator, so the produced result *set* is identical; the
//! runtime is what you would deploy on real hardware, while the simulator
//! is what the evaluation harness uses to sweep core counts beyond the host
//! machine.

use crate::channel::{spsc_bounded, spsc_unbounded, Receiver, Sender, WaitSet};
use crate::exec::{
    flush_slice, pace_until, spawn_collector, CollectorConfig, CoreMap, EntryState, InFlight,
    StreamClock, Worker, WorkerShared, ENTRY_FRAMES, RING_SLOTS,
};
use crate::options::PipelineOptions;
use llhj_core::driver::{DriverSchedule, Injector};
use llhj_core::homing::HomePolicy;
use llhj_core::message::MessageBatch;
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::{HighWaterMarks, OutputItem};
use llhj_core::result::TimedResult;
use llhj_core::stats::{LatencyPoint, LatencySummary, NodeCounters};
use llhj_core::tuple::SeqNo;
use llhj_sync::sync::atomic::{AtomicBool, Ordering};
use llhj_sync::sync::Arc;
use llhj_sync::time::Duration;

/// Everything measured during one threaded run.
#[derive(Debug)]
pub struct RunOutcome<R, S> {
    /// All produced results, in collection order.
    pub results: Vec<TimedResult<R, S>>,
    /// The punctuated output stream (empty unless `punctuate` was set).
    pub output: Vec<OutputItem<TimedResult<R, S>>>,
    /// Per-node work counters, indexed by node id.
    pub counters: Vec<NodeCounters>,
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
    /// injected it or a worker forwarded it, is assembled in a fresh
    /// buffer, so this is the total number of frames sent.
    pub batch_allocs: u64,
    /// Number of times a worker woke up (or polled) and found neither of
    /// its inputs ready.  Under event-driven scheduling this stays near
    /// zero; a busy-polling loop accumulates one per idle poll interval.
    pub idle_wakeups: u64,
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

    /// Total predicate evaluations across all workers.
    pub fn total_comparisons(&self) -> u64 {
        self.counters.iter().map(|c| c.comparisons).sum()
    }
}

/// Runs a pipeline of the given nodes over a complete driver schedule and
/// waits for all results.
///
/// `nodes` must contain one [`PipelineNode`] per pipeline position, in
/// order (use [`crate::llhj_nodes`] / [`crate::hsj_nodes`] to build them).
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
    P: JoinPredicate<R, S> + Send,
    H: HomePolicy,
{
    let n = nodes.len();
    assert!(n > 0, "pipeline needs at least one node");
    options
        .validate()
        .unwrap_or_else(|err| panic!("invalid PipelineOptions: {err}"));
    // The run's one stream clock: the driver paces against its
    // deadlines, the workers stamp detections with its time.
    let clock = Arc::new(StreamClock::new(options.pacing));

    let injector = Injector::new(predicate, policy, n);
    let hwm = HighWaterMarks::new();
    let stop = Arc::new(AtomicBool::new(false));
    // Bumped by the driver after `stop` is set so every parked thread
    // (workers via their own wait sets, the collector via this one)
    // re-checks the flag immediately instead of timing out.
    let stop_signal = WaitSet::new();
    let in_flight = Arc::new(InFlight::new());

    // Core placement: workers take slots 0..n-1, the collector slot n,
    // the driver slot n+1.  `None` (pinning off, too few cores, non-Linux,
    // model build) leaves every thread on the scheduler's default policy.
    let core_map = CoreMap::new(options.pin_cores, n + 2, options.pin_core_offset);

    // Channel wiring: ltr[k] is node k's left input, rtl[k] its right
    // input; every link carries MessageBatch frames over a lock-free SPSC
    // ring (every data edge here is SPSC by construction).
    //
    // The two rings entering the pipeline from the driver are bounded so
    // the driver experiences backpressure (it can never run ahead of the
    // pipeline by more than `ENTRY_FRAMES` frames).  The links *between*
    // workers are unbounded: with bounded links a pair of neighbours
    // could block on sending to each other simultaneously (R traffic
    // going right, acknowledgements and S traffic going left) and
    // deadlock; admission control at the driver keeps the actual
    // occupancy of the inner links small.
    //
    // Ring consumers bind their wait set at construction (the lock-free
    // notify path cannot look one up later), which is why the per-worker
    // wait sets are created before any channel.
    type FrameTx<R, S> = Sender<MessageBatch<R, S>>;
    type FrameRx<R, S> = Receiver<MessageBatch<R, S>>;
    let waitsets: Vec<WaitSet> = (0..n).map(|_| WaitSet::new()).collect();
    let mut ltr_tx: Vec<Option<FrameTx<R, S>>> = Vec::with_capacity(n);
    let mut ltr_rx: Vec<Option<FrameRx<R, S>>> = Vec::with_capacity(n);
    let mut rtl_tx: Vec<Option<FrameTx<R, S>>> = Vec::with_capacity(n);
    let mut rtl_rx: Vec<Option<FrameRx<R, S>>> = Vec::with_capacity(n);
    for (k, waitset) in waitsets.iter().enumerate() {
        let (tx, rx) = if k == 0 {
            spsc_bounded(ENTRY_FRAMES, Some(waitset))
        } else {
            spsc_unbounded(RING_SLOTS, Some(waitset))
        };
        ltr_tx.push(Some(tx));
        ltr_rx.push(Some(rx));
        let (tx, rx) = if k == n - 1 {
            spsc_bounded(ENTRY_FRAMES, Some(waitset))
        } else {
            spsc_unbounded(RING_SLOTS, Some(waitset))
        };
        rtl_tx.push(Some(tx));
        rtl_rx.push(Some(rx));
    }
    let driver_left_tx = ltr_tx[0].take().expect("entry channel");
    let driver_right_tx = rtl_tx[n - 1].take().expect("entry channel");

    // Per-worker result queues (Figure 15).  SPSC (one worker, the
    // collector), so they are rings too; the collector polls on its
    // vacuum interval rather than parking per result, so no wait set is
    // bound (ring notifies then hit a set nobody waits on — a cheap
    // no-op).
    let (result_tx, result_rx): (Vec<Sender<TimedResult<R, S>>>, Vec<_>) =
        (0..n).map(|_| spsc_unbounded(RING_SLOTS, None)).unzip();

    // ---------------- workers (shared exec machinery) ----------------
    let mut worker_handles = Vec::with_capacity(n);
    for ((k, node), waitset) in nodes.into_iter().enumerate().zip(waitsets) {
        let left_rx = ltr_rx[k].take().expect("left input");
        let right_rx = rtl_rx[k].take().expect("right input");
        let to_right = if k + 1 < n {
            ltr_tx[k + 1].take()
        } else {
            None
        };
        let to_left = if k > 0 { rtl_tx[k - 1].take() } else { None };
        let shared = WorkerShared {
            hwm: Arc::clone(&hwm),
            clock: Arc::clone(&clock),
            stop: Arc::clone(&stop),
            in_flight: Arc::clone(&in_flight),
            results: result_tx[k].clone(),
            // No metrics bus on the fixed path: nothing samples it, and
            // the instrumentation would tax every frame for nothing.
            busy_ns: None,
        };
        let pin_core = core_map.as_ref().map(|m| m.core(k));
        worker_handles.push(Worker::spawn(
            k, n, node, left_rx, right_rx, to_left, to_right, shared, false, waitset, pin_core,
        ));
    }
    drop(result_tx);

    // ---------------- collector (shared exec machinery) ----------------
    let collector_handle = spawn_collector(
        result_rx,
        Arc::clone(&stop),
        stop_signal.clone(),
        Arc::clone(&hwm),
        None,
        CollectorConfig {
            punctuate: options.punctuate,
            interval: options.collect_interval,
            latency_bucket: options.latency_bucket,
            pin_core: core_map.as_ref().map(|m| m.core(n)),
        },
    );

    // The driver (this thread) takes the last pin slot; its affinity is
    // restored before returning.
    if let Some(map) = &core_map {
        map.pin_current(n + 1);
    }

    // ---------------- driver (this thread) ----------------
    // The driver owns the entry-frame assembly state: every event and
    // every park of the pacing wait applies the shared flush policy (see
    // `exec::FlushPolicy`), so no timer thread and no lock is needed.
    let mut entry = EntryState::new(driver_left_tx, driver_right_tx, Arc::clone(&hwm), options);
    entry.set_stream_lengths(schedule.r_count(), schedule.s_count());
    let slice = flush_slice(options);
    let mut idle_wakeups = 0u64;
    let mut cancelled = false;
    let cancel = options.cancel.clone().unwrap_or_default();
    for event in schedule.events() {
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        if pace_until(clock.deadline(event.at), slice, &cancel, || {
            entry.poll(clock.now(), &in_flight)
        }) {
            cancelled = true;
            break;
        }
        clock.note_injection(event.at);
        entry.inject(event, &injector, &in_flight);
    }
    // Tail flush: whatever is still pending (trailing expiries).
    entry.flush_both(&in_flight);
    let mut batch_allocs = entry.frames_injected;

    // Wait for quiescence: no frame anywhere in the pipeline.
    in_flight.wait_for_quiescence();
    stop.store(true, Ordering::SeqCst);
    // Wake every parked thread so it observes the stop flag now rather
    // than at its next safety-net timeout.
    for handle in &worker_handles {
        handle.waitset.notify();
    }
    stop_signal.notify();

    let mut counters = vec![NodeCounters::default(); n];
    for (k, handle) in worker_handles.into_iter().enumerate() {
        let exit = handle.handle.join().expect("worker thread panicked");
        counters[k] = exit.counters;
        idle_wakeups += exit.idle_wakeups;
        batch_allocs += exit.batch_allocs;
    }
    let collected = collector_handle.join().expect("collector thread panicked");
    if core_map.is_some() {
        crate::exec::unpin_thread();
    }

    RunOutcome {
        results: collected.results,
        output: collected.output,
        counters,
        latency: collected.latency,
        latency_series: collected.series.finish(),
        elapsed: clock.elapsed(),
        punctuation_count: collected.punctuation_count,
        arrivals_per_stream: entry.arrivals(),
        frames_injected: entry.frames_injected,
        batch_allocs,
        idle_wakeups,
        cancelled,
    }
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
