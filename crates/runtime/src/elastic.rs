//! The chain deployment: one [`ElasticPipeline`] per chain, fixed or
//! elastic.
//!
//! An [`ElasticPipeline`] owns the worker threads and channel wiring of
//! one chain and can insert or retire join nodes **mid-run** without
//! dropping or duplicating a single result.  Every chain deployment is
//! one — [`crate::run_pipeline`] (never steered), a [`ScalePlan`], the
//! [`crate::autoscale`] controller, each chain of a [`crate::mesh`] — and
//! all of them replay through its one driver loop, which takes the plan,
//! the controller and the checkpoint cadence as arguments.  The control
//! path is the [`ScalePipeline`] trait: `grow(n)` / `shrink(n)` /
//! `scale_to(n)`.
//!
//! The data plane (worker loop, entry batching, collector) is the
//! crate-private `exec` module; this module adds the control plane and
//! the reconfiguration protocol below.  Only a chain built from a
//! [`NodeFactory`] can be steered, and only such a chain pays for
//! busy-time instrumentation (a clock-read pair per frame).
//!
//! ## The reconfiguration protocol
//!
//! Every resize runs the same three-phase protocol:
//!
//! 1. **Fence.**  The driver flushes its partial entry frames and stops
//!    injecting, then waits for the global in-flight frame counter to reach
//!    zero.  Because every emitted frame (forwards, acknowledgements,
//!    expedition ends, expiries) is counted, a zero counter means the chain
//!    is *quiescent*: no message anywhere.  For low-latency handshake join
//!    quiescence implies settled state — all expedition flags cleared, all
//!    `IWS` buffers empty — which the export path asserts.
//! 2. **Handoff** (shrink only).  Retiring nodes hand their window
//!    segments to the surviving side over the *existing* neighbour
//!    channels, as [`llhj_core::message::Handoff`] frames: the rightmost
//!    retiree exports and sends left; each inner retiree absorbs the
//!    incoming segment, acknowledges it, merges it with its own state and
//!    forwards the union left; the surviving boundary node installs the
//!    final segment and acknowledges.  A retiree only exits after its ack
//!    arrives, so a segment always rests on exactly one node — the
//!    invariant LLHJ's matching rules need (a stored tuple is matched by
//!    every traversing arrival and found by its traversing expiry message
//!    wherever it rests).  Growth needs no handoff: new nodes start empty
//!    and fill as the windows slide.
//! 3. **Rewire.**  Worker threads receive renumbering and replacement
//!    channel endpoints through per-worker command mailboxes (woken
//!    through the same `WaitSet`s that deliver frames); new workers are
//!    spawned, retired ones joined, and the driver's right entry channel
//!    moves to the new rightmost node.  Once every worker confirms, the
//!    driver resumes the schedule with an injector rebuilt for the new
//!    node count.
//!
//! Old tuples keep resting where the reconfiguration left them; the
//! windows rebalance naturally as old tuples expire and new arrivals are
//! homed across the new chain.  Punctuation safety is untouched: high-water
//! marks only advance, no result is produced while fenced, and a result
//! joining an old stored tuple carries the *later* timestamp of the pair.
//!
//! ## When to scale vs. when to batch
//!
//! `batch_size` buys per-message efficiency on a fixed chain and acts
//! within microseconds; scaling changes aggregate scan capacity (windows
//! per node) and costs one fence (typically well under a millisecond plus
//! the drain time of in-flight frames).  Chase sustained rate changes with
//! the chain length, absorb short bursts with batching — the
//! `bench_elastic` binary measures exactly this trade-off, and the
//! [`crate::autoscale`] controller automates the chain-length half.

use crate::autoscale::{AutoscaleOptions, Controller};
use crate::channel::{spsc_bounded, spsc_unbounded, unbounded, Receiver, Sender, WaitSet};
use crate::exec::{
    flush_slice, spawn_collector, CensusReport, CoreMap, EntryState, InFlight, PunctualTimers,
    ScaleConfirm, StreamClock, Worker, WorkerCommand, WorkerHandle, WorkerShared, ENTRY_FRAMES,
    MIN_PACING_SLICE, RING_SLOTS,
};
use crate::metrics::MetricsBus;
use crate::options::{Pacing, PipelineOptions};
use crate::pipeline::RunOutcome;
use llhj_core::checkpoint::{
    load_latest_checkpoint, ChainCheckpoint, ChainCheckpointer, CheckpointError, CheckpointPayload,
    CheckpointStore, ReplayLog,
};
use llhj_core::driver::{DriverEvent, DriverSchedule, Injector, StreamEvent};
use llhj_core::homing::HomePolicy;
use llhj_core::message::MessageBatch;
use llhj_core::metrics::AutoscaleReport;
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::HighWaterMarks;
use llhj_core::rebalance::{EdgeTransfer, MigrationConstraint, RedistributionPlan};
use llhj_core::result::TimedResult;
use llhj_core::stats::NodeCounters;
use llhj_core::time::Timestamp;
use llhj_sync::sync::atomic::{AtomicBool, Ordering};
use llhj_sync::sync::Arc;
use llhj_sync::thread::JoinHandle;
use llhj_sync::time::{Duration, Instant};

/// How long the control plane waits for a single protocol step (a worker
/// confirmation or a retiring worker's exit) before declaring the fence
/// protocol wedged.  Generous: steps complete in microseconds.
const PROTOCOL_STEP_TIMEOUT: Duration = Duration::from_secs(30);

type Frame<R, S> = MessageBatch<R, S>;

/// A freshly created link: the sender half plus the (not yet handed out)
/// receiver half.
type NewLink<R, S> = (Sender<Frame<R, S>>, Option<Receiver<Frame<R, S>>>);

/// Builds one pipeline node for position `id` of `nodes`.  The elastic
/// pipeline re-invokes the factory whenever growth adds nodes.
pub type NodeFactory<R, S> = Arc<dyn Fn(usize, usize) -> Box<dyn PipelineNode<R, S>> + Send + Sync>;

/// A [`NodeFactory`] producing plain low-latency handshake join nodes.
pub fn llhj_factory<R, S, P>(predicate: P) -> NodeFactory<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
{
    Arc::new(move |id, nodes| {
        Box::new(llhj_core::node_llhj::LlhjNode::new(
            id,
            nodes,
            predicate.clone(),
        ))
    })
}

/// A [`NodeFactory`] producing hash-indexed low-latency handshake join
/// nodes (requires a predicate exposing equi-keys).
pub fn llhj_indexed_factory<R, S, P>(predicate: P) -> NodeFactory<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
{
    Arc::new(move |id, nodes| {
        Box::new(llhj_core::node_llhj::LlhjNode::with_index(
            id,
            nodes,
            predicate.clone(),
        ))
    })
}

/// A [`NodeFactory`] producing original handshake join nodes with
/// age-based flow — the exact configuration (with `batch_size = 1`) under
/// which HSJ reproduces the oracle result set.  Elastic since the capacity
/// renegotiation refactor: resizes redistribute under the stream-monotone
/// constraint and migrated segments are installed with matching.
pub fn hsj_age_factory<R, S, P>(
    window_r: llhj_core::time::TimeDelta,
    window_s: llhj_core::time::TimeDelta,
    predicate: P,
) -> NodeFactory<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
{
    Arc::new(move |id, nodes| {
        Box::new(llhj_core::node_hsj::HsjNode::with_age_flow(
            id,
            nodes,
            window_r,
            window_s,
            predicate.clone(),
        ))
    })
}

/// The elastic control path: resize a live pipeline.
///
/// Every method fences the pipeline (drains all in-flight frames), runs
/// the state-handoff protocol if nodes retire, rewires the chain and
/// resumes.  Calls are synchronous: when they return, the pipeline is
/// processing again at the new width.
pub trait ScalePipeline {
    /// Inserts `delta` nodes: at the right end for free node types, split
    /// across both ends for stream-monotone ones (HSJ), so each stream's
    /// migration constraint can reach fresh nodes.
    fn grow(&mut self, delta: usize);
    /// Retires the `delta` rightmost nodes, migrating their window state
    /// into the surviving chain.
    fn shrink(&mut self, delta: usize);
    /// Resizes to exactly `target` nodes (≥ 1).
    fn scale_to(&mut self, target: usize);
}

/// One entry of a [`ScalePlan`]: after `after_events` schedule events have
/// been injected, resize the pipeline to `target_nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleStep {
    /// Number of schedule events (arrivals *and* expiries) to inject
    /// before this resize fires.
    pub after_events: usize,
    /// The pipeline width to resize to.
    pub target_nodes: usize,
}

/// A schedule-driven resize plan for [`run_elastic_pipeline`].
#[derive(Debug, Clone, Default)]
pub struct ScalePlan {
    steps: Vec<ScaleStep>,
}

impl ScalePlan {
    /// A plan with no resizes.
    pub fn none() -> Self {
        ScalePlan::default()
    }

    /// Builds a plan from steps; they are sorted by event index.
    pub fn new(mut steps: Vec<ScaleStep>) -> Self {
        steps.sort_by_key(|s| s.after_events);
        ScalePlan { steps }
    }

    /// The ordered steps.
    pub fn steps(&self) -> &[ScaleStep] {
        &self.steps
    }
}

/// One completed reconfiguration, for the outcome's resize log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeEvent {
    /// Stream time at which the fence completed.
    pub at: Timestamp,
    /// Chain width before the resize.
    pub from_nodes: usize,
    /// Chain width after the resize.
    pub to_nodes: usize,
    /// Window tuples the retirement handoff moved into the surviving
    /// boundary (0 for growth).
    pub migrated_tuples: usize,
    /// Window-tuple hops the chain-wide redistribution performed after
    /// the width change (a tuple crossing two edges counts twice).
    pub rebalanced_tuples: usize,
    /// Per-node stored-window census `(|WR_k|, |WS_k|)` immediately after
    /// the redistribution, indexed by node id — what the balance
    /// assertions of the conformance suite read.
    pub residence_after: Vec<(usize, usize)>,
    /// Wall-clock duration of the whole reconfiguration (fence, handoff,
    /// rewire, redistribution).
    pub fence_wall_micros: u64,
}

/// A live, resizable handshake-join pipeline.
///
/// The pipeline owns its workers and wiring behind a handle, so the chain
/// can be resized between schedule events via [`ScalePipeline`].  Use
/// [`run_elastic_pipeline`] for the common replay-with-plan case,
/// [`crate::autoscale::run_autoscaled_pipeline`] for the closed loop, or
/// drive [`ElasticPipeline::run_schedule`] / [`ScalePipeline::scale_to`] /
/// [`ElasticPipeline::finish`] directly.
pub struct ElasticPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    predicate: P,
    policy: H,
    /// Builds the nodes a grow adds; `None` for a chain deployed from
    /// given nodes ([`crate::run_pipeline`]), which is never steered.
    factory: Option<NodeFactory<R, S>>,
    /// The node type's migration semantics, read from the first node: the
    /// redistribution planner clamps flows the node type forbids.
    constraint: MigrationConstraint,
    /// Whether every node supports state migration — required by a
    /// resize, a checkpoint and a reshard, not by a chain that only runs.
    migratable: bool,
    options: PipelineOptions,
    workers: Vec<WorkerHandle<R, S>>,
    entry: EntryState<R, S>,
    in_flight: Arc<InFlight>,
    clock: Arc<StreamClock>,
    stop: Arc<AtomicBool>,
    stop_signal: WaitSet,
    hwm: Arc<HighWaterMarks>,
    metrics: Arc<MetricsBus>,
    /// Hands each new worker's result ring to the collector.
    collector_rings: Sender<Receiver<TimedResult<R, S>>>,
    collector: Option<JoinHandle<crate::exec::CollectorOutcome<R, S>>>,
    injector: Injector<R, S, P, H>,
    resize_log: Vec<ResizeEvent>,
    retired_counters: Vec<NodeCounters>,
    retired_idle_wakeups: u64,
    retired_batch_allocs: u64,
    migration_stall: Option<Duration>,
    cancelled: bool,
    /// Core placement for worker/collector threads (and the driver of a
    /// chain that is never steered); `None` when pinning is off or
    /// unavailable.  A steerable chain's driver stays unpinned: it is the
    /// caller's thread, and resizes change its working set anyway.
    core_map: Option<CoreMap>,
    /// Next pin slot to hand a newly spawned worker (grown workers keep
    /// taking fresh slots; the map wraps modulo the core count).
    next_pin_slot: usize,
}

impl<R, S, P, H> ElasticPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// Deploys an elastic pipeline of `initial_nodes` nodes built by
    /// `factory`.  Resizes, checkpoints and reshards require every node
    /// the factory produces to support state migration
    /// ([`PipelineNode::supports_migration`]).
    pub fn new(
        initial_nodes: usize,
        factory: NodeFactory<R, S>,
        predicate: P,
        policy: H,
        options: PipelineOptions,
    ) -> Self {
        let clock = Arc::new(StreamClock::new(options.pacing));
        Self::with_clock(initial_nodes, factory, predicate, policy, options, clock)
    }

    /// [`Self::new`] on a given stream clock: the shard mesh deploys every
    /// chain, split children included, on its one clock, so all of them
    /// pace and stamp detections on the same stream timeline.
    pub(crate) fn with_clock(
        initial_nodes: usize,
        factory: NodeFactory<R, S>,
        predicate: P,
        policy: H,
        options: PipelineOptions,
        clock: Arc<StreamClock>,
    ) -> Self {
        let nodes = (0..initial_nodes)
            .map(|k| factory(k, initial_nodes))
            .collect();
        Self::deploy(nodes, Some(factory), predicate, policy, options, clock)
    }

    /// Deploys a chain of the given nodes, one per position, that is never
    /// steered: the deployment behind [`crate::run_pipeline`].  The nodes
    /// need not support migration, and no busy time is instrumented.
    pub(crate) fn from_nodes(
        nodes: Vec<Box<dyn PipelineNode<R, S>>>,
        predicate: P,
        policy: H,
        options: PipelineOptions,
    ) -> Self {
        let clock = Arc::new(StreamClock::new(options.pacing));
        Self::deploy(nodes, None, predicate, policy, options, clock)
    }

    fn deploy(
        nodes: Vec<Box<dyn PipelineNode<R, S>>>,
        factory: Option<NodeFactory<R, S>>,
        predicate: P,
        policy: H,
        options: PipelineOptions,
        clock: Arc<StreamClock>,
    ) -> Self {
        let n = nodes.len();
        assert!(n > 0, "pipeline needs at least one node");
        options
            .validate()
            .unwrap_or_else(|err| panic!("invalid PipelineOptions: {err}"));

        let hwm = HighWaterMarks::new();
        let (collector_rings, joining_rings) = spsc_unbounded(RING_SLOTS, None);

        // Channel wiring: ltr[k] is node k's left input, rtl[k] its right
        // input; every link carries MessageBatch frames over a lock-free
        // SPSC ring.  The two rings entering the chain from the driver are
        // bounded, so the driver can never run ahead of the chain by more
        // than `ENTRY_FRAMES` frames.  The links *between* workers are
        // unbounded: two neighbours may send to each other at the same
        // time (R traffic going right, S traffic going left), and bounded
        // links could deadlock them; admission control at the driver keeps
        // the inner links short.  The wait sets are created first — ring
        // channels bind their consumer's wait set at construction.
        let waitsets: Vec<WaitSet> = (0..n).map(|_| WaitSet::new()).collect();
        let link = |k: usize, entry: bool| {
            if entry {
                spsc_bounded(ENTRY_FRAMES, Some(&waitsets[k]))
            } else {
                spsc_unbounded(RING_SLOTS, Some(&waitsets[k]))
            }
        };
        let (ltr_tx, ltr_rx): (Vec<Sender<Frame<R, S>>>, Vec<_>) =
            (0..n).map(|k| link(k, k == 0)).unzip();
        let (mut rtl_tx, rtl_rx): (Vec<Sender<Frame<R, S>>>, Vec<_>) =
            (0..n).map(|k| link(k, k + 1 == n)).unzip();
        let right_tx = rtl_tx.pop().expect("entry channel");
        let mut ltr_tx = ltr_tx.into_iter();
        let left_tx = ltr_tx.next().expect("entry channel");

        // Workers take pin slots 0..n-1 and the collector slot n; the
        // driver of a chain that is never steered takes slot n + 1.
        let threads = n + 1 + usize::from(factory.is_none());
        let core_map = CoreMap::new(options.pin_cores, threads, options.pin_core_offset);

        let constraint = nodes[0].migration_constraint();
        let migratable = nodes.iter().all(|node| node.supports_migration());
        let mut pipeline = ElasticPipeline {
            predicate: predicate.clone(),
            policy: policy.clone(),
            factory,
            constraint,
            migratable,
            workers: Vec::with_capacity(n),
            entry: EntryState::new(left_tx, right_tx, Arc::clone(&hwm), &options),
            in_flight: Arc::new(InFlight::new()),
            clock,
            stop: Arc::new(AtomicBool::new(false)),
            stop_signal: WaitSet::new(),
            hwm,
            metrics: Arc::new(MetricsBus::new()),
            collector_rings,
            collector: None,
            injector: Injector::new(predicate, policy, n),
            resize_log: Vec::new(),
            retired_counters: Vec::new(),
            retired_idle_wakeups: 0,
            retired_batch_allocs: 0,
            migration_stall: None,
            cancelled: false,
            core_map,
            next_pin_slot: 0,
            options,
        };

        // Node k sends right over ltr[k + 1] and left over rtl[k - 1].
        let to_left = std::iter::once(None).chain(rtl_tx.into_iter().map(Some));
        let to_right = ltr_tx.map(Some).chain(std::iter::once(None));
        let wiring = nodes
            .into_iter()
            .zip(waitsets)
            .zip(ltr_rx.into_iter().zip(rtl_rx));
        for (k, (((node, waitset), (left_rx, right_rx)), (to_left, to_right))) in
            wiring.zip(to_left.zip(to_right)).enumerate()
        {
            let handle =
                pipeline.spawn_worker(k, n, node, left_rx, right_rx, to_left, to_right, waitset);
            pipeline.workers.push(handle);
        }
        let pin_core = pipeline.take_pin_slot();
        let collector = spawn_collector(
            joining_rings,
            Arc::clone(&pipeline.stop),
            pipeline.stop_signal.clone(),
            Arc::clone(&pipeline.hwm),
            Arc::clone(&pipeline.metrics),
            &pipeline.options,
            pin_core,
        );
        pipeline.collector = Some(collector);
        pipeline.metrics.set_nodes(n);
        pipeline.register_occupancy_probe();
        pipeline
    }

    /// Current chain width.
    pub fn nodes(&self) -> usize {
        self.workers.len()
    }

    /// The resize log so far.
    pub fn resize_log(&self) -> &[ResizeEvent] {
        &self.resize_log
    }

    /// The pipeline's metrics bus (the auto-scaler samples it; tests and
    /// dashboards may too).
    pub fn metrics_bus(&self) -> Arc<MetricsBus> {
        Arc::clone(&self.metrics)
    }

    /// Test instrumentation: stalls every segment absorption by `stall`,
    /// widening the handoff window so teardown tests can deterministically
    /// overlap a shutdown with an in-flight migration.
    pub fn set_migration_stall(&mut self, stall: Duration) {
        self.migration_stall = Some(stall);
    }

    /// (Re-)points the metrics bus's occupancy probe at the current entry
    /// channels (the right entry moves whenever the rightmost node
    /// changes).
    fn register_occupancy_probe(&self) {
        let left = self.entry.left.sender().clone();
        let right = self.entry.right.sender().clone();
        self.metrics
            .set_occupancy_probe(move || (left.len(), right.len()));
    }

    /// The next core slot for a newly spawned thread, `None` when pinning
    /// is off.  Slots are never reused (a retired worker's core simply
    /// goes idle); the map wraps modulo the core count, so a long
    /// grow/shrink history degrades to core sharing, not failure.
    fn take_pin_slot(&mut self) -> Option<usize> {
        let map = self.core_map.as_ref()?;
        let core = map.core(self.next_pin_slot);
        self.next_pin_slot += 1;
        Some(core)
    }

    /// Spawns one worker running `node` on `waitset`.  The wait set must
    /// be the one every ring channel handed to this worker was
    /// constructed with — the channels bind it at construction, and
    /// `Worker::spawn`'s `set_waiter` calls assert the binding.  The
    /// worker's result ring joins the collector before the worker starts.
    #[allow(clippy::too_many_arguments)]
    fn spawn_worker(
        &mut self,
        id: usize,
        nodes: usize,
        node: Box<dyn PipelineNode<R, S>>,
        left_rx: Receiver<Frame<R, S>>,
        right_rx: Receiver<Frame<R, S>>,
        to_left: Option<Sender<Frame<R, S>>>,
        to_right: Option<Sender<Frame<R, S>>>,
        waitset: WaitSet,
    ) -> WorkerHandle<R, S> {
        // SPSC (one worker, the collector), so a ring; the collector polls
        // on its vacuum interval rather than parking per result, so no
        // wait set is bound.
        let (results, collected) = spsc_unbounded(RING_SLOTS, None);
        assert!(
            self.collector_rings.send(collected).is_ok(),
            "the collector outlives every worker"
        );
        let shared = WorkerShared {
            hwm: Arc::clone(&self.hwm),
            clock: Arc::clone(&self.clock),
            stop: Arc::clone(&self.stop),
            in_flight: Arc::clone(&self.in_flight),
            results,
            busy_ns: self
                .factory
                .is_some()
                .then(|| self.metrics.register_node(id)),
        };
        let pin_core = self.take_pin_slot();
        Worker::spawn(
            id, nodes, node, left_rx, right_rx, to_left, to_right, shared, waitset, pin_core,
        )
    }

    /// Fences the chain for an operation that moves window state (a
    /// resize, a checkpoint, a reshard), which needs migration-capable
    /// nodes.
    pub(crate) fn fence_for_migration(&mut self) {
        assert!(
            self.migratable,
            "resizes, checkpoints and reshards require nodes that support \
             state migration"
        );
        self.fence();
    }

    // -- driver-side entry batching -------------------------------------

    /// Injects one driver event under the shared flush policy.  A mesh
    /// chain sees only the events its router routes to it, so it knows no
    /// stream lengths: its last arrival leaves by the rest of the flush
    /// policy, a fence, or the end of the run.
    pub(crate) fn inject(&mut self, event: DriverEvent<R, S>) {
        self.clock.note_injection(event.at);
        let arrival = event.event.is_arrival();
        self.entry.inject(event, &self.injector, &self.in_flight);
        if arrival {
            let (r, s) = self.entry.arrivals();
            self.metrics.publish_arrivals((r + s) as u64);
        }
    }

    /// Applies the flush policy to the pending entry frames at the
    /// current stream time while the driver is idle: a frame leaves once
    /// its entry link is empty, an aged one once it reaches
    /// `flush_interval`.
    pub(crate) fn poll_entry(&mut self) {
        let now = self.clock.now();
        self.entry.poll(now, &self.in_flight);
    }

    /// Applies a newly published desired width, if any.
    fn actuate(&mut self, controller: Option<&Controller>) {
        if let Some(width) = controller.and_then(|c| c.desired_if_changed(self.nodes())) {
            self.scale_to(width);
        }
    }

    /// Pacing wait before injecting an event scheduled at `at`, until the
    /// stream clock's deadline for it (the replay's `timers` run the
    /// drivers' shared wait, `exec::PunctualTimers::pace_until`; unpaced,
    /// the deadline has always passed).  Returns `true` if the wait was
    /// cancelled.
    ///
    /// The flush policy runs before the first park, so a frame leaves on
    /// an idle link as soon as the driver has caught up.  The wait is
    /// sliced at `slice` of wall time (half the `flush_interval`, capped
    /// at the controller's sampling tick), and every slice re-applies the
    /// policy — a frame held back by a busy entry link cannot outwait the
    /// interval, even when the stream goes silent.
    ///
    /// With a `controller` attached every slice also *actuates* the
    /// auto-scaler: a newly published desired width is applied through
    /// the usual fenced protocol.  This is what makes the closed loop
    /// converge on a *silent* stream — a desired resize published during
    /// an arrival gap lands on the next tick instead of waiting for
    /// traffic to resume (fencing an idle chain is nearly free: there is
    /// nothing in flight to drain).
    fn pace_until(
        &mut self,
        timers: &mut PunctualTimers,
        at: Timestamp,
        slice: Option<Duration>,
        cancel: &crate::channel::CancelToken,
        controller: Option<&Controller>,
    ) -> bool {
        let deadline = self.clock.deadline(at);
        self.actuate(controller);
        timers.pace_until(deadline, slice, cancel, || {
            self.poll_entry();
            self.actuate(controller);
        })
    }

    /// The one driver loop of a chain: replays `events`, which hold
    /// `arrivals` R and S arrivals, steered by the plan's resizes at their
    /// event indexes and by `controller` (if any) in the pacing waits, and
    /// calls `after_inject` with the consumed-event count after every
    /// injection (the checkpoint cadence).  Plan steps at or past the end
    /// still run.  Returns `true` if the replay was cancelled.
    fn replay(
        &mut self,
        events: impl IntoIterator<Item = DriverEvent<R, S>>,
        arrivals: (usize, usize),
        plan: &ScalePlan,
        controller: Option<&Controller>,
        mut after_inject: impl FnMut(&mut Self, usize),
    ) -> bool {
        let mut timers = PunctualTimers::new(self.options.pacing);
        let cancel = self.options.cancel.clone().unwrap_or_default();
        // The frame holding a stream's last arrival leaves at once.
        self.entry.set_stream_lengths(arrivals.0, arrivals.1);
        let tick = controller.map(|c| c.tick().max(MIN_PACING_SLICE));
        let slice = flush_slice(&self.options).into_iter().chain(tick).min();
        let mut steps = plan.steps().iter().peekable();
        for (idx, event) in events.into_iter().enumerate() {
            while let Some(step) = steps.next_if(|s| s.after_events <= idx) {
                self.scale_to(step.target_nodes);
            }
            if cancel.is_cancelled()
                || self.pace_until(&mut timers, event.at, slice, &cancel, controller)
            {
                self.cancelled = true;
                break;
            }
            self.inject(event);
            after_inject(self, idx + 1);
        }
        if !self.cancelled {
            for step in steps {
                self.scale_to(step.target_nodes);
            }
        }
        self.entry.flush_both(&self.in_flight);
        self.cancelled
    }

    /// Replays a driver schedule against the live pipeline, firing the
    /// plan's resizes at their event indexes.  Returns `true` if the
    /// replay was cancelled.  Call once per pipeline; then [`Self::finish`].
    pub fn run_schedule(&mut self, schedule: &DriverSchedule<R, S>, plan: &ScalePlan) -> bool {
        self.replay(
            schedule.events(),
            (schedule.r_count(), schedule.s_count()),
            plan,
            None,
            |_, _| {},
        )
    }

    /// Replays a driver schedule with the **closed loop** engaged: an
    /// [`AutoscaleOptions`] controller thread samples the metrics bus and
    /// publishes a desired width; the driver applies it through the same
    /// fence+handoff protocol a [`ScalePlan`] uses — before every event,
    /// *and* on every controller tick inside an arrival gap (the pacing
    /// wait actuates), so the width converges while the stream is idle
    /// too.  Returns the controller's report (every sample and resize
    /// decision).
    ///
    /// Requires real-time pacing: the loop chases an observed arrival
    /// rate, which an unpaced replay (stream time decoupled from wall
    /// time) does not have.
    pub fn run_schedule_autoscaled(
        &mut self,
        schedule: &DriverSchedule<R, S>,
        autoscale: &AutoscaleOptions,
    ) -> AutoscaleReport {
        assert!(
            matches!(self.options.pacing, Pacing::RealTime { .. }),
            "autoscaling requires Pacing::RealTime (the controller chases \
             a wall-clock arrival rate)"
        );
        let controller = Controller::spawn(
            autoscale,
            &self.options,
            Arc::clone(&self.metrics),
            Arc::clone(&self.clock),
        );
        self.replay(
            schedule.events(),
            (schedule.r_count(), schedule.s_count()),
            &ScalePlan::none(),
            Some(&controller),
            |_, _| {},
        );
        controller.finish()
    }

    /// Pins the calling thread — the driver of a chain that is never
    /// steered — to the pin slot after the workers' and the collector's.
    /// Returns whether it did (the caller restores the affinity).
    pub(crate) fn pin_driver(&mut self) -> bool {
        let core = self.take_pin_slot();
        if let Some(core) = core {
            crate::exec::pin_thread(core);
        }
        core.is_some()
    }

    // -- the reconfiguration protocol ------------------------------------

    /// Fences the pipeline: flushes partial entry frames, then waits until
    /// no frame is in flight anywhere in the chain.
    fn fence(&mut self) {
        self.entry.flush_both(&self.in_flight);
        self.in_flight.wait_for_quiescence();
    }

    fn confirm(&self, done_rx: &Receiver<ScaleConfirm>, expected: usize, what: &str) -> usize {
        let mut migrated = 0;
        for _ in 0..expected {
            match done_rx.recv_timeout(PROTOCOL_STEP_TIMEOUT) {
                Ok(c) => migrated += c.migrated_tuples,
                Err(_) => panic!("fence protocol stalled waiting for {what}"),
            }
        }
        migrated
    }

    fn shrink_to(&mut self, target: usize) -> usize {
        let current = self.nodes();
        let (done_tx, done_rx) = unbounded();
        let stall = self.migration_stall;

        // Retiring workers, rightmost first: each exports (after absorbing
        // its right neighbour's segment) and hands the union left.
        let retiring: Vec<WorkerHandle<R, S>> = self.workers.split_off(target);
        for (offset, handle) in retiring.iter().enumerate().rev() {
            let k = target + offset;
            let _ = handle.commands.send(WorkerCommand::Retire {
                absorb_first: k + 1 < current,
                stall,
            });
        }

        // The surviving boundary node absorbs the final segment, then
        // becomes the new rightmost: its right input switches to a fresh
        // driver entry channel and its right output disappears.
        let boundary = &self.workers[target - 1];
        let (new_right_tx, new_right_rx) = spsc_bounded(ENTRY_FRAMES, Some(&boundary.waitset));
        let _ = boundary.commands.send(WorkerCommand::Absorb {
            from: llhj_core::message::Direction::Right,
            stall,
            done: done_tx.clone(),
        });
        let _ = boundary.commands.send(WorkerCommand::Rewire {
            id: target - 1,
            nodes: target,
            left_rx: None,
            right_rx: Some(new_right_rx),
            to_left: None,
            to_right: Some(None),
            done: done_tx.clone(),
        });
        for (k, handle) in self.workers.iter().enumerate().take(target - 1) {
            let _ = handle.commands.send(WorkerCommand::Rewire {
                id: k,
                nodes: target,
                left_rx: None,
                right_rx: None,
                to_left: None,
                to_right: None,
                done: done_tx.clone(),
            });
        }

        // Retiring workers exit once their segments are acknowledged.
        for handle in retiring {
            let exit = handle.handle.join().expect("retiring worker panicked");
            self.retired_counters.push(exit.counters);
            self.retired_idle_wakeups += exit.idle_wakeups;
            self.retired_batch_allocs += exit.batch_allocs;
        }
        // One Absorb plus `target` Rewires confirm the surviving chain.
        let migrated = self.confirm(&done_rx, target + 1, "shrink confirmations");
        self.entry.right.set_sender(new_right_tx);
        migrated
    }

    fn grow_to(&mut self, target: usize) {
        let factory = Arc::clone(
            self.factory
                .as_ref()
                .expect("a chain deployed from given nodes cannot grow"),
        );
        let current = self.nodes();
        let delta = target - current;
        // Stream-monotone node types (HSJ) grow at BOTH ends: stored S
        // tuples may only migrate leftward, so a purely right-end grow
        // would leave every new node unreachable for the whole resident S
        // window (the historical "S rebalances only by flow" caveat).
        // Splitting the extension — the left end gets the ceiling half —
        // gives each stream fresh nodes its constraint can actually reach.
        // Free node types keep the plain right-end grow.
        let left_delta = if self.constraint == MigrationConstraint::free() {
            0
        } else {
            delta.div_ceil(2)
        };
        let right_delta = delta - left_delta;
        let (done_tx, done_rx) = unbounded();

        // Fresh links for the right extension: link i connects new node
        // `left_delta + current + i` to its left neighbour; the new
        // rightmost gets a fresh bounded entry channel.  Each new worker's
        // wait set exists before its channels (ring binding).
        let right_ws: Vec<WaitSet> = (0..right_delta).map(|_| WaitSet::new()).collect();
        let mut ltr: Vec<NewLink<R, S>> = Vec::new();
        let mut rtl: Vec<NewLink<R, S>> = Vec::new();
        for i in 0..right_delta {
            // ltr[i] feeds new worker i's left input.
            let (tx, rx) = spsc_unbounded(RING_SLOTS, Some(&right_ws[i]));
            ltr.push((tx, Some(rx)));
            // rtl[i] flows leftward: rtl[0] into the old rightmost, rtl[i]
            // into new worker i − 1.
            let waiter = if i == 0 {
                &self.workers[current - 1].waitset
            } else {
                &right_ws[i - 1]
            };
            let (tx, rx) = spsc_unbounded(RING_SLOTS, Some(waiter));
            rtl.push((tx, Some(rx)));
        }
        // Spawn the new workers first so the extension is ready before any
        // old worker is rewired towards it.  (New ids renumber the old
        // workers by `left_delta`; their busy slots stay registered under
        // the old position, so per-position busy attribution is
        // approximate across a both-end grow while the totals stay exact.)
        let mut new_right_entry = None;
        if right_delta > 0 {
            let (tx, rx) = spsc_bounded(ENTRY_FRAMES, Some(&right_ws[right_delta - 1]));
            new_right_entry = Some(tx);
            let mut new_right_rx = Some(rx);
            for i in 0..right_delta {
                let id = left_delta + current + i;
                let left_rx = ltr[i].1.take().expect("new left input");
                let to_left = Some(rtl[i].0.clone());
                let (right_rx, to_right) = if i + 1 < right_delta {
                    (
                        rtl[i + 1].1.take().expect("new right input"),
                        Some(ltr[i + 1].0.clone()),
                    )
                } else {
                    (new_right_rx.take().expect("new entry"), None)
                };
                let handle = self.spawn_worker(
                    id,
                    target,
                    factory(id, target),
                    left_rx,
                    right_rx,
                    to_left,
                    to_right,
                    right_ws[i].clone(),
                );
                self.workers.push(handle);
            }
        }

        // Fresh links for the left extension, the mirror image: `lltr[i]`
        // carries frames from new node i to node i + 1, `lrtl[i]` the
        // reverse; the new leftmost gets a fresh bounded left entry.
        let left_ws: Vec<WaitSet> = (0..left_delta).map(|_| WaitSet::new()).collect();
        let mut lltr: Vec<NewLink<R, S>> = Vec::new();
        let mut lrtl: Vec<NewLink<R, S>> = Vec::new();
        for i in 0..left_delta {
            // lltr[i] flows rightward out of new worker i: into new worker
            // i + 1, or into the old leftmost for the last link.
            let waiter = if i + 1 < left_delta {
                &left_ws[i + 1]
            } else {
                &self.workers[0].waitset
            };
            let (tx, rx) = spsc_unbounded(RING_SLOTS, Some(waiter));
            lltr.push((tx, Some(rx)));
            // lrtl[i] feeds new worker i's right input.
            let (tx, rx) = spsc_unbounded(RING_SLOTS, Some(&left_ws[i]));
            lrtl.push((tx, Some(rx)));
        }
        let mut new_left_entry = None;
        let mut left_workers: Vec<WorkerHandle<R, S>> = Vec::new();
        if left_delta > 0 {
            let (tx, rx) = spsc_bounded(ENTRY_FRAMES, Some(&left_ws[0]));
            new_left_entry = Some(tx);
            let mut new_left_rx = Some(rx);
            for i in 0..left_delta {
                let left_rx = if i == 0 {
                    new_left_rx.take().expect("new entry")
                } else {
                    lltr[i - 1].1.take().expect("new left input")
                };
                let right_rx = lrtl[i].1.take().expect("new right input");
                let to_left = if i == 0 {
                    None
                } else {
                    Some(lrtl[i - 1].0.clone())
                };
                let to_right = Some(lltr[i].0.clone());
                let handle = self.spawn_worker(
                    i,
                    target,
                    factory(i, target),
                    left_rx,
                    right_rx,
                    to_left,
                    to_right,
                    left_ws[i].clone(),
                );
                left_workers.push(handle);
            }
        }

        // The old end nodes become inner nodes: they gain a neighbour on
        // the new links, whose rings were bound to the old ends' wait sets
        // at construction above.
        let mut boundary_right_rx =
            (right_delta > 0).then(|| rtl[0].1.take().expect("old rightmost right input"));
        let mut boundary_left_rx = (left_delta > 0).then(|| {
            lltr[left_delta - 1]
                .1
                .take()
                .expect("old leftmost left input")
        });
        for k in 0..current {
            let (right_rx, to_right) = if k + 1 == current && right_delta > 0 {
                (
                    Some(boundary_right_rx.take().expect("handed over once")),
                    Some(Some(ltr[0].0.clone())),
                )
            } else {
                (None, None)
            };
            let (left_rx, to_left) = if k == 0 && left_delta > 0 {
                (
                    Some(boundary_left_rx.take().expect("handed over once")),
                    Some(Some(lrtl[left_delta - 1].0.clone())),
                )
            } else {
                (None, None)
            };
            let _ = self.workers[k].commands.send(WorkerCommand::Rewire {
                id: left_delta + k,
                nodes: target,
                left_rx,
                right_rx,
                to_left,
                to_right,
                done: done_tx.clone(),
            });
        }
        self.confirm(&done_rx, current, "grow confirmations");
        // Splice the new left workers in at the front so `workers[k]` is
        // the worker running node id `k` again.
        if !left_workers.is_empty() {
            self.workers.splice(0..0, left_workers);
        }
        if let Some(tx) = new_right_entry {
            self.entry.right.set_sender(tx);
        }
        if let Some(tx) = new_left_entry {
            self.entry.left.set_sender(tx);
        }
    }

    /// Takes the per-node stored-window census `(|WR_k|, |WS_k|)` of the
    /// live chain.  Only meaningful while fenced (the planner's input must
    /// not race frame processing).
    fn census(&self) -> Vec<(usize, usize)> {
        let (done_tx, done_rx) = unbounded();
        for handle in &self.workers {
            let _ = handle.commands.send(WorkerCommand::Census {
                done: done_tx.clone(),
            });
        }
        let mut census = vec![(0, 0); self.workers.len()];
        for _ in 0..self.workers.len() {
            match done_rx.recv_timeout(PROTOCOL_STEP_TIMEOUT) {
                Ok(CensusReport { node, wr, ws }) => census[node] = (wr, ws),
                Err(_) => panic!("fence protocol stalled waiting for census replies"),
            }
        }
        census
    }

    /// Executes one redistribution hop: the shedding worker exports the
    /// plan's slice and hands it over the existing neighbour channel; the
    /// absorbing worker installs it (matching where the node type requires
    /// it) and acks.  The control plane waits for both confirmations, so
    /// transfers execute strictly in plan order — which is what makes the
    /// cascading multi-hop flows feasible and the runtime's placement
    /// identical to the simulator's.
    fn execute_transfer(&mut self, transfer: EdgeTransfer) -> usize {
        let (done_tx, done_rx) = unbounded();
        let direction = transfer.direction();
        let _ = self.workers[transfer.from]
            .commands
            .send(WorkerCommand::Shed {
                direction,
                r: transfer.r,
                s: transfer.s,
                done: done_tx.clone(),
            });
        let _ = self.workers[transfer.to]
            .commands
            .send(WorkerCommand::Absorb {
                from: direction.opposite(),
                stall: self.migration_stall,
                done: done_tx,
            });
        self.confirm(&done_rx, 2, "redistribution transfer confirmations")
    }

    /// The chain-wide redistribution pass every resize ends with: census
    /// the (still fenced) chain, compute the balanced
    /// [`RedistributionPlan`] under the node type's constraint, route the
    /// plan's segments hop by hop along the existing channels, and return
    /// the moved-tuple count plus the post-redistribution census.  The
    /// mesh also runs it after a reshard changed the chain's state.
    pub(crate) fn rebalance(&mut self) -> (usize, Vec<(usize, usize)>) {
        let census = self.census();
        let plan = RedistributionPlan::balanced(&census, self.constraint);
        if plan.is_noop() {
            return (0, census);
        }
        let mut moved = 0;
        for transfer in plan.transfers() {
            moved += self.execute_transfer(transfer);
        }
        let after = self.census();
        (moved, after)
    }

    // -- mesh hooks (crate-private) --------------------------------------
    //
    // The shard mesh (`crate::mesh`) drives N of these pipelines as the
    // chains of a key-partitioned mesh: one external router feeds events
    // to the owning chain, and a shard split/merge moves window state
    // *across* chains.  These hooks expose exactly the pieces the mesh
    // layer needs — online injection, the fence, and the cross-shard
    // export/install protocol — without widening the public API.

    /// Exports every node's full window, leaving the chain empty.  Only
    /// valid while fenced; segment `k` is node `k`'s window.
    pub(crate) fn export_all_segments(&mut self) -> Vec<llhj_core::message::WindowSegment<R, S>> {
        let mut segments = Vec::with_capacity(self.workers.len());
        for handle in &self.workers {
            let (done_tx, done_rx) = unbounded();
            let _ = handle
                .commands
                .send(WorkerCommand::ExportAll { done: done_tx });
            match done_rx.recv_timeout(PROTOCOL_STEP_TIMEOUT) {
                Ok(segment) => segments.push(segment),
                Err(_) => panic!("fence protocol stalled waiting for a full export"),
            }
        }
        segments
    }

    /// Installs a segment silently into node `k`.  Only valid while
    /// fenced, and only for cross-shard movement (the rows re-enter at the
    /// pipeline position they held in the source chain, so no
    /// migration-hop matching is due).
    pub(crate) fn install_segment(
        &mut self,
        k: usize,
        segment: llhj_core::message::WindowSegment<R, S>,
    ) -> usize {
        let (done_tx, done_rx) = unbounded();
        let _ = self.workers[k].commands.send(WorkerCommand::Install {
            segment,
            done: done_tx,
        });
        self.confirm(&done_rx, 1, "a silent install confirmation")
    }
}

/// Driver-side checkpoint cadence for
/// [`ElasticPipeline::run_schedule_checkpointed`].
#[derive(Clone)]
pub struct CheckpointConfig {
    /// Where checkpoint blobs are persisted.
    pub store: Arc<dyn CheckpointStore>,
    /// Take a checkpoint after every this many consumed schedule events.
    pub every_events: usize,
    /// Every `full_interval`-th checkpoint is a self-contained full blob;
    /// the ones between are deltas (see
    /// [`llhj_core::checkpoint::ChainCheckpointer`]).
    pub full_interval: u64,
    /// The store slot this chain checkpoints into (shard index of a mesh
    /// deployment; 0 for a standalone chain).
    pub shard: usize,
    /// Bound of the driver-side replay log.  Must comfortably exceed
    /// `every_events`, or a recovery can find its suffix already evicted
    /// ([`CheckpointError::LogTruncated`]).
    pub replay_capacity: usize,
}

impl CheckpointConfig {
    /// A standalone-chain config checkpointing every `every_events` events
    /// into `store`, with a full blob every 4th checkpoint and a generous
    /// replay-log bound.
    pub fn new(store: Arc<dyn CheckpointStore>, every_events: usize) -> Self {
        CheckpointConfig {
            store,
            every_events: every_events.max(1),
            full_interval: 4,
            shard: 0,
            replay_capacity: 1 << 16,
        }
    }
}

impl<R, S, P, H> ElasticPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + CheckpointPayload + 'static,
    S: Clone + Send + Sync + CheckpointPayload + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// Captures the chain's durable state inside a fence.
    ///
    /// The fence drains every in-flight frame, so the chain is quiescent
    /// with *settled* state (no open expedition, every `IWS` empty) —
    /// exactly the precondition of `export_all_segments`.  The export
    /// empties the chain; silently reinstalling each segment at the same
    /// position restores it byte-for-byte (the cross-shard install path of
    /// the mesh protocol), so a checkpoint is observationally a fence.
    /// The punctuation high-water marks are read inside the same fence —
    /// with no frame in flight they are exact, not racing advances.
    pub(crate) fn capture_checkpoint(
        &mut self,
        epoch: u64,
        shards: u32,
        events_consumed: u64,
    ) -> ChainCheckpoint<R, S> {
        self.fence_for_migration();
        let segments = self.export_all_segments();
        for (k, segment) in segments.iter().enumerate() {
            self.install_segment(k, segment.clone());
        }
        ChainCheckpoint {
            epoch,
            events_consumed,
            shards,
            hwm_r: self.hwm.r(),
            hwm_s: self.hwm.s(),
            segments,
        }
    }

    /// Restores a checkpoint into the (idle, freshly built) chain: installs
    /// segment `k` into node `k` and re-advances the high-water marks.
    pub(crate) fn restore_checkpoint(&mut self, ckpt: ChainCheckpoint<R, S>) {
        assert_eq!(
            ckpt.width(),
            self.nodes(),
            "a checkpoint restores only into a chain of its own width"
        );
        self.fence_for_migration();
        for (k, segment) in ckpt.segments.into_iter().enumerate() {
            self.install_segment(k, segment);
        }
        self.hwm.observe_r(ckpt.hwm_r);
        self.hwm.observe_s(ckpt.hwm_s);
    }

    /// [`ElasticPipeline::run_schedule`] with durability: every consumed
    /// event is recorded into a bounded [`ReplayLog`], and every
    /// `every_events` events the driver takes a fenced checkpoint,
    /// persists it and trims the log.  Returns the cancel flag plus the
    /// replay log — together with the store, everything a
    /// [`recover_elastic_pipeline`] call needs after a crash.
    pub fn run_schedule_checkpointed(
        &mut self,
        schedule: &DriverSchedule<R, S>,
        plan: &ScalePlan,
        cfg: &CheckpointConfig,
    ) -> (bool, ReplayLog<R, S>) {
        let mut checkpointer: ChainCheckpointer<R, S> =
            ChainCheckpointer::new(cfg.shard, cfg.full_interval);
        let mut log: ReplayLog<R, S> = ReplayLog::new(cfg.replay_capacity);
        let events = schedule.events();
        let cancelled = self.replay(
            events,
            (schedule.r_count(), schedule.s_count()),
            plan,
            None,
            |pipeline, consumed| {
                log.record(events.get(consumed - 1).expect("a consumed event"));
                if consumed.is_multiple_of(cfg.every_events) {
                    let ckpt = pipeline.capture_checkpoint(0, 1, consumed as u64);
                    // A failed store write is not fatal to the run — the log
                    // simply is not trimmed, so recoverability degrades to the
                    // previous durable checkpoint instead of silently lying.
                    if checkpointer.append(cfg.store.as_ref(), ckpt).is_ok() {
                        log.trim_to(consumed);
                    }
                }
            },
        );
        (cancelled, log)
    }
}

/// Rebuilds a crashed chain from its newest decodable checkpoint plus the
/// replay log's suffix, and runs it to completion.
///
/// The recovery invariants, in order:
///
/// 1. the checkpoint was taken inside a fence, so every result involving
///    only pre-checkpoint events was already emitted by the crashed run;
/// 2. replaying the logged suffix through an exactly restored chain
///    regenerates precisely the results that involve at least one suffix
///    event (replay is deterministic: the schedule totally orders
///    arrivals and expiries);
/// 3. therefore `crashed ∪ recovered`, deduplicated by `(r_seq, s_seq)`,
///    equals the oracle result set — which is what
///    [`llhj_core::checkpoint::splice_recovered_stream`] assembles and the
///    crash-recovery conformance suite asserts byte-for-byte.
///
/// If the store holds no checkpoint at all (the crash predates the first
/// cadence point), recovery degrades to a cold replay of the full log at
/// `cold_start_nodes` — correct as long as the bounded log has not
/// evicted anything, which [`CheckpointError::LogTruncated`] reports
/// otherwise.
#[allow(clippy::too_many_arguments)]
pub fn recover_elastic_pipeline<R, S, P, H>(
    store: &dyn CheckpointStore,
    shard: usize,
    cold_start_nodes: usize,
    factory: NodeFactory<R, S>,
    predicate: P,
    policy: H,
    options: &PipelineOptions,
    log: &ReplayLog<R, S>,
) -> Result<RunOutcome<R, S>, CheckpointError>
where
    R: Clone + Send + Sync + CheckpointPayload + 'static,
    S: Clone + Send + Sync + CheckpointPayload + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let restored = match load_latest_checkpoint::<R, S>(store, shard) {
        Ok((_seq, ckpt)) => Some(ckpt),
        Err(CheckpointError::NotFound) => None,
        Err(e) => return Err(e),
    };
    let width = restored.as_ref().map_or(cold_start_nodes, |c| c.width());
    let replay_from = restored.as_ref().map_or(0, |c| c.events_consumed as usize);
    let suffix = log.suffix(replay_from)?;
    let suffix_arrivals = suffix.iter().fold((0, 0), |(r, s), e| match e.event {
        StreamEvent::ArrivalR(_) => (r + 1, s),
        StreamEvent::ArrivalS(_) => (r, s + 1),
        _ => (r, s),
    });
    let mut pipeline = ElasticPipeline::new(width, factory, predicate, policy, options.clone());
    if let Some(ckpt) = restored {
        pipeline.restore_checkpoint(ckpt);
    }
    pipeline.replay(suffix, suffix_arrivals, &ScalePlan::none(), None, |_, _| {});
    Ok(pipeline.finish())
}

impl<R, S, P, H> ScalePipeline for ElasticPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    fn grow(&mut self, delta: usize) {
        self.scale_to(self.nodes() + delta);
    }

    fn shrink(&mut self, delta: usize) {
        assert!(delta < self.nodes(), "cannot retire the whole pipeline");
        self.scale_to(self.nodes() - delta);
    }

    fn scale_to(&mut self, target: usize) {
        assert!(target > 0, "pipeline needs at least one node");
        let current = self.nodes();
        if target == current {
            return;
        }
        let wall_start = Instant::now();
        self.fence_for_migration();
        let migrated = if target < current {
            self.shrink_to(target)
        } else {
            self.grow_to(target);
            0
        };
        // The chain is still fenced (injection paused, no data frame
        // anywhere): spread the window state evenly across the new width
        // before resuming, so the resized chain is warm immediately
        // instead of after a window turnover.
        let (rebalanced, residence_after) = self.rebalance();
        self.injector = Injector::new(self.predicate.clone(), self.policy.clone(), target);
        self.metrics.set_nodes(target);
        self.register_occupancy_probe();
        self.resize_log.push(ResizeEvent {
            at: self.clock.now(),
            from_nodes: current,
            to_nodes: target,
            migrated_tuples: migrated,
            rebalanced_tuples: rebalanced,
            residence_after,
            fence_wall_micros: wall_start.elapsed().as_micros() as u64,
        });
    }
}

impl<R, S, P, H> ElasticPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// Drains the pipeline, stops every thread and returns the outcome.
    pub fn finish(mut self) -> RunOutcome<R, S> {
        self.fence();
        self.stop.store(true, Ordering::SeqCst);
        for worker in &self.workers {
            worker.waitset.notify();
        }
        self.stop_signal.notify();

        let mut counters = Vec::with_capacity(self.workers.len());
        let mut idle_wakeups = self.retired_idle_wakeups;
        // Every frame, injected or forwarded, is assembled in a fresh
        // buffer.
        let mut batch_allocs = self.entry.frames_injected + self.retired_batch_allocs;
        let nodes = self.workers.len();
        for worker in self.workers.drain(..) {
            let exit = worker.handle.join().expect("worker thread panicked");
            counters.push(exit.counters);
            idle_wakeups += exit.idle_wakeups;
            batch_allocs += exit.batch_allocs;
        }
        let collected = self
            .collector
            .take()
            .expect("finish called once")
            .join()
            .expect("collector thread panicked");

        RunOutcome {
            results: collected.results,
            output: collected.output,
            counters,
            retired_counters: std::mem::take(&mut self.retired_counters),
            latency: collected.latency,
            latency_series: collected.series.finish(),
            elapsed: self.clock.elapsed(),
            punctuation_count: collected.punctuation_count,
            arrivals_per_stream: self.entry.arrivals(),
            frames_injected: self.entry.frames_injected,
            batch_allocs,
            idle_wakeups,
            resize_log: std::mem::take(&mut self.resize_log),
            nodes,
            cancelled: self.cancelled,
        }
    }
}

impl<R, S, P, H> Drop for ElasticPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// A pipeline dropped without [`ElasticPipeline::finish`] (e.g. by a
    /// panic) signals its threads to exit rather than joining them —
    /// joining from a panic path could hang on a thread that is itself
    /// stuck.  After `finish` this is a no-op.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for worker in &self.workers {
            worker.waitset.notify();
        }
        self.stop_signal.notify();
    }
}

/// Replays `schedule` through an elastic pipeline of `initial_nodes`
/// nodes, resizing at the plan's event indexes, and returns the drained
/// outcome.  The convenience wrapper around [`ElasticPipeline`] used by
/// the conformance suite and the `bench_elastic` binary.
pub fn run_elastic_pipeline<R, S, P, H>(
    initial_nodes: usize,
    factory: NodeFactory<R, S>,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
    plan: &ScalePlan,
    options: &PipelineOptions,
) -> RunOutcome<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let mut pipeline =
        ElasticPipeline::new(initial_nodes, factory, predicate, policy, options.clone());
    pipeline.run_schedule(schedule, plan);
    pipeline.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{eq_pred, schedule};
    use llhj_baselines::run_kang;
    use llhj_core::homing::RoundRobin;
    use llhj_core::time::TimeDelta;
    use llhj_core::tuple::SeqNo;
    use llhj_core::window::WindowSpec;

    fn paced_opts(batch_size: usize) -> PipelineOptions {
        PipelineOptions {
            batch_size,
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        }
    }

    #[test]
    fn elastic_without_resizes_matches_the_oracle() {
        let sched = schedule(300, 150);
        let oracle = run_kang(eq_pred(), &sched);
        let outcome = run_elastic_pipeline(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &ScalePlan::none(),
            &paced_opts(8),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.nodes, 2);
        assert!(outcome.resize_log.is_empty());
        assert!(!outcome.cancelled);
        assert_eq!(outcome.counters.len(), 2);
    }

    #[test]
    fn grow_mid_run_preserves_the_exact_result_set() {
        let sched = schedule(300, 150);
        let oracle = run_kang(eq_pred(), &sched);
        let plan = ScalePlan::new(vec![ScaleStep {
            after_events: sched.events().len() / 2,
            target_nodes: 4,
        }]);
        let outcome = run_elastic_pipeline(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &plan,
            &paced_opts(8),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.nodes, 4);
        assert_eq!(outcome.resize_log.len(), 1);
        assert_eq!(outcome.resize_log[0].from_nodes, 2);
        assert_eq!(outcome.resize_log[0].to_nodes, 4);
        assert_eq!(outcome.counters.len(), 4);
        // The grown nodes actually participated.
        assert!(outcome.counters[3].arrivals > 0);
    }

    #[test]
    fn shrink_mid_run_migrates_state_and_preserves_the_result_set() {
        let sched = schedule(300, 150);
        let oracle = run_kang(eq_pred(), &sched);
        let plan = ScalePlan::new(vec![ScaleStep {
            after_events: sched.events().len() / 2,
            target_nodes: 2,
        }]);
        let outcome = run_elastic_pipeline(
            4,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &plan,
            &paced_opts(8),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.nodes, 2);
        assert_eq!(outcome.retired_counters.len(), 2);
        assert_eq!(outcome.resize_log.len(), 1);
        assert!(
            outcome.resize_log[0].migrated_tuples > 0,
            "a mid-run shrink must migrate resident window tuples"
        );
    }

    #[test]
    fn repeated_resizes_keep_the_pipeline_exact() {
        let sched = schedule(400, 150);
        let oracle = run_kang(eq_pred(), &sched);
        let third = sched.events().len() / 3;
        let plan = ScalePlan::new(vec![
            ScaleStep {
                after_events: third,
                target_nodes: 5,
            },
            ScaleStep {
                after_events: 2 * third,
                target_nodes: 2,
            },
        ]);
        let outcome = run_elastic_pipeline(
            3,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &plan,
            &paced_opts(4),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.nodes, 2);
        assert_eq!(outcome.resize_log.len(), 2);
        assert_eq!(outcome.retired_counters.len(), 3);
    }

    /// The elastic side of the fixed runtime's silent-gap guarantee: a
    /// stream that goes silent mid-run must not hold an entry frame
    /// hostage until the next schedule event — it leaves on the idle
    /// link, and the sliced pacing wait releases a held-back one within
    /// `flush_interval` of wall time.
    #[test]
    fn silent_gap_cannot_hold_a_partial_entry_frame() {
        let eq = eq_pred();
        let mk = |v: u32| {
            vec![
                (Timestamp::from_millis(1), v),
                (Timestamp::from_millis(700), v + 1_000),
                (Timestamp::from_millis(710), v + 2_000),
            ]
        };
        let sched = DriverSchedule::build(
            mk(7),
            mk(7),
            WindowSpec::Time(TimeDelta::from_secs(2)),
            WindowSpec::Time(TimeDelta::from_secs(2)),
        );
        let opts = PipelineOptions {
            // Far larger than the pre-gap tuple count: only the idle-link
            // and age rules can release the first frame before the gap
            // ends.
            batch_size: 64,
            flush_interval: Some(TimeDelta::from_millis(10)),
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let outcome = run_elastic_pipeline(
            2,
            llhj_factory(eq.clone()),
            eq,
            RoundRobin,
            &sched,
            &ScalePlan::none(),
            &opts,
        );
        let first = outcome
            .results
            .iter()
            .find(|t| t.result.key() == (SeqNo(0), SeqNo(0)))
            .expect("the pre-gap pair must be found");
        let latency = first.latency();
        assert!(
            latency < TimeDelta::from_millis(200),
            "pre-gap result waited {latency} — the sliced pacing wait \
             should have flushed it near the 10 ms interval"
        );
    }

    #[test]
    fn scale_to_same_width_is_a_noop() {
        let mut pipeline = ElasticPipeline::new(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            PipelineOptions::default(),
        );
        pipeline.scale_to(2);
        assert!(pipeline.resize_log().is_empty());
        let outcome = pipeline.finish();
        assert_eq!(outcome.nodes, 2);
        assert!(outcome.results.is_empty());
    }

    /// The metrics bus follows the pipeline through resizes: the arrival
    /// counter counts injected tuples, the published width tracks
    /// `scale_to`, and the collector feeds the latency EWMA.
    #[test]
    fn metrics_bus_tracks_arrivals_width_and_latency() {
        let sched = schedule(200, 150);
        let mut pipeline = ElasticPipeline::new(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            paced_opts(8),
        );
        let bus = pipeline.metrics_bus();
        assert_eq!(bus.nodes(), 2);
        pipeline.run_schedule(
            &sched,
            &ScalePlan::new(vec![ScaleStep {
                after_events: sched.events().len() / 2,
                target_nodes: 3,
            }]),
        );
        assert_eq!(bus.nodes(), 3);
        assert_eq!(bus.arrivals(), 400, "200 R + 200 S tuples injected");
        let outcome = pipeline.finish();
        assert!(outcome.results.len() > 10);
        assert_eq!(bus.results(), outcome.results.len() as u64);
        assert!(bus.latency_ewma() > TimeDelta::ZERO);
        let busy = bus.busy_ns(3);
        assert!(
            busy.iter().all(|&ns| ns > 0),
            "all nodes did work: {busy:?}"
        );
    }

    /// Every resize ends with the chain-wide redistribution: immediately
    /// after a mid-run grow the stored windows are spread evenly across
    /// the new width (within the integer rounding of the balanced
    /// targets), not concentrated on the old nodes.
    #[test]
    fn grow_rebalances_residence_immediately() {
        let sched = schedule(300, 150);
        let plan = ScalePlan::new(vec![ScaleStep {
            after_events: sched.events().len() / 2,
            target_nodes: 4,
        }]);
        let outcome = run_elastic_pipeline(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &sched,
            &plan,
            &paced_opts(8),
        );
        let resize = &outcome.resize_log[0];
        assert!(
            resize.rebalanced_tuples > 0,
            "a loaded grow must move window state into the new nodes"
        );
        assert_eq!(resize.residence_after.len(), 4);
        let totals: Vec<usize> = resize
            .residence_after
            .iter()
            .map(|&(wr, ws)| wr + ws)
            .collect();
        let (min, max) = (*totals.iter().min().unwrap(), *totals.iter().max().unwrap());
        assert!(
            max - min <= 2,
            "post-grow residence must be balanced to the rounding unit, got {totals:?}"
        );
        assert!(min > 0, "every node holds state right after the rebalance");
    }

    /// Checkpointing is observationally transparent: a checkpointed run
    /// (fences, exports, reinstalls, store writes every N events) produces
    /// exactly the oracle result set, persists decodable blobs, and trims
    /// the replay log up to the last durable checkpoint.
    #[test]
    fn checkpointed_run_is_transparent_and_persists_blobs() {
        use llhj_core::checkpoint::{load_latest_checkpoint, MemoryStore};
        let sched = schedule(300, 150);
        let oracle = run_kang(eq_pred(), &sched);
        let store = Arc::new(MemoryStore::new());
        let mut pipeline = ElasticPipeline::new(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            paced_opts(8),
        );
        let cfg = CheckpointConfig::new(Arc::clone(&store) as _, 100);
        let plan = ScalePlan::new(vec![ScaleStep {
            after_events: sched.events().len() / 2,
            target_nodes: 3,
        }]);
        let (cancelled, log) = pipeline.run_schedule_checkpointed(&sched, &plan, &cfg);
        assert!(!cancelled);
        let outcome = pipeline.finish();
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.resize_log.len(), 1);
        let events = sched.events().len();
        let checkpoints = store.seqs(0).unwrap();
        assert_eq!(checkpoints.len(), events / 100);
        assert_eq!(
            log.oldest(),
            (events / 100) * 100,
            "log trimmed to the last checkpoint"
        );
        let (_seq, latest) = load_latest_checkpoint::<u32, u32>(store.as_ref(), 0).unwrap();
        assert_eq!(latest.width(), 3, "the post-resize width is captured");
        assert!(latest.hwm_r > Timestamp::ZERO && latest.hwm_s > Timestamp::ZERO);
    }

    /// The original handshake join deploys on the elastic pipeline since
    /// the capacity renegotiation refactor (it was the one non-elastic
    /// node type for two PRs).
    #[test]
    fn hsj_pipeline_is_elastic_and_exact_at_batch_one() {
        use llhj_core::time::TimeDelta;
        // Tail traffic keeps the streams flowing so every real pair
        // physically meets before the run ends (HSJ matches pairs only
        // when they cross).
        let mk = |sentinel: u32| {
            let real = (0..200u64).map(move |i| (Timestamp::from_millis(i), (i % 13) as u32));
            let tail =
                (0..110u64).map(move |i| (Timestamp::from_millis(200 + i), sentinel + i as u32));
            real.chain(tail).collect::<Vec<_>>()
        };
        let w = WindowSpec::Time(TimeDelta::from_millis(100));
        let sched = DriverSchedule::build(mk(1_000_000), mk(2_000_000), w, w);
        let oracle = run_kang(eq_pred(), &sched);
        let plan = ScalePlan::new(vec![ScaleStep {
            after_events: sched.events().len() / 2,
            target_nodes: 4,
        }]);
        let outcome = run_elastic_pipeline(
            2,
            super::hsj_age_factory(
                TimeDelta::from_millis(100),
                TimeDelta::from_millis(100),
                eq_pred(),
            ),
            eq_pred(),
            RoundRobin,
            &sched,
            &plan,
            &paced_opts(1),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.nodes, 4);
        assert_eq!(outcome.resize_log.len(), 1);
    }
}
