//! Discrete-event simulation of elastic node-chain scaling.
//!
//! Mirrors the threaded runtime's reconfiguration protocol
//! (`llhj-runtime::elastic`) in virtual time so the three substrates —
//! analytic model, simulator, threaded runtime — can be compared at every
//! scale step:
//!
//! 1. **Fence** — the injection of schedule events pauses and the event
//!    heap drains completely, which is exactly the runtime's "no frame in
//!    flight anywhere" condition;
//! 2. **Handoff** (shrink) — retiring nodes merge their window segments
//!    leftwards along the neighbour chain; every hop charges the receiving
//!    node one frame reception ([`crate::cost::CostModel::per_frame_ns`]) plus one
//!    per-message cost per migrated tuple, and pays the core-to-core hop
//!    latency, and every ack charges one frame back — the same
//!    serialisation the runtime's segment/ack protocol exhibits;
//! 3. **Rewire** — nodes renumber and the chain width changes; surviving
//!    nodes resume at the virtual instant the fence ends.
//!
//! Because injections later in the schedule carry their own (stream)
//! timestamps, a long fence simply shows up as a busy-time bubble: the
//! nodes' `busy_until` horizon moves past the fence end and the following
//! frames queue behind it, exactly like the runtime's driver catching up
//! after a reconfiguration pause.
//!
//! Every simulated chain — fixed, planned, autoscaled, and each chain of
//! a mesh — is an `ElasticSim`: it owns the injector and the one entry
//! batcher, which enforces the runtime's expiry barrier (an expiry never
//! enters before its own arrival has settled; ARCHITECTURE invariant 8).

use crate::config::{Algorithm, SimConfig};
use crate::cost::SimNanos;
use crate::report::SimReport;
use llhj_core::driver::{DriverEvent, DriverSchedule, Injector, StreamEvent};
use llhj_core::homing::HomePolicy;
use llhj_core::message::{
    Direction, LeftToRight, MessageBatch, NodeOutput, RightToLeft, WindowSegment,
};
use llhj_core::metrics::{
    AutoscalePolicy, AutoscaleReport, LatencyEwma, MetricsSample, PolicyState, ResizeDecision,
    DEFAULT_LATENCY_ALPHA,
};
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::{HighWaterMarks, OutputItem, Punctuation};
use llhj_core::rebalance::{shed_ranges, MigrationConstraint, RedistributionPlan};
use llhj_core::result::TimedResult;
use llhj_core::stats::{LatencySeries, LatencySummary};
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_core::tuple::SeqNo;
use llhj_sync::sync::Arc;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Converts a stream timestamp to virtual nanoseconds.
pub(crate) fn ts_to_ns(ts: Timestamp) -> SimNanos {
    ts.as_micros().saturating_mul(1_000)
}

/// Converts virtual nanoseconds to a stream timestamp (microsecond floor).
fn ns_to_ts(ns: SimNanos) -> Timestamp {
    Timestamp::from_micros(ns / 1_000)
}

/// One reconfiguration in the elastic simulation's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResizeEvent {
    /// Virtual time at which the fence completed the drain.
    pub at_ns: SimNanos,
    /// Chain width before the resize.
    pub from_nodes: usize,
    /// Chain width after.
    pub to_nodes: usize,
    /// Window tuples the retirement handoff moved into the surviving
    /// boundary (0 for growth).
    pub migrated_tuples: usize,
    /// Window-tuple hops the chain-wide redistribution performed after
    /// the width change (a tuple crossing two edges counts twice) —
    /// mirrors the runtime's `ResizeEvent::rebalanced_tuples`.
    pub rebalanced_tuples: usize,
    /// Per-node stored-window census `(|WR_k|, |WS_k|)` immediately after
    /// the redistribution, indexed by node id.
    pub residence_after: Vec<(usize, usize)>,
    /// Virtual duration of the handoff (fence end − drain end).
    pub fence_ns: SimNanos,
}

/// Outcome of one elastic simulation: the usual [`SimReport`] plus the
/// resize log.  `report.nodes` is the *final* width and `report.counters`
/// covers the nodes alive at the end; `report.busy_ns` is indexed by node
/// id over the widest chain the run reached, so work done by nodes that
/// later retired is still accounted.
#[derive(Debug)]
pub struct ElasticSimReport<R, S> {
    /// The standard simulation report.
    pub report: SimReport<R, S>,
    /// Every reconfiguration, in order.
    pub resize_log: Vec<SimResizeEvent>,
}

impl<R, S> ElasticSimReport<R, S> {
    /// Sorted result keys, for oracle comparison.
    pub fn result_keys(&self) -> Vec<(llhj_core::tuple::SeqNo, llhj_core::tuple::SeqNo)> {
        self.report.result_keys()
    }

    /// Output rate over virtual time: the number of results detected in
    /// each `bucket_ns` of virtual time, as results/second.  The
    /// `bench_elastic` trace uses this to show throughput rising after a
    /// mid-burst grow.
    pub fn throughput_trace(&self, bucket_ns: SimNanos) -> Vec<(SimNanos, f64)> {
        assert!(bucket_ns > 0, "bucket must be positive");
        let mut buckets: Vec<u64> = Vec::new();
        for timed in &self.report.results {
            let idx = (ts_to_ns(timed.detected_at) / bucket_ns) as usize;
            if buckets.len() <= idx {
                buckets.resize(idx + 1, 0);
            }
            buckets[idx] += 1;
        }
        buckets
            .into_iter()
            .enumerate()
            .map(|(i, count)| {
                (
                    i as SimNanos * bucket_ns,
                    count as f64 * 1e9 / bucket_ns as f64,
                )
            })
            .collect()
    }
}

/// One checkpoint in a simulated durable run's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCheckpointEvent {
    /// Schedule events consumed when the checkpoint was taken.
    pub after_events: usize,
    /// Virtual time at which the fence completed the drain.
    pub at_ns: SimNanos,
    /// Window tuples serialised into the blob(s).
    pub tuples: usize,
    /// Virtual time charged for serialising and writing them.
    pub cost_ns: SimNanos,
}

/// The simulator's in-memory stand-in for a persisted chain checkpoint:
/// the per-node window segments, the punctuation high-water marks and the
/// consumed-event cut, captured inside a fence — the same payload the
/// runtime's `ChainCheckpoint` carries, minus the byte encoding (the
/// codec is exercised by `llhj-core`; the simulator mirrors the *cost*
/// and the recovery semantics).
#[derive(Debug, Clone)]
pub struct SimCheckpoint<R, S> {
    /// Schedule events consumed at the capture cut.
    pub after_events: usize,
    /// Chain width at the capture cut.
    pub width: usize,
    /// Per-node window segments, indexed by node position.
    pub segments: Vec<WindowSegment<R, S>>,
    /// R-side punctuation high-water mark at the cut.
    pub hwm_r: Timestamp,
    /// S-side punctuation high-water mark at the cut.
    pub hwm_s: Timestamp,
}

impl<R, S> SimCheckpoint<R, S> {
    /// Total window tuples the checkpoint carries.
    pub fn total_tuples(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }
}

struct HeapEntry<R, S> {
    at: SimNanos,
    seq: u64,
    node: usize,
    frame: MessageBatch<R, S>,
}

impl<R, S> PartialEq for HeapEntry<R, S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<R, S> Eq for HeapEntry<R, S> {}
impl<R, S> PartialOrd for HeapEntry<R, S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<R, S> Ord for HeapEntry<R, S> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One direction's entry-frame assembly: the pending messages, how many
/// of them are arrivals (expiries ride along without counting towards the
/// cap), and the arrivals that may not have settled yet.  The virtual-time
/// twin of the runtime's `exec::EntryBatcher`, minus the idle-link rule
/// (the simulator has no link occupancy to read).
struct EntryBatcher<M> {
    pending: Vec<M>,
    arrivals: usize,
    /// `(seq, ts)` of every arrival pushed that may not have finished its
    /// traversal yet — still pending here, or in the event heap — in
    /// ascending `seq`.  Pruned against the direction's traversal-end
    /// high-water mark; the expiry barrier consults it.
    unsettled: VecDeque<(SeqNo, Timestamp)>,
    /// Arrivals pushed over the whole run.
    injected: usize,
}

impl<M> EntryBatcher<M> {
    fn new() -> Self {
        EntryBatcher {
            pending: Vec::new(),
            arrivals: 0,
            unsettled: VecDeque::new(),
            injected: 0,
        }
    }

    /// Queues arrival `seq` (timestamp `ts`), counting it towards the cap
    /// and tracking it until the traversal-end mark `mark` passes it.
    fn push_arrival(&mut self, msg: M, seq: SeqNo, ts: Timestamp, mark: Timestamp) {
        self.forget_settled(mark);
        self.unsettled.push_back((seq, ts));
        self.pending.push(msg);
        self.arrivals += 1;
        self.injected += 1;
    }

    /// Forgets the arrivals older than `mark`: arrivals travel a direction
    /// in FIFO order, so every arrival sent before the one that set the
    /// mark has passed its home node too.  An arrival *at* the mark may
    /// share its timestamp with one still behind it, so it stays.
    fn forget_settled(&mut self, mark: Timestamp) {
        while self.unsettled.front().is_some_and(|&(_, ts)| ts < mark) {
            self.unsettled.pop_front();
        }
    }

    /// Where arrival `seq` stands before its expiry is queued: `None` if
    /// it has settled (or never went out through this batcher),
    /// `Some(true)` if it is still pending here, `Some(false)` if it is in
    /// flight.
    fn unsettled(&mut self, seq: SeqNo, mark: Timestamp) -> Option<bool> {
        self.forget_settled(mark);
        let at = self
            .unsettled
            .binary_search_by_key(&seq, |&(s, _)| s)
            .ok()?;
        Some(at >= self.unsettled.len() - self.arrivals)
    }

    /// Marks every sent arrival settled: the chain has just drained.
    fn settle_sent(&mut self) {
        let sent = self.unsettled.len() - self.arrivals;
        self.unsettled.drain(..sent);
    }

    /// Takes the pending frame's messages, resetting the arrival count.
    fn take(&mut self) -> Vec<M> {
        self.arrivals = 0;
        std::mem::take(&mut self.pending)
    }
}

/// One simulated chain, fixed or elastic: the node state machines, the
/// event heap, and the driver side — the injector and the one entry
/// batcher every simulated deployment shares.  Crate-visible so the
/// shard-mesh mirror ([`crate::mesh`]) can drive a fleet of these through
/// the same fenced split/merge protocol the threaded mesh uses.
pub(crate) struct ElasticSim<R, S, P, H> {
    pub(crate) config: SimConfig,
    pub(crate) width: usize,
    pub(crate) nodes: Vec<Box<dyn PipelineNode<R, S>>>,
    factory: NodeBuilder<R, S>,
    predicate: P,
    policy: H,
    injector: Injector<R, S, P, H>,
    left: EntryBatcher<LeftToRight<R>>,
    right: EntryBatcher<RightToLeft<S>>,
    heap: BinaryHeap<HeapEntry<R, S>>,
    event_seq: u64,
    pub(crate) busy_until: Vec<SimNanos>,
    pub(crate) busy_ns: Vec<SimNanos>,
    hwm: Arc<HighWaterMarks>,
    pub(crate) results: Vec<TimedResult<R, S>>,
    pending: Vec<TimedResult<R, S>>,
    pub(crate) output: Vec<OutputItem<TimedResult<R, S>>>,
    latency: LatencySummary,
    series: LatencySeries,
    punctuation_count: u64,
    next_collect_ns: SimNanos,
    collect_interval_ns: SimNanos,
    pub(crate) last_injection_ns: SimNanos,
    pub(crate) makespan_ns: SimNanos,
    pub(crate) frames_delivered: u64,
    pub(crate) messages_delivered: u64,
    resize_log: Vec<SimResizeEvent>,
}

/// Builds the node for position `k` of `n`.
type NodeBuilder<R, S> = Box<dyn Fn(usize, usize) -> Box<dyn PipelineNode<R, S>>>;

impl<R, S, P, H> ElasticSim<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// A fresh chain of `width` nodes of the configured algorithm, with
    /// nothing in flight.
    pub(crate) fn new(config: &SimConfig, width: usize, predicate: P, policy: H) -> Self {
        assert!(width > 0, "pipeline needs at least one node");
        assert!(config.batch_size > 0, "batch size must be positive");
        let factory: NodeBuilder<R, S> = Box::new(node_factory(config, predicate.clone()));
        let collect_interval_ns = (config.collect_interval.as_micros().max(1)) * 1_000;
        ElasticSim {
            width,
            nodes: (0..width).map(|k| factory(k, width)).collect(),
            factory,
            injector: Injector::new(predicate.clone(), policy.clone(), width),
            predicate,
            policy,
            left: EntryBatcher::new(),
            right: EntryBatcher::new(),
            heap: BinaryHeap::new(),
            event_seq: 0,
            busy_until: vec![0; width],
            busy_ns: vec![0; width],
            hwm: HighWaterMarks::new(),
            results: Vec::new(),
            pending: Vec::new(),
            output: Vec::new(),
            latency: LatencySummary::new(),
            series: LatencySeries::new(config.latency_bucket),
            punctuation_count: 0,
            collect_interval_ns,
            next_collect_ns: collect_interval_ns,
            last_injection_ns: 0,
            makespan_ns: 0,
            frames_delivered: 0,
            messages_delivered: 0,
            resize_log: Vec::new(),
            config: config.clone(),
        }
    }

    /// Arrivals injected so far, both streams.
    fn arrivals(&self) -> usize {
        self.left.injected + self.right.injected
    }

    /// Queues one driver event into its entry frame, injected at virtual
    /// time `at_ns`.  A frame leaves once it holds `batch_size` arrivals;
    /// the caller flushes the rest (the stream's last arrival, a fence,
    /// the end of the run).
    ///
    /// Before an expiry is queued, the expiry barrier (ARCHITECTURE
    /// invariant 8, the runtime's `EntryBatcher::settle`) checks its own
    /// arrival: an expiry must never overtake it, and the two travel in
    /// opposite directions.  If the arrival has not settled — still
    /// pending in the opposite frame, or still in the event heap — the
    /// opposite frame leaves now and the chain drains before the expiry
    /// enters.
    pub(crate) fn inject(&mut self, event: &DriverEvent<R, S>, at_ns: SimNanos) {
        match &event.event {
            StreamEvent::ArrivalR(r) => {
                let msg = self.injector.inject_r(r.clone());
                self.left.push_arrival(msg, r.seq, r.ts, self.hwm.r());
                if self.left.arrivals >= self.config.batch_size {
                    self.flush_left(at_ns);
                }
            }
            StreamEvent::ArrivalS(s) => {
                let msg = self.injector.inject_s(s.clone());
                self.right.push_arrival(msg, s.seq, s.ts, self.hwm.s());
                if self.right.arrivals >= self.config.batch_size {
                    self.flush_right(at_ns);
                }
            }
            StreamEvent::ExpireS(seq) => {
                if let Some(pending) = self.right.unsettled(*seq, self.hwm.s()) {
                    if pending {
                        self.flush_right(at_ns);
                    }
                    self.drain(None);
                    self.right.settle_sent();
                }
                self.left.pending.push(LeftToRight::ExpiryS(*seq));
            }
            StreamEvent::ExpireR(seq) => {
                if let Some(pending) = self.left.unsettled(*seq, self.hwm.r()) {
                    if pending {
                        self.flush_left(at_ns);
                    }
                    self.drain(None);
                    self.left.settle_sent();
                }
                self.right.pending.push(RightToLeft::ExpiryR(*seq));
            }
        }
    }

    /// Sends the pending left entry frame (if any) at `at_ns`.
    pub(crate) fn flush_left(&mut self, at_ns: SimNanos) {
        let msgs = self.left.take();
        if !msgs.is_empty() {
            self.push_frame(at_ns, 0, MessageBatch::Left(msgs));
        }
        self.last_injection_ns = self.last_injection_ns.max(at_ns);
    }

    /// Sends the pending right entry frame (if any) at `at_ns`.
    pub(crate) fn flush_right(&mut self, at_ns: SimNanos) {
        let msgs = self.right.take();
        if !msgs.is_empty() {
            let rightmost = self.width - 1;
            self.push_frame(at_ns, rightmost, MessageBatch::Right(msgs));
        }
        self.last_injection_ns = self.last_injection_ns.max(at_ns);
    }

    /// Sends both pending entry frames at `at_ns`: before a fence, whose
    /// frames must enter the chain their homes were assigned under, and
    /// at the end of the run.
    pub(crate) fn flush(&mut self, at_ns: SimNanos) {
        self.flush_left(at_ns);
        self.flush_right(at_ns);
    }

    pub(crate) fn push_frame(&mut self, at: SimNanos, node: usize, frame: MessageBatch<R, S>) {
        self.heap.push(HeapEntry {
            at,
            seq: self.event_seq,
            node,
            frame,
        });
        self.event_seq += 1;
    }

    /// Drains the event heap up to `until` (virtual time), or completely
    /// when `until` is `None` — the latter is the simulated fence.  A
    /// bounded drain is what the auto-scale mirror uses to materialise
    /// the results (and therefore the latency signal) that exist at a
    /// sample boundary; it pops every frame *scheduled* at or before the
    /// boundary, exactly once, in deterministic heap order.
    pub(crate) fn drain(&mut self, until: Option<SimNanos>) {
        let hop = self.config.cost.hop_ns_for(self.config.pin_cores);
        let mut out: NodeOutput<R, S, llhj_core::result::ResultTuple<R, S>> = NodeOutput::new();
        while let Some(entry) = {
            match (self.heap.peek(), until) {
                (Some(head), Some(bound)) if head.at > bound => None,
                _ => self.heap.pop(),
            }
        } {
            while self.config.punctuate && self.next_collect_ns <= entry.at {
                self.collect();
                self.next_collect_ns += self.collect_interval_ns;
            }

            let node_idx = entry.node;
            let rightmost = self.width - 1;
            let frame_len = entry.frame.len() as u64;
            self.frames_delivered += 1;
            self.messages_delivered += frame_len;
            let start = entry.at.max(self.busy_until[node_idx]);
            self.nodes[node_idx].observe_time(ns_to_ts(entry.at));

            out.clear();
            match entry.frame {
                MessageBatch::Left(mut msgs) => {
                    let observed = if node_idx == rightmost {
                        msgs.iter().rev().find_map(|m| match m {
                            LeftToRight::ArrivalR(r) => Some(r.ts()),
                            _ => None,
                        })
                    } else {
                        None
                    };
                    self.nodes[node_idx].handle_left_batch(&mut msgs, &mut out);
                    if let Some(ts) = observed {
                        self.hwm.observe_r(ts);
                    }
                }
                MessageBatch::Right(mut msgs) => {
                    let observed = if node_idx == 0 {
                        msgs.iter().rev().find_map(|m| match m {
                            RightToLeft::ArrivalS(s) => Some(s.ts()),
                            _ => None,
                        })
                    } else {
                        None
                    };
                    self.nodes[node_idx].handle_right_batch(&mut msgs, &mut out);
                    if let Some(ts) = observed {
                        self.hwm.observe_s(ts);
                    }
                }
                MessageBatch::Handoff(_) => {
                    unreachable!("elastic sim migrates state outside the heap")
                }
            }

            let punctuated_node = self.config.punctuate && (node_idx == 0 || node_idx == rightmost);
            let service = self.config.cost.frame_service_ns(
                frame_len,
                out.comparisons,
                out.results.len() as u64,
                punctuated_node,
            );
            let finish = start + service;
            self.busy_until[node_idx] = finish;
            self.busy_ns[node_idx] += service;
            self.makespan_ns = self.makespan_ns.max(finish);

            if !out.to_right.is_empty() {
                if node_idx + 1 < self.width {
                    let frame = MessageBatch::Left(std::mem::take(&mut out.to_right));
                    self.push_frame(finish + hop, node_idx + 1, frame);
                } else {
                    out.to_right.clear();
                }
            }
            if !out.to_left.is_empty() {
                if node_idx > 0 {
                    let frame = MessageBatch::Right(std::mem::take(&mut out.to_left));
                    self.push_frame(finish + hop, node_idx - 1, frame);
                } else {
                    out.to_left.clear();
                }
            }

            self.record_results(&mut out, finish);
        }
    }

    pub(crate) fn collect(&mut self) {
        let safe = self.hwm.safe_punctuation();
        for timed in self.pending.drain(..) {
            self.output.push(OutputItem::Result(timed));
        }
        self.output
            .push(OutputItem::Punctuation(Punctuation { ts: safe }));
        self.punctuation_count += 1;
    }

    /// Records the results of one frame — or of a migrated-segment
    /// installation (the original handshake join matches the still-unmet
    /// direction of every segment) — detected at the given virtual instant.
    fn record_results(
        &mut self,
        out: &mut NodeOutput<R, S, llhj_core::result::ResultTuple<R, S>>,
        at_ns: SimNanos,
    ) {
        debug_assert!(
            out.to_left.is_empty() && out.to_right.is_empty(),
            "pipeline messages are forwarded before the results are recorded"
        );
        let detected_at = ns_to_ts(at_ns);
        for result in out.results.drain(..) {
            let timed = TimedResult::new(result, detected_at);
            self.latency.record(timed.latency());
            self.series.record(detected_at, timed.latency());
            if self.config.punctuate {
                self.pending.push(timed.clone());
            }
            self.results.push(timed);
        }
    }

    /// Runs the fenced reconfiguration to `target` nodes, charging the
    /// handoff the same way the runtime's protocol serialises it.  The
    /// caller flushes the entry frames first.
    pub(crate) fn resize(&mut self, target: usize) {
        assert!(target > 0, "pipeline needs at least one node");
        let current = self.width;
        if target == current {
            return;
        }
        self.drain(None);
        let fence_start = self.makespan_ns;
        let mut fence_end = fence_start;
        let mut migrated_total = 0usize;
        let mut out: NodeOutput<R, S, llhj_core::result::ResultTuple<R, S>> = NodeOutput::new();

        if target < current {
            // The neighbour chain resolves serially, rightmost first: each
            // retiree merges what its right neighbour handed down, then
            // hands the union left; each hop is one segment frame (frame
            // reception + one message per tuple, plus any install-time
            // matching work, charged to the receiver) followed by an ack
            // frame back.
            let mut carried: WindowSegment<R, S> = WindowSegment::empty();
            for k in (target - 1..current).rev() {
                if k + 1 < current {
                    // Node k receives the segment handed down by node k+1.
                    let tuples = carried.len();
                    migrated_total = migrated_total.max(tuples);
                    out.clear();
                    self.nodes[k]
                        .import_segment(std::mem::take(&mut carried), Direction::Right, &mut out)
                        .expect("elastic simulation requires migration-capable nodes");
                    self.charge_handoff(k, Some(k + 1), tuples, &mut out, &mut fence_end);
                }
                if k >= target {
                    carried = self.nodes[k]
                        .export_segment()
                        .expect("elastic simulation requires migration-capable nodes");
                }
            }
            self.nodes.truncate(target);
        } else {
            // Mirror of the runtime's both-end grow: stream-monotone node
            // types (HSJ) put the ceiling half of the extension at the
            // left end so leftward-only S state can reach fresh nodes;
            // free node types grow at the right end only.  `busy_until` /
            // `busy_ns` are positional, so left insertions splice in
            // zeroed slots at the front (per-position busy attribution is
            // approximate across a both-end grow, totals stay exact).
            let delta = target - current;
            let left_delta = if self.nodes[0].migration_constraint() == MigrationConstraint::free()
            {
                0
            } else {
                delta.div_ceil(2)
            };
            for k in 0..left_delta {
                self.nodes.insert(k, (self.factory)(k, target));
                self.busy_until.insert(k, fence_end);
                self.busy_ns.insert(k, 0);
            }
            for i in 0..(delta - left_delta) {
                let k = left_delta + current + i;
                self.nodes.push((self.factory)(k, target));
                if self.busy_until.len() <= k {
                    self.busy_until.push(fence_end);
                    self.busy_ns.push(0);
                }
            }
        }

        for (k, node) in self.nodes.iter_mut().enumerate() {
            node.set_position(k, target)
                .expect("elastic simulation requires migration-capable nodes");
        }
        self.width = target;
        self.injector = Injector::new(self.predicate.clone(), self.policy.clone(), target);

        // Chain-wide redistribution: the same balanced plan the runtime
        // computes from its worker census, executed on the same node
        // state, so the two substrates land every tuple on the same node.
        // Each hop charges one segment frame (reception + per-tuple
        // message cost + install-time matching, to the receiver), one ack
        // frame (to the shedder) and two hop latencies — per_frame_ns /
        // per_message_ns × hop count, serialised like the runtime's
        // one-transfer-at-a-time control plane.
        let mut rebalanced = 0usize;
        if self.config.rebalance_on_resize && target > 1 {
            rebalanced = self.rebalance_fenced(&mut fence_end);
        }
        let residence_after: Vec<(usize, usize)> =
            self.nodes.iter().map(|n| n.window_census()).collect();

        for k in 0..target {
            self.busy_until[k] = self.busy_until[k].max(fence_end);
        }
        self.makespan_ns = self.makespan_ns.max(fence_end);
        self.resize_log.push(SimResizeEvent {
            at_ns: fence_start,
            from_nodes: current,
            to_nodes: target,
            migrated_tuples: migrated_total,
            rebalanced_tuples: rebalanced,
            residence_after,
            fence_ns: fence_end - fence_start,
        });
    }

    /// Charges one migrated segment of `tuples` tuples installed at node
    /// `to`: a hop plus frame reception with per-tuple message cost and
    /// the installation's matching work (`out`, whose results are
    /// recorded), then an ack frame and a hop back to the shedding node
    /// `ack_to` (`None`: another chain).  The runtime serialises its
    /// segment/ack protocol one transfer at a time, so `fence_end`
    /// advances by every step.
    pub(crate) fn charge_handoff(
        &mut self,
        to: usize,
        ack_to: Option<usize>,
        tuples: usize,
        out: &mut NodeOutput<R, S, llhj_core::result::ResultTuple<R, S>>,
        fence_end: &mut SimNanos,
    ) {
        let cost = &self.config.cost;
        let hop = cost.hop_ns_for(self.config.pin_cores);
        let service = cost.frame_service_ns(
            tuples as u64,
            out.comparisons,
            out.results.len() as u64,
            false,
        );
        let ack = cost.frame_service_ns(1, 0, 0, false);
        *fence_end += hop + service;
        self.busy_ns[to] += service;
        self.frames_delivered += 1;
        self.messages_delivered += tuples as u64;
        self.record_results(out, *fence_end);
        *fence_end += hop + ack;
        if let Some(slot) = ack_to.and_then(|k| self.busy_ns.get_mut(k)) {
            *slot += ack;
        }
    }

    /// The chain-wide balanced redistribution, on an already-drained
    /// chain: the same census → [`RedistributionPlan`] → hop-charged
    /// segment/ack pass a resize ends with, callable on its own — the
    /// mesh runs it after a shard split or merge moved state across
    /// chains.  Advances `fence_end` by the charged virtual time and
    /// returns the window-tuple hops performed.
    pub(crate) fn rebalance_fenced(&mut self, fence_end: &mut SimNanos) -> usize {
        if self.width <= 1 {
            return 0;
        }
        let mut out: NodeOutput<R, S, llhj_core::result::ResultTuple<R, S>> = NodeOutput::new();
        let mut rebalanced = 0usize;
        let census: Vec<(usize, usize)> = self.nodes.iter().map(|n| n.window_census()).collect();
        let plan = RedistributionPlan::balanced(&census, self.nodes[0].migration_constraint());
        for transfer in plan.transfers() {
            let direction = transfer.direction();
            let (range_r, range_s) = shed_ranges(
                self.nodes[transfer.from].window_census(),
                transfer.r,
                transfer.s,
                direction,
            );
            let segment = self.nodes[transfer.from]
                .export_segment_range(range_r, range_s)
                .expect("elastic simulation requires migration-capable nodes");
            let tuples = segment.len();
            out.clear();
            self.nodes[transfer.to]
                .import_segment(segment, direction.opposite(), &mut out)
                .expect("elastic simulation requires migration-capable nodes");
            self.charge_handoff(
                transfer.to,
                Some(transfer.from),
                tuples,
                &mut out,
                fence_end,
            );
            rebalanced += tuples;
        }
        rebalanced
    }

    /// Captures a checkpoint of an already-drained chain: each node's
    /// window segment is exported, cloned into the checkpoint and silently
    /// reinstalled, and the serialise-and-write cost
    /// ([`crate::cost::CostModel::checkpoint_ns`]) is charged to the node,
    /// serially extending the fence exactly like a migration pass — the
    /// virtual-time mirror of the runtime's fenced `capture_checkpoint` +
    /// store write.
    pub(crate) fn capture_checkpoint(
        &mut self,
        after_events: usize,
    ) -> (SimCheckpoint<R, S>, SimCheckpointEvent) {
        let fence_start = self.makespan_ns;
        let mut fence_end = fence_start;
        let mut segments = Vec::with_capacity(self.width);
        let mut tuples = 0usize;
        for k in 0..self.width {
            let segment = self.nodes[k]
                .export_segment()
                .expect("checkpointing requires migration-capable nodes");
            fence_end += self.config.cost.checkpoint_ns(segment.len() as u64);
            self.busy_ns[k] += self.config.cost.checkpoint_ns(segment.len() as u64);
            tuples += segment.len();
            self.nodes[k]
                .install_segment_silent(segment.clone())
                .expect("checkpointing requires migration-capable nodes");
            segments.push(segment);
        }
        for k in 0..self.width {
            self.busy_until[k] = self.busy_until[k].max(fence_end);
        }
        self.makespan_ns = fence_end;
        (
            SimCheckpoint {
                after_events,
                width: self.width,
                segments,
                hwm_r: self.hwm.r(),
                hwm_s: self.hwm.s(),
            },
            SimCheckpointEvent {
                after_events,
                at_ns: fence_start,
                tuples,
                cost_ns: fence_end - fence_start,
            },
        )
    }

    /// Installs a checkpoint into a fresh chain (of the checkpoint's
    /// width), charging the read-and-install cost per node plus one hop —
    /// recovery as fence + install.
    pub(crate) fn restore_checkpoint(&mut self, ckpt: &SimCheckpoint<R, S>) {
        assert_eq!(
            ckpt.width, self.width,
            "a checkpoint restores only into a chain of its own width"
        );
        let hop = self.config.cost.hop_ns_for(self.config.pin_cores);
        let mut fence_end = self.makespan_ns;
        for (k, segment) in ckpt.segments.iter().enumerate() {
            let cost = self.config.cost.checkpoint_ns(segment.len() as u64);
            fence_end += hop + cost;
            self.busy_ns[k] += cost;
            self.nodes[k]
                .install_segment_silent(segment.clone())
                .expect("recovery requires migration-capable nodes");
        }
        self.hwm.observe_r(ckpt.hwm_r);
        self.hwm.observe_s(ckpt.hwm_s);
        for k in 0..self.width {
            self.busy_until[k] = self.busy_until[k].max(fence_end);
        }
        self.makespan_ns = fence_end;
    }

    /// Finalizes the chain into the standard elastic report.
    pub(crate) fn into_report(self, schedule: &DriverSchedule<R, S>) -> ElasticSimReport<R, S> {
        let nodes_final = self.width;
        ElasticSimReport {
            report: SimReport {
                algorithm: self.config.algorithm,
                nodes: nodes_final,
                results: self.results,
                output: self.output,
                latency: self.latency,
                latency_series: self.series.finish(),
                counters: self.nodes.iter().map(|n| n.node_counters()).collect(),
                busy_ns: self.busy_ns,
                last_injection_ns: self.last_injection_ns,
                makespan_ns: self.makespan_ns,
                punctuation_count: self.punctuation_count,
                arrivals_per_stream: (schedule.r_count(), schedule.s_count()),
                frames_delivered: self.frames_delivered,
                messages_delivered: self.messages_delivered,
            },
            resize_log: self.resize_log,
        }
    }
}
/// How resizes are decided during an elastic replay.
///
/// `Plan` is a pre-computed list of `(after_events, target_nodes)` steps;
/// `Auto` is the deterministic mirror of the runtime's auto-scale
/// controller, sampling at stream-time boundaries.  Both steer the *same*
/// driver loop ([`run_elastic_driver`]) — the sim-side twin of the
/// runtime's shared `exec` machinery, so the two replay paths cannot
/// drift either.
enum Steering<'a> {
    Plan(std::iter::Peekable<std::vec::IntoIter<(usize, usize)>>),
    Auto {
        policy: &'a AutoscalePolicy,
        interval: TimeDelta,
        state: PolicyState,
        ewma: LatencyEwma,
        /// How many of `sim.results` have been folded into the EWMA.
        ewma_fed: usize,
        next_sample_at: Timestamp,
        prev_arrivals: usize,
        prev_busy: Vec<SimNanos>,
        report: AutoscaleReport,
    },
}

/// Builds the configured algorithm's node constructor — shared by the
/// single-chain elastic driver and the shard-mesh mirror so every chain
/// in a run is built identically.
pub(crate) fn node_factory<R, S, P>(
    config: &SimConfig,
    predicate: P,
) -> impl Fn(usize, usize) -> Box<dyn PipelineNode<R, S>>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
{
    let config = config.clone();
    move |k: usize, n: usize| -> Box<dyn PipelineNode<R, S>> {
        match config.algorithm {
            Algorithm::Llhj => {
                Box::new(llhj_core::node_llhj::LlhjNode::new(k, n, predicate.clone()))
            }
            Algorithm::LlhjIndexed => Box::new(llhj_core::node_llhj::LlhjNode::with_index(
                k,
                n,
                predicate.clone(),
            )),
            // Elastic since the capacity renegotiation refactor: the
            // flow policy renegotiates on renumbering and migrated
            // segments install with matching (stream-monotone
            // redistribution).
            Algorithm::Hsj => Box::new(llhj_core::node_hsj::HsjNode::new(
                k,
                n,
                config.hsj_flow(),
                predicate.clone(),
            )),
        }
    }
}

/// The one driver loop of a simulated chain: replays the schedule
/// through the chain's entry batcher, letting `steering` fence-and-resize
/// the chain between events.  [`crate::engine::run_simulation`],
/// [`run_elastic_simulation`] and [`run_autoscaled_simulation`] all wrap
/// it.
fn run_elastic_driver<R, S, P, H>(
    config: &SimConfig,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
    steering: &mut Steering<'_>,
) -> ElasticSimReport<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let mut sim = ElasticSim::new(config, config.nodes, predicate, policy);
    let mut last_at = Timestamp::ZERO;
    // Entry frames assembled for the old chain enter it before the fence:
    // their homes were assigned under the old width.
    let fence_and_resize = |sim: &mut ElasticSim<R, S, P, H>, target: usize, at_ns: SimNanos| {
        sim.flush(at_ns);
        sim.resize(target);
    };

    for (idx, event) in schedule.events().into_iter().enumerate() {
        match steering {
            Steering::Plan(steps) => {
                while let Some((_, target)) = steps.next_if(|&(after, _)| after <= idx) {
                    fence_and_resize(&mut sim, target, ts_to_ns(last_at));
                }
            }
            Steering::Auto {
                policy: autoscale,
                interval,
                state,
                ewma,
                ewma_fed,
                next_sample_at,
                prev_arrivals,
                prev_busy,
                report,
            } => {
                // Controller tick(s): every sample boundary at or before
                // this event, in order.  (Several boundaries can pass at
                // once across a silent gap — each gets its own zero-rate
                // sample, mirroring the runtime controller ticking through
                // the gap on the wall clock.)
                while *next_sample_at <= event.at {
                    let boundary = *next_sample_at;
                    // Materialise everything scheduled up to the boundary
                    // so the latency signal reflects the results that
                    // exist by now.
                    sim.drain(Some(ts_to_ns(boundary)));
                    while *ewma_fed < sim.results.len() {
                        ewma.observe(sim.results[*ewma_fed].latency());
                        *ewma_fed += 1;
                    }
                    let arrivals = sim.arrivals();
                    let rate = (arrivals - *prev_arrivals) as f64 / 2.0 / interval.as_secs_f64();
                    let nodes = sim.width;
                    let interval_ns = (interval.as_micros().max(1) * 1_000) as f64;
                    let busy_fraction = (0..nodes)
                        .map(|k| {
                            let current = sim.busy_ns.get(k).copied().unwrap_or(0);
                            let prev = prev_busy.get(k).copied().unwrap_or(0);
                            ((current.saturating_sub(prev)) as f64 / interval_ns).min(1.0)
                        })
                        .collect::<Vec<_>>();
                    let sample = MetricsSample {
                        at: boundary,
                        nodes,
                        arrival_rate_per_sec: rate,
                        latency_ewma: ewma.value(),
                        entry_occupancy: (0, 0),
                        busy_fraction,
                    };
                    let decision = autoscale.decide(state, &sample);
                    if let Some(target) = decision.target() {
                        if target != sim.width {
                            report.decisions.push(ResizeDecision {
                                at: boundary,
                                from_nodes: sim.width,
                                to_nodes: target,
                            });
                            fence_and_resize(&mut sim, target, ts_to_ns(last_at.max(boundary)));
                        }
                    }
                    report.samples.push(sample);
                    *prev_arrivals = arrivals;
                    *prev_busy = sim.busy_ns.clone();
                    *next_sample_at = next_sample_at.saturating_add(*interval);
                }
            }
        }

        last_at = event.at;
        let at_ns = ts_to_ns(event.at);
        sim.inject(&event, at_ns);
        // A stream's last arrival leaves at once: a real driver stops
        // waiting for more tuples once the stream ends, and holding the
        // tail back would charge it the delay of the trailing expiry
        // events instead of the batching delay.
        match event.event {
            StreamEvent::ArrivalR(_) if sim.left.injected == schedule.r_count() => {
                sim.flush_left(at_ns)
            }
            StreamEvent::ArrivalS(_) if sim.right.injected == schedule.s_count() => {
                sim.flush_right(at_ns)
            }
            _ => {}
        }
    }
    sim.flush(ts_to_ns(last_at));
    sim.drain(None);
    // Trailing plan steps (a resize on the very last event) still run.
    if let Steering::Plan(steps) = steering {
        for (_, target) in steps.by_ref() {
            sim.resize(target);
        }
    }
    if config.punctuate {
        sim.collect();
    }

    sim.into_report(schedule)
}

/// Runs an elastic simulation: replays `schedule` through a pipeline that
/// starts at `config.nodes` nodes and resizes at the given plan steps.
///
/// `plan` is a list of `(after_events, target_nodes)` pairs: after that
/// many schedule events have been injected, the pipeline is fenced,
/// migrated and resized — the virtual-time mirror of
/// `llhj-runtime`'s `run_elastic_pipeline`.  Only the LLHJ algorithms
/// support migration.
pub fn run_elastic_simulation<R, S, P, H>(
    config: &SimConfig,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
    plan: &[(usize, usize)],
) -> ElasticSimReport<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let mut plan: Vec<(usize, usize)> = plan.to_vec();
    plan.sort_by_key(|(after, _)| *after);
    let mut steering = Steering::Plan(plan.into_iter().peekable());
    run_elastic_driver(config, predicate, policy, schedule, &mut steering)
}

/// Runs an elastic simulation with the **auto-scale mirror** engaged: the
/// same [`AutoscalePolicy`] the threaded runtime's controller thread runs
/// (`llhj-runtime::autoscale`), evaluated at deterministic stream-time
/// sample boundaries instead of wall-clock ticks.
///
/// At every multiple of `sample_interval` the mirror materialises the
/// results scheduled up to the boundary (a bounded heap drain), builds a
/// [`MetricsSample`] from its virtual-time counters — per-stream arrival
/// rate over the window, result-latency EWMA (the shared
/// [`DEFAULT_LATENCY_ALPHA`] matches the runtime bus), per-node busy
/// fraction; channel occupancy is zero, the simulator has no queues —
/// and feeds it to the policy.  A grow/shrink decision resizes
/// immediately through the same fenced migration as a planned resize.
///
/// Because every input to the policy is a deterministic function of the
/// schedule and the cost model, the decision sequence is reproducible,
/// which is what makes the controller unit-testable: the conformance
/// suite asserts this mirror reproduces the threaded runtime's resize
/// decision sequence on the same workload and policy.
pub fn run_autoscaled_simulation<R, S, P, H>(
    config: &SimConfig,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
    autoscale: &AutoscalePolicy,
    sample_interval: TimeDelta,
) -> (ElasticSimReport<R, S>, AutoscaleReport)
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    assert!(
        sample_interval > TimeDelta::ZERO,
        "sample_interval must be positive"
    );
    autoscale
        .validate()
        .unwrap_or_else(|err| panic!("invalid AutoscalePolicy: {err}"));
    let mut steering = Steering::Auto {
        policy: autoscale,
        interval: sample_interval,
        state: PolicyState::default(),
        ewma: LatencyEwma::new(DEFAULT_LATENCY_ALPHA),
        ewma_fed: 0,
        next_sample_at: Timestamp::ZERO.saturating_add(sample_interval),
        prev_arrivals: 0,
        prev_busy: Vec::new(),
        report: AutoscaleReport::default(),
    };
    let sim_report = run_elastic_driver(config, predicate, policy, schedule, &mut steering);
    let Steering::Auto { report, .. } = steering else {
        unreachable!("steering mode is fixed at construction")
    };
    (sim_report, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{eq_pred, small_schedule};
    use llhj_baselines::run_kang;
    use llhj_core::homing::RoundRobin;
    use llhj_core::window::WindowSpec;

    fn config(nodes: usize) -> SimConfig {
        let mut cfg = SimConfig::new(nodes, Algorithm::Llhj);
        cfg.batch_size = 4;
        cfg.window_r = WindowSpec::time_secs(1);
        cfg.window_s = WindowSpec::time_secs(1);
        cfg.latency_bucket = 1_000_000;
        cfg
    }

    #[test]
    fn simulated_grow_and_shrink_preserve_the_result_set() {
        let schedule = small_schedule();
        let oracle = run_kang(eq_pred(), &schedule);
        let events = schedule.events().len();
        // Grow 2 -> 4 mid-run.
        let grown = run_elastic_simulation(
            &config(2),
            eq_pred(),
            RoundRobin,
            &schedule,
            &[(events / 2, 4)],
        );
        assert_eq!(grown.result_keys(), oracle.result_keys());
        assert_eq!(grown.report.nodes, 4);
        assert_eq!(grown.resize_log.len(), 1);
        assert_eq!(grown.resize_log[0].migrated_tuples, 0);
        // Shrink 4 -> 2 mid-run migrates resident tuples.
        let shrunk = run_elastic_simulation(
            &config(4),
            eq_pred(),
            RoundRobin,
            &schedule,
            &[(events / 2, 2)],
        );
        assert_eq!(shrunk.result_keys(), oracle.result_keys());
        assert_eq!(shrunk.report.nodes, 2);
        assert!(shrunk.resize_log[0].migrated_tuples > 0);
        assert!(shrunk.resize_log[0].fence_ns > 0);
    }

    /// Every resize ends with the chain-wide redistribution: right after
    /// a mid-run grow the stored windows are spread to the balanced
    /// targets; with the knob off, the grown nodes start cold and the old
    /// nodes keep the whole window.
    #[test]
    fn grow_rebalances_residence_unless_disabled() {
        let schedule = small_schedule();
        let events = schedule.events().len();
        let run = |rebalance: bool| {
            let mut cfg = config(2);
            cfg.rebalance_on_resize = rebalance;
            run_elastic_simulation(&cfg, eq_pred(), RoundRobin, &schedule, &[(events / 2, 4)])
        };
        let balanced = run(true);
        let resize = &balanced.resize_log[0];
        assert!(resize.rebalanced_tuples > 0);
        let totals: Vec<usize> = resize
            .residence_after
            .iter()
            .map(|&(wr, ws)| wr + ws)
            .collect();
        assert_eq!(totals.len(), 4);
        let (min, max) = (*totals.iter().min().unwrap(), *totals.iter().max().unwrap());
        assert!(
            max - min <= 2,
            "post-grow residence must hit the balanced targets, got {totals:?}"
        );

        let cold = run(false);
        let resize = &cold.resize_log[0];
        assert_eq!(resize.rebalanced_tuples, 0);
        assert_eq!(
            resize.residence_after[2],
            (0, 0),
            "without the redistribution, grown nodes start cold"
        );
        // The result set is exact either way — the rebalance buys
        // placement, never correctness.
        assert_eq!(balanced.result_keys(), cold.result_keys());
    }

    /// The original handshake join is elastic in the simulator too:
    /// seeded grow and shrink preserve byte-identical oracle equality
    /// (migrated segments install with matching, the flow model
    /// renegotiates on renumbering).
    #[test]
    fn elastic_hsj_matches_the_oracle_across_resizes() {
        // The HSJ flushed-schedule discipline: one window length of
        // never-matching tail traffic keeps the stream flowing so every
        // real pair physically meets before the input ends.
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
        let schedule =
            DriverSchedule::build(r, s, WindowSpec::time_secs(1), WindowSpec::time_secs(1));
        let oracle = run_kang(eq_pred(), &schedule);
        let events = schedule.events().len();
        let mut cfg = SimConfig::new(2, Algorithm::Hsj);
        cfg.batch_size = 1;
        cfg.window_r = WindowSpec::time_secs(1);
        cfg.window_s = WindowSpec::time_secs(1);
        cfg.latency_bucket = 1_000_000;
        let report = run_elastic_simulation(
            &cfg,
            eq_pred(),
            RoundRobin,
            &schedule,
            &[(events / 3, 4), (2 * events / 3, 2)],
        );
        assert_eq!(
            report.result_keys(),
            oracle.result_keys(),
            "elastic HSJ must stay byte-identical to the oracle"
        );
        assert_eq!(report.resize_log.len(), 2);
        // The monotone constraint still lets the R side spread right on
        // the grow.
        let grow = &report.resize_log[0];
        assert!(
            grow.residence_after.iter().skip(2).any(|&(wr, _)| wr > 0),
            "grown nodes must receive R state: {:?}",
            grow.residence_after
        );
    }

    #[test]
    fn migration_cost_scales_with_the_migrated_state() {
        // A larger window migrates more tuples, so the fence must take
        // longer in virtual time.
        let mk = |window_ms: u64| {
            let r: Vec<_> = (0..300u64)
                .map(|i| (Timestamp::from_millis(i), (i % 20) as u32))
                .collect();
            let s: Vec<_> = (0..300u64)
                .map(|i| (Timestamp::from_millis(i), (i % 25) as u32))
                .collect();
            let w = WindowSpec::Time(llhj_core::time::TimeDelta::from_millis(window_ms));
            DriverSchedule::build(r, s, w, w)
        };
        let fence_of = |window_ms: u64| {
            let mut cfg = config(4);
            cfg.window_r = WindowSpec::Time(llhj_core::time::TimeDelta::from_millis(window_ms));
            cfg.window_s = cfg.window_r;
            let sched = mk(window_ms);
            let events = sched.events().len();
            let report =
                run_elastic_simulation(&cfg, eq_pred(), RoundRobin, &sched, &[(events / 2, 2)]);
            (
                report.resize_log[0].migrated_tuples,
                report.resize_log[0].fence_ns,
            )
        };
        let (small_tuples, small_fence) = fence_of(50);
        let (large_tuples, large_fence) = fence_of(250);
        assert!(large_tuples > small_tuples);
        assert!(
            large_fence > small_fence,
            "more migrated state must cost a longer fence: \
             {small_fence} ns vs {large_fence} ns"
        );
    }

    /// A hand-built burst: 200/s per stream, 5x for the middle second.
    fn bursty_schedule() -> DriverSchedule<u32, u32> {
        let mut ts = Vec::new();
        let mut t_us: u64 = 0;
        while t_us < 3_000_000 {
            ts.push(Timestamp::from_micros(t_us));
            t_us += if (1_000_000..2_000_000).contains(&t_us) {
                1_000 // 1000/s inside the burst
            } else {
                5_000 // 200/s outside
            };
        }
        let r: Vec<_> = ts.iter().map(|&t| (t, 7u32)).collect();
        let s: Vec<_> = ts.iter().map(|&t| (t, 7u32)).collect();
        let w = WindowSpec::Time(llhj_core::time::TimeDelta::from_millis(20));
        DriverSchedule::build(r, s, w, w)
    }

    fn burst_policy() -> AutoscalePolicy {
        AutoscalePolicy {
            target_p99: llhj_core::time::TimeDelta::from_secs(1),
            high_watermark: 300.0,
            low_watermark: 60.0,
            cooldown: llhj_core::time::TimeDelta::from_millis(200),
            min_nodes: 2,
            max_nodes: 6,
            step: 2,
            ..AutoscalePolicy::default()
        }
    }

    /// The deterministic mirror of the runtime controller: a burst grows
    /// the chain once, the post-burst lull shrinks it back, the result
    /// set stays byte-identical to the oracle, and re-running reproduces
    /// the identical decision sequence (the property the cross-substrate
    /// conformance suite builds on).
    #[test]
    fn autoscaled_sim_tracks_the_burst_and_stays_exact() {
        let schedule = bursty_schedule();
        let oracle = run_kang(eq_pred(), &schedule);
        let run = || {
            run_autoscaled_simulation(
                &config(2),
                eq_pred(),
                RoundRobin,
                &schedule,
                &burst_policy(),
                llhj_core::time::TimeDelta::from_millis(100),
            )
        };
        let (report, autoscale) = run();
        assert_eq!(report.result_keys(), oracle.result_keys());
        assert_eq!(
            autoscale.decision_sequence(),
            vec![(2, 4), (4, 2)],
            "grow once into the burst, shrink once after it; samples: {:?}",
            autoscale
                .samples
                .iter()
                .map(|s| (s.at.as_micros(), s.nodes, s.arrival_rate_per_sec as u64))
                .collect::<Vec<_>>()
        );
        assert_eq!(autoscale.peak_nodes(2), 4);
        // The resize log mirrors the decisions one-to-one.
        assert_eq!(report.resize_log.len(), 2);
        assert_eq!(report.resize_log[0].from_nodes, 2);
        assert_eq!(report.resize_log[0].to_nodes, 4);
        assert!(report.resize_log[1].migrated_tuples > 0);
        // Samples carry a meaningful latency/busy signal.
        assert!(autoscale
            .samples
            .iter()
            .any(|s| s.latency_ewma > llhj_core::time::TimeDelta::ZERO));
        assert!(autoscale
            .samples
            .iter()
            .any(|s| s.busy_fraction.iter().any(|&f| f > 0.0)));
        // Determinism: an identical re-run reproduces the sequence.
        let (_, again) = run();
        assert_eq!(again.decision_sequence(), autoscale.decision_sequence());
        assert_eq!(again.samples.len(), autoscale.samples.len());
    }

    #[test]
    fn throughput_trace_buckets_cover_the_run() {
        let schedule = small_schedule();
        let report = run_elastic_simulation(&config(2), eq_pred(), RoundRobin, &schedule, &[]);
        let trace = report.throughput_trace(10_000_000); // 10 ms buckets
        let total: f64 = trace.iter().map(|(_, rate)| rate * 0.01).sum();
        assert!((total - report.report.results.len() as f64).abs() < 1.0);
    }
}
