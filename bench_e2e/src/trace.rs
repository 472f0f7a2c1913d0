//! Outside-in tracing of one pipeline run.
//!
//! [`TracedNode`] wraps a node behind the public `PipelineNode` trait and
//! [`TracedStore`] wraps a checkpoint store behind `CheckpointStore`.  Both
//! forward every call unchanged and record a span around it; a traced run
//! therefore produces the same result pairs as an untraced one, which the
//! benchmark checks on every traced run.  Spans stay in a per-node buffer
//! (no lock on the hot path) and move into the shared [`TraceSink`] when the
//! node is dropped, i.e. when its worker exits; [`crate::layers::analyse`]
//! turns them into per-layer figures after the run.
//!
//! Times come from two clocks.  Wall spans are nanoseconds since the sink's
//! epoch.  The runtime hands each node the pipeline's *stream* clock through
//! `observe_time` right before every frame; the wrapper anchors that reading
//! to the wall clock, so frame starts and ends can be compared with the
//! stream timestamps of tuples and results (result latency is measured on
//! the stream clock).

use llhj_core::checkpoint::{CheckpointError, CheckpointStore};
use llhj_core::message::{Direction, LeftToRight, NodeOutput, RightToLeft, WindowSegment};
use llhj_core::node::{ElasticError, PipelineNode};
use llhj_core::rebalance::MigrationConstraint;
use llhj_core::result::ResultTuple;
use llhj_core::stats::NodeCounters;
use llhj_core::time::Timestamp;
use llhj_core::tuple::{NodeId, Side};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared destination of every span recorded during one run.
pub struct TraceSink {
    epoch: Instant,
    nodes: Mutex<Vec<NodeTrace>>,
    puts: Mutex<Vec<PutSpan>>,
}

impl TraceSink {
    /// A fresh sink; its creation instant is the epoch of all wall spans.
    pub fn new() -> Arc<Self> {
        Arc::new(TraceSink {
            epoch: Instant::now(),
            nodes: Mutex::new(Vec::new()),
            puts: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The traces of every dropped node, in drop order.
    pub fn take_nodes(&self) -> Vec<NodeTrace> {
        std::mem::take(&mut *self.nodes.lock().expect("trace sink poisoned"))
    }

    /// Every recorded checkpoint write, in order.
    pub fn take_puts(&self) -> Vec<PutSpan> {
        std::mem::take(&mut *self.puts.lock().expect("trace sink poisoned"))
    }
}

/// One `handle_*_batch` call.
#[derive(Debug, Clone, Copy)]
pub struct FrameSpan {
    /// Position of the node when it handled the frame.
    pub node: NodeId,
    /// True if the frame came straight from the driver (left-to-right
    /// frames at the leftmost node, right-to-left frames at the rightmost).
    pub entry: bool,
    /// Stream clock handed to `observe_time` before the frame (µs).
    pub stream_start_us: u64,
    /// Wall instant of that `observe_time` call.
    pub observed_ns: u64,
    /// Wall instant the wrapped node's batch handler was entered.
    pub call_start_ns: u64,
    /// Wall instant it returned.
    pub call_end_ns: u64,
    /// Messages in the frame.
    pub msgs: u32,
    /// Tuple arrivals among them.
    pub arrivals: u32,
    /// Stream timestamp of the first arrival (µs; 0 without arrivals).
    pub first_arrival_us: u64,
    /// Stream timestamp of the last arrival (µs; 0 without arrivals).
    pub last_arrival_us: u64,
}

impl FrameSpan {
    /// Time inside the wrapped node's handler (µs).
    pub fn busy_us(&self) -> f64 {
        self.call_end_ns.saturating_sub(self.call_start_ns) as f64 / 1e3
    }

    /// Stream clock when the handler returned (µs, fractional).
    pub fn stream_end_us(&self) -> f64 {
        self.stream_start_us as f64 + self.call_end_ns.saturating_sub(self.observed_ns) as f64 / 1e3
    }
}

/// One tuple arrival seen inside a frame.
#[derive(Debug, Clone, Copy)]
pub struct Visit {
    /// The arrival's stream.
    pub side: Side,
    /// Its sequence number.
    pub seq: u64,
    /// Index of the frame in the same [`NodeTrace::frames`].
    pub frame: u32,
}

/// Which state-migration entry point a [`SegmentSpan`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOp {
    /// `export_segment` (retirement or checkpoint capture).
    Export,
    /// `export_segment_range` (redistribution).
    ExportRange,
    /// `import_segment` (retirement or redistribution).
    Import,
    /// `install_segment_silent` (checkpoint reinstall).
    InstallSilent,
}

/// One call into a state-migration entry point.
#[derive(Debug, Clone, Copy)]
pub struct SegmentSpan {
    /// The entry point.
    pub op: SegmentOp,
    /// True for the export and reinstall of a checkpoint capture: an
    /// `export_segment` that the same node follows with
    /// `install_segment_silent`.
    pub capture: bool,
    /// Wall start (ns since the sink epoch).
    pub start_ns: u64,
    /// Wall duration (ns).
    pub dur_ns: u64,
}

/// Everything one node recorded over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    /// Wall instant the wrapper was built.
    pub created_ns: u64,
    /// Wall instant the wrapper was dropped.
    pub dropped_ns: u64,
    /// Every batch-handler call, in order.
    pub frames: Vec<FrameSpan>,
    /// Every arrival inside those frames.
    pub visits: Vec<Visit>,
    /// Every state-migration call.
    pub segments: Vec<SegmentSpan>,
}

/// Arrival bookkeeping of one frame.
#[derive(Default)]
struct Arrivals {
    count: u32,
    first_us: u64,
    last_us: u64,
}

impl Arrivals {
    fn note(&mut self, ts: Timestamp) {
        if self.count == 0 {
            self.first_us = ts.as_micros();
        }
        self.last_us = ts.as_micros();
        self.count += 1;
    }
}

/// A `PipelineNode` that forwards every method to `inner` and records a
/// span around each batch handler and state-migration call.
pub struct TracedNode<R, S> {
    inner: Box<dyn PipelineNode<R, S>>,
    width: usize,
    sink: Arc<TraceSink>,
    stream_now: Timestamp,
    observed: Instant,
    trace: NodeTrace,
}

impl<R, S> TracedNode<R, S> {
    /// Wraps `inner`, one node of a chain of `width` nodes.
    pub fn new(inner: Box<dyn PipelineNode<R, S>>, width: usize, sink: Arc<TraceSink>) -> Self {
        let now = Instant::now();
        let trace = NodeTrace {
            created_ns: sink.ns(now),
            ..NodeTrace::default()
        };
        TracedNode {
            inner,
            width,
            sink,
            stream_now: Timestamp::ZERO,
            observed: now,
            trace,
        }
    }

    fn record_frame(
        &mut self,
        entry: bool,
        msgs: usize,
        arrivals: Arrivals,
        call: (Instant, Instant),
    ) {
        self.trace.frames.push(FrameSpan {
            node: self.inner.node_id(),
            entry,
            stream_start_us: self.stream_now.as_micros(),
            observed_ns: self.sink.ns(self.observed),
            call_start_ns: self.sink.ns(call.0),
            call_end_ns: self.sink.ns(call.1),
            msgs: msgs as u32,
            arrivals: arrivals.count,
            first_arrival_us: arrivals.first_us,
            last_arrival_us: arrivals.last_us,
        });
    }

    fn record_segment(&mut self, op: SegmentOp, started: Instant) {
        let start_ns = self.sink.ns(started);
        let dur_ns = started.elapsed().as_nanos() as u64;
        if op == SegmentOp::InstallSilent {
            if let Some(export) = self
                .trace
                .segments
                .iter_mut()
                .rev()
                .find(|s| s.op == SegmentOp::Export)
            {
                export.capture = true;
            }
        }
        self.trace.segments.push(SegmentSpan {
            op,
            capture: op == SegmentOp::InstallSilent,
            start_ns,
            dur_ns,
        });
    }
}

impl<R, S> Drop for TracedNode<R, S> {
    fn drop(&mut self) {
        let mut trace = std::mem::take(&mut self.trace);
        trace.dropped_ns = self.sink.ns(Instant::now());
        // A poisoned sink means another thread already panicked; losing
        // this node's spans is then the least of the run's problems.
        if let Ok(mut nodes) = self.sink.nodes.lock() {
            nodes.push(trace);
        }
    }
}

impl<R, S> PipelineNode<R, S> for TracedNode<R, S> {
    fn handle_left(&mut self, msg: LeftToRight<R>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        self.inner.handle_left(msg, out);
    }

    fn handle_right(&mut self, msg: RightToLeft<S>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        self.inner.handle_right(msg, out);
    }

    fn handle_left_batch(
        &mut self,
        msgs: &mut Vec<LeftToRight<R>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        let frame = self.trace.frames.len() as u32;
        let mut arrivals = Arrivals::default();
        for msg in msgs.iter() {
            if let LeftToRight::ArrivalR(t) = msg {
                arrivals.note(t.tuple.ts);
                self.trace.visits.push(Visit {
                    side: Side::R,
                    seq: t.tuple.seq.0,
                    frame,
                });
            }
        }
        let len = msgs.len();
        let entry = self.inner.node_id() == 0;
        let start = Instant::now();
        self.inner.handle_left_batch(msgs, out);
        let end = Instant::now();
        self.record_frame(entry, len, arrivals, (start, end));
    }

    fn handle_right_batch(
        &mut self,
        msgs: &mut Vec<RightToLeft<S>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        let frame = self.trace.frames.len() as u32;
        let mut arrivals = Arrivals::default();
        for msg in msgs.iter() {
            if let RightToLeft::ArrivalS(t) = msg {
                arrivals.note(t.tuple.ts);
                self.trace.visits.push(Visit {
                    side: Side::S,
                    seq: t.tuple.seq.0,
                    frame,
                });
            }
        }
        let len = msgs.len();
        let entry = self.inner.node_id() + 1 == self.width;
        let start = Instant::now();
        self.inner.handle_right_batch(msgs, out);
        let end = Instant::now();
        self.record_frame(entry, len, arrivals, (start, end));
    }

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn node_counters(&self) -> NodeCounters {
        self.inner.node_counters()
    }

    fn resident_tuples(&self) -> usize {
        self.inner.resident_tuples()
    }

    fn observe_time(&mut self, now: Timestamp) {
        self.stream_now = now;
        self.observed = Instant::now();
        self.inner.observe_time(now);
    }

    fn supports_migration(&self) -> bool {
        self.inner.supports_migration()
    }

    fn migration_constraint(&self) -> MigrationConstraint {
        self.inner.migration_constraint()
    }

    fn window_census(&self) -> (usize, usize) {
        self.inner.window_census()
    }

    fn export_segment(&mut self) -> Result<WindowSegment<R, S>, ElasticError> {
        let start = Instant::now();
        let segment = self.inner.export_segment();
        self.record_segment(SegmentOp::Export, start);
        segment
    }

    fn export_segment_range(
        &mut self,
        r: std::ops::Range<usize>,
        s: std::ops::Range<usize>,
    ) -> Result<WindowSegment<R, S>, ElasticError> {
        let start = Instant::now();
        let segment = self.inner.export_segment_range(r, s);
        self.record_segment(SegmentOp::ExportRange, start);
        segment
    }

    fn import_segment(
        &mut self,
        segment: WindowSegment<R, S>,
        from: Direction,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) -> Result<(), ElasticError> {
        let start = Instant::now();
        let done = self.inner.import_segment(segment, from, out);
        self.record_segment(SegmentOp::Import, start);
        done
    }

    fn install_segment_silent(&mut self, segment: WindowSegment<R, S>) -> Result<(), ElasticError> {
        let start = Instant::now();
        let done = self.inner.install_segment_silent(segment);
        self.record_segment(SegmentOp::InstallSilent, start);
        done
    }

    fn set_position(&mut self, id: NodeId, nodes: usize) -> Result<(), ElasticError> {
        let done = self.inner.set_position(id, nodes);
        if done.is_ok() {
            self.width = nodes;
        }
        done
    }
}

/// One `CheckpointStore::put`.
#[derive(Debug, Clone, Copy)]
pub struct PutSpan {
    /// Wall start (ns since the sink epoch).
    pub start_ns: u64,
    /// Wall duration (ns).
    pub dur_ns: u64,
    /// Blob size.
    pub bytes: usize,
}

/// A `CheckpointStore` that forwards to `inner` and times every `put`.
pub struct TracedStore {
    inner: Arc<dyn CheckpointStore>,
    sink: Arc<TraceSink>,
}

impl TracedStore {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: Arc<dyn CheckpointStore>, sink: Arc<TraceSink>) -> Self {
        TracedStore { inner, sink }
    }
}

impl CheckpointStore for TracedStore {
    fn put(&self, shard: usize, seq: u64, blob: &[u8]) -> Result<(), CheckpointError> {
        let start = Instant::now();
        let done = self.inner.put(shard, seq, blob);
        let span = PutSpan {
            start_ns: self.sink.ns(start),
            dur_ns: start.elapsed().as_nanos() as u64,
            bytes: blob.len(),
        };
        self.sink
            .puts
            .lock()
            .expect("trace sink poisoned")
            .push(span);
        done
    }

    fn get(&self, shard: usize, seq: u64) -> Result<Vec<u8>, CheckpointError> {
        self.inner.get(shard, seq)
    }

    fn seqs(&self, shard: usize) -> Result<Vec<u64>, CheckpointError> {
        self.inner.seqs(shard)
    }

    fn latest_seq(&self, shard: usize) -> Result<Option<u64>, CheckpointError> {
        self.inner.latest_seq(shard)
    }
}
