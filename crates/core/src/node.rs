//! A common interface over the two join-node implementations.
//!
//! The threaded runtime and the discrete-event simulator drive pipelines of
//! either [`crate::node_llhj::LlhjNode`] (the paper's contribution) or
//! [`crate::node_hsj::HsjNode`] (the baseline).  [`PipelineNode`] is the
//! small trait both substrates program against, so an experiment can switch
//! algorithms by switching the node constructor and nothing else.

use crate::message::{Direction, LeftToRight, NodeOutput, RightToLeft, WindowSegment};
use crate::rebalance::MigrationConstraint;
use crate::result::ResultTuple;
use crate::stats::NodeCounters;
use crate::tuple::NodeId;

/// Why an elastic reconfiguration request was refused.
///
/// The elastic substrates (`llhj-runtime`'s `ElasticPipeline`, `llhj-sim`'s
/// elastic engine) only drive pipelines whose nodes report
/// [`PipelineNode::supports_migration`], but the migration entry points are
/// part of the shared node trait, so a caller that skips that check gets a
/// *typed* refusal rather than a bare "unsupported" panic.  Both shipped
/// node types are elastic today (the original handshake join gained
/// capacity renegotiation and direction-aware imports); the typed error
/// remains the contract for any future node type whose algorithm pins
/// state to a fixed deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticError {
    /// The node's algorithm does not support state migration.
    MigrationUnsupported {
        /// The refusing node's pipeline position.
        node: NodeId,
        /// The refused operation (`"export_segment"`, `"import_segment"`,
        /// `"set_position"`).
        operation: &'static str,
    },
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::MigrationUnsupported { node, operation } => write!(
                f,
                "node {node}: {operation} refused — this node type does not \
                 support state migration"
            ),
        }
    }
}

impl std::error::Error for ElasticError {}

/// One processing node of a handshake-join style pipeline.
pub trait PipelineNode<R, S>: Send {
    /// Handles a message arriving from the left neighbour (or the driver,
    /// at the leftmost node).
    fn handle_left(&mut self, msg: LeftToRight<R>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>);

    /// Handles a message arriving from the right neighbour (or the driver,
    /// at the rightmost node).
    fn handle_right(&mut self, msg: RightToLeft<S>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>);

    /// Handles a whole frame of left-to-right messages, appending every
    /// emitted message and result to the same `out` buffer.  The input is
    /// **drained**, not consumed: the caller owns the frame buffer and
    /// drops it afterwards, so a message left in `msgs` would vanish
    /// unhandled.  Implementations must leave `msgs` empty (the runtime
    /// asserts it in debug builds).
    ///
    /// The default implementation loops over [`PipelineNode::handle_left`],
    /// so existing node implementations keep working unchanged; node types
    /// with a cheaper bulk path (capacity reservation, hoisted per-frame
    /// work) override it.  Semantics must be identical to the loop: the
    /// batched substrates rely on frames being pure re-groupings of the
    /// per-tuple message sequence.
    fn handle_left_batch(
        &mut self,
        msgs: &mut Vec<LeftToRight<R>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        for msg in msgs.drain(..) {
            self.handle_left(msg, out);
        }
    }

    /// Handles a whole frame of right-to-left messages; see
    /// [`PipelineNode::handle_left_batch`] (same drain contract).
    fn handle_right_batch(
        &mut self,
        msgs: &mut Vec<RightToLeft<S>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        for msg in msgs.drain(..) {
            self.handle_right(msg, out);
        }
    }

    /// This node's position in the pipeline.
    fn node_id(&self) -> NodeId;

    /// Work counters accumulated so far.
    fn node_counters(&self) -> NodeCounters;

    /// Total number of tuples currently resting in this node's local stores
    /// (used by experiments to verify window distribution and memory use).
    fn resident_tuples(&self) -> usize;

    /// Informs the node of the current stream time.  The execution
    /// substrate calls this before delivering each message; algorithms that
    /// do not need a clock (low-latency handshake join) ignore it.
    fn observe_time(&mut self, _now: crate::time::Timestamp) {}

    /// True if the node can take part in an elastic reconfiguration
    /// (export/import of window segments plus renumbering).  Defaults to
    /// `false`; the elastic substrates refuse to scale pipelines whose
    /// nodes cannot migrate, and the three migration entry points below
    /// return [`ElasticError::MigrationUnsupported`] for such nodes.
    fn supports_migration(&self) -> bool {
        false
    }

    /// The directions this node type's stored tuples may migrate in
    /// during a chain-wide redistribution.  Free for LLHJ (residence is
    /// arbitrary), stream-monotone for HSJ (R rightward only, S leftward
    /// only — see [`crate::rebalance`] for the correctness argument).
    fn migration_constraint(&self) -> MigrationConstraint {
        MigrationConstraint::free()
    }

    /// The node's current stored-window census `(|WR_k|, |WS_k|)` — the
    /// input of the redistribution planner.  Unlike
    /// [`PipelineNode::resident_tuples`] it excludes the `IWS` buffer
    /// (empty whenever a census is taken: the planner only runs fenced).
    fn window_census(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Exports the node's settled window state for migration.
    ///
    /// **Contract** (see [`crate::message::WindowSegment`]): only valid
    /// while the pipeline is fenced — no frame in flight anywhere — at
    /// which point a node holds only settled state (no expedition flags,
    /// empty `IWS`), which the implementations assert.  The caller owns
    /// the returned segment; the node is left empty and must either
    /// receive an `import_segment` or retire.  Node types without
    /// migration support return a typed [`ElasticError`] instead of
    /// panicking.
    fn export_segment(&mut self) -> Result<WindowSegment<R, S>, ElasticError> {
        Err(ElasticError::MigrationUnsupported {
            node: self.node_id(),
            operation: "export_segment",
        })
    }

    /// Exports an arbitrary *slice* of the node's settled window state:
    /// the R tuples at positions `r` and the S tuples at positions `s` of
    /// the seq-sorted windows (position 0 = oldest).  This is the
    /// split half of the redistribution protocol — a node sheds exactly
    /// the slice the plan assigns to an edge instead of its whole window.
    /// Same fencing contract as [`PipelineNode::export_segment`].
    fn export_segment_range(
        &mut self,
        _r: std::ops::Range<usize>,
        _s: std::ops::Range<usize>,
    ) -> Result<WindowSegment<R, S>, ElasticError> {
        Err(ElasticError::MigrationUnsupported {
            node: self.node_id(),
            operation: "export_segment_range",
        })
    }

    /// Installs a neighbour's migrated window segment, merging it with the
    /// local windows (sorted by sequence number, hash indexes rebuilt).
    ///
    /// `from` is the side the segment arrived on; `out` collects any
    /// results the installation produces.  LLHJ installs silently in both
    /// directions (its matching rules find a stored tuple wherever it
    /// rests), so `from`/`out` are unused there.  HSJ matches the
    /// still-unmet direction of the segment against its resident windows —
    /// incoming R from the left against `WS_k`, incoming S from the right
    /// against `WR_k` — which is exactly the set of pairs the migration
    /// hop carries past each other (see `node_hsj`).  Only valid while the
    /// pipeline is fenced; the same support rules as
    /// [`PipelineNode::export_segment`] apply.
    fn import_segment(
        &mut self,
        _segment: WindowSegment<R, S>,
        _from: Direction,
        _out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) -> Result<(), ElasticError> {
        Err(ElasticError::MigrationUnsupported {
            node: self.node_id(),
            operation: "import_segment",
        })
    }

    /// Installs a migrated window segment **silently** — merged into the
    /// local windows with no matching in either direction.
    ///
    /// This is the cross-shard variant of
    /// [`PipelineNode::import_segment`]: when a shard splits or merges,
    /// the moved tuples re-enter a chain at the *same* pipeline position
    /// they occupied in the source chain, so every pair they could meet
    /// through the hop has already been examined there (and on a
    /// fragment-replicate merge the child's S rows are broadcast copies —
    /// re-matching them would duplicate results).  Only valid while the
    /// pipeline is fenced; the same support rules as
    /// [`PipelineNode::export_segment`] apply.
    fn install_segment_silent(
        &mut self,
        _segment: WindowSegment<R, S>,
    ) -> Result<(), ElasticError> {
        Err(ElasticError::MigrationUnsupported {
            node: self.node_id(),
            operation: "install_segment_silent",
        })
    }

    /// Renumbers the node after an elastic reconfiguration.  Only valid
    /// while the pipeline is fenced; the same support rules as
    /// [`PipelineNode::export_segment`] apply.
    fn set_position(&mut self, _id: NodeId, _nodes: usize) -> Result<(), ElasticError> {
        Err(ElasticError::MigrationUnsupported {
            node: self.node_id(),
            operation: "set_position",
        })
    }
}

impl<R, S, P> PipelineNode<R, S> for crate::node_llhj::LlhjNode<R, S, P>
where
    R: Clone + Send,
    S: Clone + Send,
    P: crate::predicate::JoinPredicate<R, S> + Send,
{
    fn handle_left(&mut self, msg: LeftToRight<R>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        crate::node_llhj::LlhjNode::handle_left(self, msg, out);
    }

    fn handle_right(&mut self, msg: RightToLeft<S>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        crate::node_llhj::LlhjNode::handle_right(self, msg, out);
    }

    fn handle_left_batch(
        &mut self,
        msgs: &mut Vec<LeftToRight<R>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        crate::node_llhj::LlhjNode::handle_left_batch(self, msgs, out);
    }

    fn handle_right_batch(
        &mut self,
        msgs: &mut Vec<RightToLeft<S>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        crate::node_llhj::LlhjNode::handle_right_batch(self, msgs, out);
    }

    fn node_id(&self) -> NodeId {
        self.id()
    }

    fn node_counters(&self) -> NodeCounters {
        *self.counters()
    }

    fn resident_tuples(&self) -> usize {
        self.wr_len() + self.ws_len() + self.iws_len()
    }

    fn supports_migration(&self) -> bool {
        true
    }

    fn window_census(&self) -> (usize, usize) {
        (self.wr_len(), self.ws_len())
    }

    fn export_segment(&mut self) -> Result<WindowSegment<R, S>, ElasticError> {
        Ok(crate::node_llhj::LlhjNode::export_segment(self))
    }

    fn export_segment_range(
        &mut self,
        r: std::ops::Range<usize>,
        s: std::ops::Range<usize>,
    ) -> Result<WindowSegment<R, S>, ElasticError> {
        Ok(crate::node_llhj::LlhjNode::export_segment_range(self, r, s))
    }

    fn import_segment(
        &mut self,
        segment: WindowSegment<R, S>,
        _from: Direction,
        _out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) -> Result<(), ElasticError> {
        crate::node_llhj::LlhjNode::import_segment(self, segment);
        Ok(())
    }

    fn install_segment_silent(&mut self, segment: WindowSegment<R, S>) -> Result<(), ElasticError> {
        // LLHJ imports are already silent: its matching rules find a stored
        // tuple wherever it rests, so no install-time probe exists to skip.
        crate::node_llhj::LlhjNode::import_segment(self, segment);
        Ok(())
    }

    fn set_position(&mut self, id: NodeId, nodes: usize) -> Result<(), ElasticError> {
        crate::node_llhj::LlhjNode::set_position(self, id, nodes);
        Ok(())
    }
}

impl<R, S, P> PipelineNode<R, S> for crate::node_hsj::HsjNode<R, S, P>
where
    R: Clone + Send,
    S: Clone + Send,
    P: crate::predicate::JoinPredicate<R, S> + Send,
{
    fn handle_left(&mut self, msg: LeftToRight<R>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        crate::node_hsj::HsjNode::handle_left(self, msg, out);
    }

    fn handle_right(&mut self, msg: RightToLeft<S>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        crate::node_hsj::HsjNode::handle_right(self, msg, out);
    }

    fn handle_left_batch(
        &mut self,
        msgs: &mut Vec<LeftToRight<R>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        crate::node_hsj::HsjNode::handle_left_batch(self, msgs, out);
    }

    fn handle_right_batch(
        &mut self,
        msgs: &mut Vec<RightToLeft<S>>,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) {
        crate::node_hsj::HsjNode::handle_right_batch(self, msgs, out);
    }

    fn node_id(&self) -> NodeId {
        self.id()
    }

    fn node_counters(&self) -> NodeCounters {
        *self.counters()
    }

    fn resident_tuples(&self) -> usize {
        let (wr, ws, iws) = self.segment_sizes();
        wr + ws + iws
    }

    fn observe_time(&mut self, now: crate::time::Timestamp) {
        self.advance_clock(now);
    }

    fn supports_migration(&self) -> bool {
        true
    }

    fn migration_constraint(&self) -> MigrationConstraint {
        MigrationConstraint::monotone()
    }

    fn window_census(&self) -> (usize, usize) {
        let (wr, ws, _) = self.segment_sizes();
        (wr, ws)
    }

    fn export_segment(&mut self) -> Result<WindowSegment<R, S>, ElasticError> {
        Ok(crate::node_hsj::HsjNode::export_segment(self))
    }

    fn export_segment_range(
        &mut self,
        r: std::ops::Range<usize>,
        s: std::ops::Range<usize>,
    ) -> Result<WindowSegment<R, S>, ElasticError> {
        Ok(crate::node_hsj::HsjNode::export_segment_range(self, r, s))
    }

    fn import_segment(
        &mut self,
        segment: WindowSegment<R, S>,
        from: Direction,
        out: &mut NodeOutput<R, S, ResultTuple<R, S>>,
    ) -> Result<(), ElasticError> {
        crate::node_hsj::HsjNode::import_segment(self, segment, from, out);
        Ok(())
    }

    fn install_segment_silent(&mut self, segment: WindowSegment<R, S>) -> Result<(), ElasticError> {
        crate::node_hsj::HsjNode::install_segment_silent(self, segment);
        Ok(())
    }

    fn set_position(&mut self, id: NodeId, nodes: usize) -> Result<(), ElasticError> {
        crate::node_hsj::HsjNode::set_position(self, id, nodes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_hsj::{HsjNode, SegmentCapacity};
    use crate::node_llhj::LlhjNode;
    use crate::predicate::FnPredicate;
    use crate::time::Timestamp;
    use crate::tuple::{PipelineTuple, SeqNo, StreamTuple};

    fn probe<N: PipelineNode<u32, u32>>(node: &mut N) -> usize {
        let mut out = NodeOutput::new();
        let r = StreamTuple::new(SeqNo(0), Timestamp::from_millis(1), 3u32);
        node.handle_left(LeftToRight::ArrivalR(PipelineTuple::fresh(r, 0)), &mut out);
        let s = StreamTuple::new(SeqNo(0), Timestamp::from_millis(2), 3u32);
        node.handle_right(RightToLeft::ArrivalS(PipelineTuple::fresh(s, 0)), &mut out);
        assert_eq!(node.node_id(), 0);
        assert!(node.node_counters().arrivals >= 2);
        assert!(node.resident_tuples() >= 1);
        out.results.len()
    }

    #[test]
    fn both_node_types_work_through_the_trait() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        let mut llhj = LlhjNode::new(0, 1, pred.clone());
        let mut hsj = HsjNode::with_capacity(0, 1, SegmentCapacity { r: 16, s: 16 }, pred);
        // A single-node pipeline finds the pair immediately in both
        // algorithms.
        assert_eq!(probe(&mut llhj), 1);
        assert_eq!(probe(&mut hsj), 1);
    }

    /// Both shipped node types are elastic now; the typed refusal remains
    /// the default-contract for node types that never opt in.
    #[test]
    fn non_migratory_nodes_refuse_with_a_typed_error() {
        /// A node type that leaves every migration default untouched.
        struct Inert;
        impl PipelineNode<u32, u32> for Inert {
            fn handle_left(
                &mut self,
                _msg: LeftToRight<u32>,
                _out: &mut NodeOutput<u32, u32, ResultTuple<u32, u32>>,
            ) {
            }
            fn handle_right(
                &mut self,
                _msg: RightToLeft<u32>,
                _out: &mut NodeOutput<u32, u32, ResultTuple<u32, u32>>,
            ) {
            }
            fn node_id(&self) -> NodeId {
                2
            }
            fn node_counters(&self) -> NodeCounters {
                NodeCounters::default()
            }
            fn resident_tuples(&self) -> usize {
                0
            }
        }
        let mut inert = Inert;
        let node: &mut dyn PipelineNode<u32, u32> = &mut inert;
        let mut out = NodeOutput::new();
        assert!(!node.supports_migration());
        assert_eq!(node.window_census(), (0, 0));
        assert_eq!(node.migration_constraint(), MigrationConstraint::free());
        assert_eq!(
            node.export_segment(),
            Err(ElasticError::MigrationUnsupported {
                node: 2,
                operation: "export_segment",
            })
        );
        assert_eq!(
            node.export_segment_range(0..0, 0..0),
            Err(ElasticError::MigrationUnsupported {
                node: 2,
                operation: "export_segment_range",
            })
        );
        assert_eq!(
            node.import_segment(WindowSegment::empty(), Direction::Right, &mut out),
            Err(ElasticError::MigrationUnsupported {
                node: 2,
                operation: "import_segment",
            })
        );
        assert_eq!(
            node.set_position(0, 2),
            Err(ElasticError::MigrationUnsupported {
                node: 2,
                operation: "set_position",
            })
        );
        let err = node.export_segment().unwrap_err();
        assert!(err.to_string().contains("export_segment"));
        assert!(err.to_string().contains("node 2"));
    }

    /// The original handshake join is elastic since the capacity
    /// renegotiation refactor: it exports, imports and renumbers through
    /// the shared trait, under the stream-monotone constraint.
    #[test]
    fn hsj_is_elastic_through_the_trait() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        let mut hsj = HsjNode::with_capacity(0, 2, SegmentCapacity { r: 16, s: 16 }, pred);
        let node: &mut dyn PipelineNode<u32, u32> = &mut hsj;
        assert!(node.supports_migration());
        assert_eq!(node.migration_constraint(), MigrationConstraint::monotone());
        let mut out = NodeOutput::new();
        let r = StreamTuple::new(SeqNo(0), Timestamp::from_millis(1), 3u32);
        node.handle_left(LeftToRight::ArrivalR(PipelineTuple::fresh(r, 0)), &mut out);
        assert_eq!(node.window_census(), (1, 0));
        let segment = node.export_segment().unwrap();
        assert_eq!(segment.wr.len(), 1);
        assert_eq!(node.window_census(), (0, 0));
        node.import_segment(segment, Direction::Right, &mut out)
            .unwrap();
        assert_eq!(node.window_census(), (1, 0));
        node.set_position(1, 2).unwrap();
        assert_eq!(node.node_id(), 1);
    }

    #[test]
    fn batch_handlers_match_the_per_message_loop() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        let r_msgs: Vec<crate::message::LeftToRight<u32>> = (0..40u64)
            .map(|i| {
                crate::message::LeftToRight::ArrivalR(PipelineTuple::fresh(
                    StreamTuple::new(SeqNo(i), Timestamp::from_millis(i), (i % 7) as u32),
                    (i % 3) as usize,
                ))
            })
            .collect();
        let s_msgs: Vec<crate::message::RightToLeft<u32>> = (0..40u64)
            .map(|i| {
                crate::message::RightToLeft::ArrivalS(PipelineTuple::fresh(
                    StreamTuple::new(SeqNo(i), Timestamp::from_millis(i), (i % 5) as u32),
                    (i % 3) as usize,
                ))
            })
            .collect();

        let run = |batched: bool| {
            let mut node: Box<dyn PipelineNode<u32, u32>> =
                Box::new(LlhjNode::new(1, 3, pred.clone()));
            let mut out = NodeOutput::new();
            if batched {
                let mut r = r_msgs.clone();
                let mut s = s_msgs.clone();
                node.handle_left_batch(&mut r, &mut out);
                node.handle_right_batch(&mut s, &mut out);
                assert!(r.is_empty() && s.is_empty(), "batch handlers must drain");
            } else {
                for m in r_msgs.clone() {
                    node.handle_left(m, &mut out);
                }
                for m in s_msgs.clone() {
                    node.handle_right(m, &mut out);
                }
            }
            (
                out.to_left,
                out.to_right,
                out.results.iter().map(|t| t.key()).collect::<Vec<_>>(),
                out.comparisons,
            )
        };
        assert_eq!(run(true), run(false));
    }
}
