//! # llhj-core — Low-Latency Handshake Join, core library
//!
//! This crate implements the data model and the per-core algorithms of
//! *"Low-Latency Handshake Join"* (Roy, Teubner, Gemulla; PVLDB 7(9), 2014):
//!
//! * the **low-latency handshake join** node state machine
//!   ([`LlhjNode`]) with tuple expedition, home nodes, the
//!   acknowledgement protocol and expedition-end messages (Section 4);
//! * the **original handshake join** node state machine ([`HsjNode`]),
//!   the baseline whose latency the paper analyses (Sections 2.3 and 3);
//! * sliding **windows** and the external window **driver** that turns raw
//!   arrivals into a totally ordered schedule of arrival/expiry events;
//! * **punctuations** and high-water marks for ordered output
//!   (Sections 5 and 6) plus the punctuation-driven [`SortingOperator`];
//! * the **analytic latency model** of Section 3.1;
//! * node-local **hash indexing** for equi-join acceleration (Section 7.6);
//! * the **auto-scale control policy** ([`metrics`]) shared by the
//!   threaded runtime's controller thread and the simulator's
//!   deterministic mirror.
//!
//! The node state machines are engine agnostic: they consume messages and
//! append to [`NodeOutput`] buffers.  The `llhj-runtime` crate drives them
//! with one thread per node and crossbeam FIFO channels; the `llhj-sim`
//! crate drives them inside a deterministic discrete-event simulator used
//! to regenerate the paper's figures.
//!
//! ## Quick example
//!
//! ```
//! use llhj_core::prelude::*;
//!
//! // A two-node pipeline joining small integer streams on equality.
//! let pred = FnPredicate(|r: &u32, s: &u32| r == s);
//! let mut left = LlhjNode::new(0, 2, pred.clone());
//! let mut right = LlhjNode::new(1, 2, pred);
//! let mut out = NodeOutput::new();
//!
//! // An R tuple enters on the left, is stored on node 0 and expedited.
//! let r = StreamTuple::new(SeqNo(0), Timestamp::from_millis(1), 7u32);
//! left.handle_left(LeftToRight::ArrivalR(PipelineTuple::fresh(r, 0)), &mut out);
//! let forwarded = out.to_right.pop().unwrap();
//! right.handle_left(forwarded, &mut out);
//! // The rightmost node announces the end of the tuple's expedition; the
//! // marker travels back and clears the expedition flag at the home node.
//! let expedition_end = out.to_left.pop().unwrap();
//! left.handle_right(expedition_end, &mut out);
//!
//! // A matching S tuple enters on the right and joins against the stored copy.
//! out.clear();
//! let s = StreamTuple::new(SeqNo(0), Timestamp::from_millis(2), 7u32);
//! right.handle_right(RightToLeft::ArrivalS(PipelineTuple::fresh(s, 1)), &mut out);
//! let to_left = out.to_left.clone();
//! for msg in to_left {
//!     left.handle_right(msg, &mut out);
//! }
//! assert_eq!(out.results.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod driver;
pub mod homing;
pub mod latency_model;
pub mod message;
pub mod metrics;
pub mod node;
pub mod node_hsj;
pub mod node_llhj;
pub mod predicate;
pub mod punctuation;
pub mod rebalance;
pub mod result;
pub mod shard;
pub mod sorter;
pub mod stats;
pub mod store;
pub mod time;
pub mod tuple;
pub mod window;

pub use checkpoint::{
    encode_delta, encode_full, load_checkpoint, load_latest_checkpoint, load_latest_mesh,
    splice_recovered_stream, ByteReader, ChainCheckpoint, ChainCheckpointer, CheckpointError,
    CheckpointPayload, CheckpointStore, DirStore, MemoryStore, ReplayLog,
};
pub use driver::{DriverEvent, DriverSchedule, Injector, StreamEvent};
pub use homing::{HashKey, HomePolicy, Pinned, RoundRobin};
pub use latency_model::{
    hsj_expected_latency, hsj_latency_at_position, hsj_max_latency, hsj_warmup, LlhjLatencyModel,
};
pub use message::{
    Direction, Handoff, LeftToRight, MessageBatch, NodeOutput, RightToLeft, WindowSegment,
};
pub use metrics::{
    AutoscaleDecision, AutoscalePolicy, AutoscaleReport, LatencyEwma, MetricsSample, PolicyState,
    ResizeDecision,
};
pub use node::{ElasticError, PipelineNode};
pub use node_hsj::{FlowPolicy, HsjNode, HsjOutput, SegmentCapacity};
pub use node_llhj::{LlhjNode, LlhjOutput};
pub use predicate::{
    AlwaysFalse, AlwaysTrue, BandSpec, EquiPredicate, FnPredicate, JoinPredicate, ScalarOnly,
};
pub use punctuation::{verify_punctuated_stream, HighWaterMarks, OutputItem, Punctuation};
pub use rebalance::{EdgeTransfer, FlowConstraint, MigrationConstraint, RedistributionPlan};
pub use result::{ResultTuple, TimedResult};
pub use shard::{
    merge_punctuated_streams, mix64, MeshAutoscalePolicy, MeshDecision, MeshPlan, MeshStep, Route,
    RouteMode, ShardMap, ShardRouter,
};
pub use sorter::SortingOperator;
pub use stats::{LatencyPoint, LatencySeries, LatencySummary, NodeCounters};
pub use store::{ColumnarPayload, ColumnarWindow, IwsBuffer, KeyFn, LocalWindow, ProbeCost};
pub use time::{TimeDelta, Timestamp};
pub use tuple::{NodeId, PipelineTuple, SeqNo, Side, StreamTuple};
pub use window::WindowSpec;

/// Convenience prelude re-exporting the types needed by typical users.
pub mod prelude {
    pub use crate::checkpoint::{
        load_latest_checkpoint, load_latest_mesh, splice_recovered_stream, ChainCheckpoint,
        ChainCheckpointer, CheckpointError, CheckpointPayload, CheckpointStore, DirStore,
        MemoryStore, ReplayLog,
    };
    pub use crate::driver::{DriverEvent, DriverSchedule, Injector, StreamEvent};
    pub use crate::homing::{HashKey, HomePolicy, Pinned, RoundRobin};
    pub use crate::message::{
        Direction, Handoff, LeftToRight, MessageBatch, NodeOutput, RightToLeft, WindowSegment,
    };
    pub use crate::metrics::{
        AutoscaleDecision, AutoscalePolicy, AutoscaleReport, LatencyEwma, MetricsSample,
        PolicyState, ResizeDecision,
    };
    pub use crate::node::{ElasticError, PipelineNode};
    pub use crate::node_hsj::{FlowPolicy, HsjNode, HsjOutput, SegmentCapacity};
    pub use crate::node_llhj::{LlhjNode, LlhjOutput};
    pub use crate::predicate::{BandSpec, EquiPredicate, FnPredicate, JoinPredicate, ScalarOnly};
    pub use crate::punctuation::{HighWaterMarks, OutputItem, Punctuation};
    pub use crate::rebalance::{
        EdgeTransfer, FlowConstraint, MigrationConstraint, RedistributionPlan,
    };
    pub use crate::result::{ResultTuple, TimedResult};
    pub use crate::shard::{
        merge_punctuated_streams, MeshAutoscalePolicy, MeshDecision, MeshPlan, MeshStep, Route,
        RouteMode, ShardMap, ShardRouter,
    };
    pub use crate::sorter::SortingOperator;
    pub use crate::stats::{LatencySeries, LatencySummary, NodeCounters};
    pub use crate::time::{TimeDelta, Timestamp};
    pub use crate::tuple::{NodeId, PipelineTuple, SeqNo, Side, StreamTuple};
    pub use crate::window::WindowSpec;
}
