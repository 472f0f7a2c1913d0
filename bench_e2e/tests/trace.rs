//! The benchmark's own tests: the tracing wrappers are transparent, and
//! the percentile helper reports how many samples it summarised.

use bench_e2e::layers::analyse;
use bench_e2e::stats::{windowed_quantile, Quantiles};
use bench_e2e::trace::{TraceSink, TracedNode, TracedStore};
use llhj_core::checkpoint::{CheckpointStore, MemoryStore};
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::RoundRobin;
use llhj_core::message::{Direction, LeftToRight, NodeOutput, RightToLeft, WindowSegment};
use llhj_core::node::{ElasticError, PipelineNode};
use llhj_core::predicate::FnPredicate;
use llhj_core::rebalance::MigrationConstraint;
use llhj_core::result::ResultTuple;
use llhj_core::stats::NodeCounters;
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_core::tuple::{NodeId, PipelineTuple, SeqNo, StreamTuple};
use llhj_core::window::WindowSpec;
use llhj_runtime::{
    llhj_factory, llhj_nodes, run_elastic_pipeline, run_pipeline, NodeFactory, Pacing,
    PipelineOptions, ScalePlan, ScaleStep,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

type Out = NodeOutput<u32, u32, ResultTuple<u32, u32>>;

/// A node that answers every trait method with a recognisable value and
/// logs which methods were called.
struct Probe {
    calls: Arc<Mutex<BTreeSet<&'static str>>>,
}

impl Probe {
    fn log(&self, method: &'static str) {
        self.calls.lock().unwrap().insert(method);
    }
}

fn segment(tuples: u64) -> WindowSegment<u32, u32> {
    WindowSegment {
        wr: (0..tuples)
            .map(|i| StreamTuple::new(SeqNo(i), Timestamp::from_millis(i), 1))
            .collect(),
        ws: Vec::new(),
    }
}

impl PipelineNode<u32, u32> for Probe {
    fn handle_left(&mut self, _msg: LeftToRight<u32>, out: &mut Out) {
        self.log("handle_left");
        out.comparisons += 1;
    }
    fn handle_right(&mut self, _msg: RightToLeft<u32>, out: &mut Out) {
        self.log("handle_right");
        out.comparisons += 2;
    }
    fn handle_left_batch(&mut self, msgs: &mut Vec<LeftToRight<u32>>, out: &mut Out) {
        self.log("handle_left_batch");
        out.comparisons += 4 * msgs.len() as u64;
        msgs.clear();
    }
    fn handle_right_batch(&mut self, msgs: &mut Vec<RightToLeft<u32>>, out: &mut Out) {
        self.log("handle_right_batch");
        out.comparisons += 8 * msgs.len() as u64;
        msgs.clear();
    }
    fn node_id(&self) -> NodeId {
        self.log("node_id");
        7
    }
    fn node_counters(&self) -> NodeCounters {
        self.log("node_counters");
        NodeCounters {
            arrivals: 11,
            ..Default::default()
        }
    }
    fn resident_tuples(&self) -> usize {
        self.log("resident_tuples");
        13
    }
    fn observe_time(&mut self, _now: Timestamp) {
        self.log("observe_time");
    }
    fn supports_migration(&self) -> bool {
        self.log("supports_migration");
        true
    }
    fn migration_constraint(&self) -> MigrationConstraint {
        self.log("migration_constraint");
        MigrationConstraint::monotone()
    }
    fn window_census(&self) -> (usize, usize) {
        self.log("window_census");
        (17, 19)
    }
    fn export_segment(&mut self) -> Result<WindowSegment<u32, u32>, ElasticError> {
        self.log("export_segment");
        Ok(segment(3))
    }
    fn export_segment_range(
        &mut self,
        r: std::ops::Range<usize>,
        _s: std::ops::Range<usize>,
    ) -> Result<WindowSegment<u32, u32>, ElasticError> {
        self.log("export_segment_range");
        Ok(segment(r.len() as u64))
    }
    fn import_segment(
        &mut self,
        _segment: WindowSegment<u32, u32>,
        _from: Direction,
        _out: &mut Out,
    ) -> Result<(), ElasticError> {
        self.log("import_segment");
        Err(ElasticError::MigrationUnsupported {
            node: 7,
            operation: "import_segment",
        })
    }
    fn install_segment_silent(
        &mut self,
        _segment: WindowSegment<u32, u32>,
    ) -> Result<(), ElasticError> {
        self.log("install_segment_silent");
        Ok(())
    }
    fn set_position(&mut self, _id: NodeId, _nodes: usize) -> Result<(), ElasticError> {
        self.log("set_position");
        Ok(())
    }
}

#[test]
fn traced_node_forwards_every_trait_method() {
    let calls = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = TraceSink::new();
    let mut node = TracedNode::new(
        Box::new(Probe {
            calls: Arc::clone(&calls),
        }),
        8,
        Arc::clone(&sink),
    );
    let node: &mut dyn PipelineNode<u32, u32> = &mut node;
    let arrival = |seq| {
        PipelineTuple::fresh(
            StreamTuple::new(SeqNo(seq), Timestamp::from_millis(5), 1u32),
            0,
        )
    };
    let mut out = Out::new();

    node.observe_time(Timestamp::from_millis(6));
    node.handle_left(LeftToRight::AckS(SeqNo(0)), &mut out);
    node.handle_right(RightToLeft::ExpiryR(SeqNo(0)), &mut out);
    let mut left = vec![
        LeftToRight::ArrivalR(arrival(1)),
        LeftToRight::AckS(SeqNo(2)),
    ];
    node.handle_left_batch(&mut left, &mut out);
    let mut right = vec![RightToLeft::ArrivalS(arrival(3))];
    node.handle_right_batch(&mut right, &mut out);
    assert!(
        left.is_empty() && right.is_empty(),
        "the drain contract holds"
    );
    assert_eq!(out.comparisons, 1 + 2 + 8 + 8);
    assert_eq!(node.node_id(), 7);
    assert_eq!(node.node_counters().arrivals, 11);
    assert_eq!(node.resident_tuples(), 13);
    assert!(node.supports_migration());
    assert_eq!(node.migration_constraint(), MigrationConstraint::monotone());
    assert_eq!(node.window_census(), (17, 19));
    assert_eq!(node.export_segment().unwrap().len(), 3);
    assert_eq!(node.export_segment_range(0..2, 0..0).unwrap().len(), 2);
    assert_eq!(
        node.import_segment(segment(1), Direction::Left, &mut out),
        Err(ElasticError::MigrationUnsupported {
            node: 7,
            operation: "import_segment",
        })
    );
    assert_eq!(node.install_segment_silent(segment(1)), Ok(()));
    assert_eq!(node.set_position(1, 2), Ok(()));

    let expected: BTreeSet<&str> = [
        "handle_left",
        "handle_right",
        "handle_left_batch",
        "handle_right_batch",
        "node_id",
        "node_counters",
        "resident_tuples",
        "observe_time",
        "supports_migration",
        "migration_constraint",
        "window_census",
        "export_segment",
        "export_segment_range",
        "import_segment",
        "install_segment_silent",
        "set_position",
    ]
    .into_iter()
    .collect();
    assert_eq!(*calls.lock().unwrap(), expected);
    assert!(
        sink.take_nodes().is_empty(),
        "spans move to the sink only on drop"
    );
}

#[test]
fn traced_node_hands_its_spans_to_the_sink_on_drop() {
    let sink = TraceSink::new();
    let probe = Probe {
        calls: Arc::new(Mutex::new(BTreeSet::new())),
    };
    let mut node = TracedNode::new(Box::new(probe), 8, Arc::clone(&sink));
    let mut out = Out::new();
    node.observe_time(Timestamp::from_millis(9));
    let arrival = PipelineTuple::fresh(
        StreamTuple::new(SeqNo(4), Timestamp::from_millis(5), 1u32),
        0,
    );
    node.handle_left_batch(&mut vec![LeftToRight::ArrivalR(arrival)], &mut out);
    let _ = node.export_segment();
    let _ = node.install_segment_silent(segment(3));
    drop(node);
    let traces = sink.take_nodes();
    assert_eq!(traces.len(), 1);
    let frame = &traces[0].frames[0];
    assert_eq!((frame.msgs, frame.arrivals, frame.node), (1, 1, 7));
    assert_eq!(
        (frame.stream_start_us, frame.last_arrival_us),
        (9_000, 5_000)
    );
    assert_eq!(traces[0].visits.len(), 1);
    // An export followed by a silent reinstall is a checkpoint capture.
    assert!(traces[0].segments.iter().all(|s| s.capture));
}

fn eq(r: &u32, s: &u32) -> bool {
    r == s
}

fn pred() -> FnPredicate<fn(&u32, &u32) -> bool> {
    FnPredicate(eq as fn(&u32, &u32) -> bool)
}

/// Sparse arrivals with every event at least 5 ms from the next: R at
/// 20i+1 ms, S at 20i+11 ms, and with a 125 ms window the expiries fall at
/// 20i+6 and 20i+16 ms.  Each traversal (and its acks) finishes before the
/// next event, so the runs are deterministic and their counters comparable.
fn schedule() -> DriverSchedule<u32, u32> {
    let r = (0..40u64)
        .map(|i| (Timestamp::from_millis(20 * i + 1), (i % 5) as u32))
        .collect();
    let s = (0..40u64)
        .map(|i| (Timestamp::from_millis(20 * i + 11), (i % 7) as u32))
        .collect();
    let window = WindowSpec::Time(TimeDelta::from_millis(125));
    DriverSchedule::build(r, s, window, window)
}

fn paced() -> PipelineOptions {
    PipelineOptions {
        batch_size: 1,
        pacing: Pacing::RealTime { speedup: 1.0 },
        ..Default::default()
    }
}

/// Serialises the paced tests: two paced pipelines sharing a small host
/// perturb each other's timing.
static PACED: Mutex<()> = Mutex::new(());

/// Runs an untraced and a traced replay until they agree, at most three
/// times, and returns the last pair.  A host stall longer than the
/// schedule's 5 ms gaps can reorder one run's messages and shift its
/// counters; a wrapper that is not transparent disagrees every time.
fn until_agreed<T: PartialEq>(mut runs: impl FnMut() -> (T, T)) -> (T, T) {
    let _paced = PACED.lock().unwrap_or_else(|e| e.into_inner());
    let mut last = runs();
    for _ in 1..3 {
        if last.0 == last.1 {
            break;
        }
        last = runs();
    }
    last
}

fn wrap(
    nodes: Vec<Box<dyn PipelineNode<u32, u32>>>,
    sink: &Arc<TraceSink>,
) -> Vec<Box<dyn PipelineNode<u32, u32>>> {
    let width = nodes.len();
    nodes
        .into_iter()
        .map(|n| {
            Box::new(TracedNode::new(n, width, Arc::clone(sink))) as Box<dyn PipelineNode<u32, u32>>
        })
        .collect()
}

#[test]
fn tracing_a_fixed_run_changes_neither_results_nor_counters() {
    let sched = schedule();
    let mut sink = TraceSink::new();
    let mut traced_results = Vec::new();
    let (plain, traced) = until_agreed(|| {
        let plain = run_pipeline(llhj_nodes(2, pred()), pred(), RoundRobin, &sched, &paced());
        sink = TraceSink::new();
        let traced = run_pipeline(
            wrap(llhj_nodes(2, pred()), &sink),
            pred(),
            RoundRobin,
            &sched,
            &paced(),
        );
        let seen = (
            (plain.result_keys(), plain.counters),
            (traced.result_keys(), traced.counters),
        );
        traced_results = traced.results;
        seen
    });
    assert!(!plain.0.is_empty());
    assert_eq!(traced, plain, "identical result keys and counters");

    let nodes = sink.take_nodes();
    assert_eq!(nodes.len(), 2, "each worker's node reported on exit");
    let layers = analyse(&nodes, &[], &traced_results);
    assert_eq!(
        layers.entry_wait_ms.samples, 80,
        "one entry frame per arrival at batch 1"
    );
    assert!(layers.decomposition.samples > 0);
    assert!(layers.hop_wait_ms.samples > 0);
}

#[test]
fn tracing_an_elastic_run_changes_neither_results_nor_counters() {
    let sched = schedule();
    let events = sched.events().len();
    let plan = ScalePlan::new(vec![
        ScaleStep {
            after_events: events / 3,
            target_nodes: 3,
        },
        ScaleStep {
            after_events: 2 * events / 3,
            target_nodes: 2,
        },
    ]);
    let run = |factory: NodeFactory<u32, u32>| {
        let outcome = run_elastic_pipeline(2, factory, pred(), RoundRobin, &sched, &plan, &paced());
        let mut counters = outcome.counters.clone();
        counters.extend(outcome.retired_counters.iter().copied());
        (outcome.result_keys(), counters, outcome.resize_log.len())
    };
    let mut sink = TraceSink::new();
    let (plain, traced) = until_agreed(|| {
        let plain = run(llhj_factory(pred()));
        sink = TraceSink::new();
        let inner = llhj_factory(pred());
        let node_sink = Arc::clone(&sink);
        let traced = run(Arc::new(move |id, n| {
            Box::new(TracedNode::new(inner(id, n), n, Arc::clone(&node_sink)))
        }));
        (plain, traced)
    });
    assert_eq!(plain.2, 2, "the plan grew and shrank the chain");
    assert!(!plain.0.is_empty());
    assert_eq!(traced, plain);
    let ops: BTreeSet<_> = sink
        .take_nodes()
        .iter()
        .flat_map(|t| t.segments.iter())
        .map(|s| format!("{:?}", s.op))
        .collect();
    assert!(
        ops.contains("Import"),
        "the resizes went through the traced migration calls: {ops:?}"
    );
}

#[test]
fn traced_store_round_trips_and_times_puts() {
    let sink = TraceSink::new();
    let store = TracedStore::new(Arc::new(MemoryStore::new()), Arc::clone(&sink));
    store.put(0, 1, b"first").unwrap();
    store.put(0, 2, b"second!").unwrap();
    store.put(1, 9, b"other shard").unwrap();
    assert_eq!(store.get(0, 1).unwrap(), b"first");
    assert_eq!(store.get(0, 2).unwrap(), b"second!");
    assert!(store.get(0, 3).is_err());
    assert_eq!(store.seqs(0).unwrap(), vec![1, 2]);
    assert_eq!(store.latest_seq(1).unwrap(), Some(9));
    let puts = sink.take_puts();
    assert_eq!(
        puts.iter().map(|p| p.bytes).collect::<Vec<_>>(),
        vec![5, 7, 11]
    );
}

#[test]
fn percentiles_report_their_sample_count() {
    let q = Quantiles::of((1..=1000).rev().map(f64::from).collect());
    assert_eq!(q.samples, 1000);
    assert_eq!((q.p50, q.p99, q.p999, q.max), (500.0, 990.0, 999.0, 1000.0));
    let empty = Quantiles::of(Vec::new());
    assert_eq!((empty.samples, empty.p50), (0, 0.0));

    // Two 1 s windows with medians 10 and 30, plus a sparse third one
    // that is skipped.
    let mut samples: Vec<(f64, f64)> = (0..100).map(|i| (0.5, 10.0 + f64::from(i % 2))).collect();
    samples.extend((0..100).map(|_| (1.5, 30.0)));
    samples.push((2.5, 1e9));
    let (median, windows) = windowed_quantile(&samples, 1.0, 0.5, 50);
    assert_eq!(windows, 2);
    assert_eq!(median, 10.0);
}
