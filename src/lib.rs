//! # handshake-join — Low-Latency Handshake Join in Rust
//!
//! A from-scratch reproduction of *"Low-Latency Handshake Join"* (Roy,
//! Teubner, Gemulla; PVLDB 7(9), 2014): a parallel, NUMA-friendly sliding-
//! window stream join that keeps the throughput and scalability of
//! handshake join while cutting result latency by orders of magnitude and
//! producing punctuated (and therefore sortable) output streams.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] (`llhj-core`) — the algorithms themselves: the low-latency
//!   handshake join node, the original handshake join baseline, windows,
//!   punctuations, the sorting operator and the analytic latency model;
//! * [`runtime`] (`llhj-runtime`) — a threaded deployment (one worker per
//!   core, FIFO frame channels, driver + collector threads), including the
//!   *elastic* pipeline that grows or shrinks the node chain mid-run with
//!   fenced state handoff (`runtime::elastic`);
//! * [`sim`] (`llhj-sim`) — a deterministic discrete-event simulator used
//!   by the evaluation harness to sweep core counts;
//! * [`baselines`] (`llhj-baselines`) — Kang's three-step procedure and
//!   CellJoin;
//! * [`workload`] (`llhj-workload`) — the paper's benchmark workload.
//!
//! Both execution substrates move [`core::MessageBatch`] *frames* — runs
//! of same-direction messages — so message granularity is a configuration
//! knob: `PipelineOptions::batch_size` / `flush_interval` on the runtime
//! and `SimConfig::batch_size` on the simulator.  `batch_size = 1`
//! reproduces the eager per-tuple transport exactly; coarser frames
//! amortise channel and wake-up cost over the whole run of messages,
//! which is the granularity trade-off the paper's Section 2 analyses.
//!
//! ## Quick start
//!
//! ```
//! use handshake_join::prelude::*;
//!
//! // Join two integer streams on equality over 10-second windows.
//! let r = vec![(Timestamp::from_millis(10), 7u32), (Timestamp::from_millis(30), 9)];
//! let s = vec![(Timestamp::from_millis(20), 7u32), (Timestamp::from_millis(40), 8)];
//! let schedule = DriverSchedule::build(
//!     r, s, WindowSpec::time_secs(10), WindowSpec::time_secs(10),
//! );
//!
//! let pred = FnPredicate(|r: &u32, s: &u32| r == s);
//! let outcome = run_pipeline(
//!     llhj_nodes(2, pred.clone()),
//!     pred,
//!     RoundRobin,
//!     &schedule,
//!     &PipelineOptions::default(),
//! );
//! assert_eq!(outcome.results.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use llhj_baselines as baselines;
pub use llhj_core as core;
pub use llhj_runtime as runtime;
pub use llhj_sim as sim;
pub use llhj_workload as workload;

/// One-stop prelude for applications: the core types, the threaded runtime
/// entry points and the benchmark workload.
pub mod prelude {
    pub use llhj_core::prelude::*;
    pub use llhj_runtime::{
        hsj_age_factory, hsj_nodes, llhj_factory, llhj_indexed_factory, llhj_indexed_nodes,
        llhj_nodes, recover_elastic_pipeline, recover_mesh_pipeline, run_autoscaled_pipeline,
        run_elastic_pipeline, run_mesh_pipeline, run_pipeline, AutoscaleOptions, CancelToken,
        CheckpointConfig, ElasticPipeline, MeshOutcome, MeshPipeline, MetricsBus, NodeFactory,
        Pacing, PipelineOptions, ReshardEvent, ResizeEvent, RunOutcome, ScalePipeline, ScalePlan,
        ScaleStep,
    };
    pub use llhj_sim::{
        max_sustainable_mesh_rate, recover_mesh_simulation, run_autoscaled_simulation,
        run_checkpointed_mesh_simulation, run_elastic_simulation, run_mesh_simulation,
        run_simulation, Algorithm, AnalyticModel, CostModel, ElasticSimReport, MeshSimReport,
        SimCheckpoint, SimCheckpointEvent, SimConfig, SimMeshCheckpoint, SimReport,
    };
    pub use llhj_workload::{
        band_join_schedule, equi_join_schedule, zipf_equi_join_schedule, ArrivalPattern,
        BandJoinWorkload, BandPredicate, EquiJoinWorkload, EquiXaPredicate, RTuple, STuple,
        ZipfEquiJoinWorkload,
    };
}
