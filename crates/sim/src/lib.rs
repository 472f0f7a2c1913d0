//! # llhj-sim — discrete-event multicore simulator for handshake joins
//!
//! This crate is the experimental substrate that replaces the 48-core AMD
//! Opteron "Magny Cours" machine of the paper's evaluation.  It executes
//! the real node state machines from `llhj-core` on a simulated pipeline of
//! `n` cores connected by FIFO links, charging virtual time according to a
//! calibrated [`CostModel`]:
//!
//! * [`elastic::run_elastic_simulation`] — exact event-driven simulation
//!   of one chain (real predicate evaluations), with mid-run grow/shrink
//!   reconfigurations mirroring the threaded runtime's fence-and-handoff
//!   protocol in virtual time; [`engine::run_simulation`] is the same
//!   chain with no resizes, and [`elastic::run_autoscaled_simulation`]
//!   steers it with the runtime's autoscale policy.  One driver loop and
//!   one entry batcher — with the runtime's expiry barrier — serve all
//!   three;
//! * [`mesh::run_mesh_simulation`] — the shard mesh over several such
//!   chains, with its own one driver loop shared by the checkpointed and
//!   recovery variants;
//! * [`throughput::max_sustainable_rate`] — binary search for the maximum
//!   sustainable input rate, the methodology behind Figure 17;
//! * [`model::AnalyticModel`] — closed-form utilization model used to
//!   extrapolate to the paper's full-scale operating points (15-minute
//!   windows) that are too expensive to simulate tuple-by-tuple.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cost;
pub mod elastic;
pub mod engine;
pub mod mesh;
pub mod model;
pub mod report;
pub mod throughput;

pub use config::{Algorithm, SimConfig};
pub use cost::{CostModel, SimNanos};
pub use elastic::{
    run_autoscaled_simulation, run_elastic_simulation, ElasticSimReport, SimCheckpoint,
    SimCheckpointEvent, SimResizeEvent,
};
pub use engine::run_simulation;
pub use mesh::{
    max_sustainable_mesh_rate, recover_mesh_simulation, run_checkpointed_mesh_simulation,
    run_mesh_simulation, MeshSimReport, SimMeshCheckpoint, SimReshardEvent,
};
pub use model::AnalyticModel;
pub use report::SimReport;
pub use throughput::{max_sustainable_rate, ThroughputResult, ThroughputSearch};

/// Test fixtures shared by the crate's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use llhj_core::driver::DriverSchedule;
    use llhj_core::predicate::FnPredicate;
    use llhj_core::time::Timestamp;
    use llhj_core::window::WindowSpec;

    /// Equality on `u32` payloads.
    pub(crate) fn eq_pred() -> FnPredicate<fn(&u32, &u32) -> bool> {
        fn eq(r: &u32, s: &u32) -> bool {
            r == s
        }
        FnPredicate(eq as fn(&u32, &u32) -> bool)
    }

    /// 200 tuples per stream 1 ms apart, values cycling mod 20 (R) and
    /// mod 25 (S), under 1 s windows.
    pub(crate) fn small_schedule() -> DriverSchedule<u32, u32> {
        let r: Vec<_> = (0..200u64)
            .map(|i| (Timestamp::from_millis(i), (i % 20) as u32))
            .collect();
        let s: Vec<_> = (0..200u64)
            .map(|i| (Timestamp::from_millis(i), (i % 25) as u32))
            .collect();
        DriverSchedule::build(r, s, WindowSpec::time_secs(1), WindowSpec::time_secs(1))
    }
}
