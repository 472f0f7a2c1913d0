//! # bench-e2e — paced, oracle-checked end-to-end benchmark
//!
//! The library half of the `bench_e2e` binary: everything the binary
//! needs besides workload definitions and printing, kept here so the
//! benchmark's own tests can reach it.
//!
//! * [`trace`] — outside-in tracing.  [`trace::TracedNode`] implements
//!   `PipelineNode` by forwarding every method to a wrapped node and
//!   [`trace::TracedStore`] implements `CheckpointStore` by forwarding to a
//!   wrapped store; both time the calls and keep the spans in memory until
//!   the run ends.  Nothing inside the repository's crates changes.
//! * [`layers`] — per-layer figures derived from those spans.
//! * [`stats`] — nearest-rank percentiles that carry their sample count.
//! * [`procfs`] — process CPU time and peak resident memory from `/proc`.
//! * [`oracle`] — counts missing, spurious and duplicate result pairs
//!   against the Kang oracle instead of asserting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod layers;
pub mod oracle;
pub mod procfs;
pub mod stats;
pub mod trace;
