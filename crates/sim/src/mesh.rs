//! Discrete-event simulation of the key-partitioned shard mesh.
//!
//! Mirrors the threaded mesh (`llhj-runtime::mesh`) in virtual time: one
//! [`ShardRouter`] fans a driver schedule over `N` independent
//! `ElasticSim` chains, each chain keeps its own punctuated output, and
//! the per-shard streams merge through the same
//! [`merge_punctuated_streams`] frontier algorithm the runtime uses.  A
//! shard split or merge reuses the chain protocol end to end — fence
//! (complete heap drain), per-node `export` → hash-partition → silent
//! install at the *same* pipeline position, then the ordinary balanced
//! redistribution per chain — with every moved segment charged one frame
//! reception plus per-tuple message cost and a hop, and one ack frame
//! back, exactly like the chain-internal handoff.
//!
//! Because every shard's virtual clock starts at the same zero and the
//! router is deterministic, the mesh simulation is reproducible, which is
//! what the cross-substrate conformance sweep builds on: the same
//! schedule, plan and predicate must produce byte-identical result sets
//! here, in the threaded mesh, and in the single-chain Kang oracle.

use crate::config::SimConfig;
use crate::cost::SimNanos;
use crate::elastic::{ts_to_ns, ElasticSim, SimCheckpoint, SimCheckpointEvent};
use crate::throughput::{ThroughputResult, ThroughputSearch};
use llhj_core::driver::{DriverSchedule, Events, StreamEvent};
use llhj_core::homing::HomePolicy;
use llhj_core::message::NodeOutput;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::OutputItem;
use llhj_core::result::TimedResult;
use llhj_core::shard::{merge_punctuated_streams, MeshPlan, RouteMode, ShardRouter};
use llhj_core::tuple::SeqNo;

/// One completed mesh reshaping in the simulation's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReshardEvent {
    /// Schedule events consumed when the reshaping fired.
    pub after_events: usize,
    /// Virtual time at which the fence completed the drain.
    pub at_ns: SimNanos,
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Per-shard chain width after the reshaping.
    pub width: usize,
    /// Window tuples that crossed a shard boundary.
    pub moved_tuples: usize,
    /// Virtual duration of the reshaping (segment transfers plus the
    /// per-chain redistributions).
    pub fence_ns: SimNanos,
}

/// Everything measured during one mesh simulation.
#[derive(Debug)]
pub struct MeshSimReport<R, S> {
    /// All results from every shard (shards concatenated; use
    /// [`MeshSimReport::result_keys`] for oracle comparison).
    pub results: Vec<TimedResult<R, S>>,
    /// The merged punctuated output stream (empty unless `punctuate`).
    pub output: Vec<OutputItem<TimedResult<R, S>>>,
    /// Every reshaping, in order.
    pub reshard_log: Vec<SimReshardEvent>,
    /// Final shard count.
    pub shards: usize,
    /// Final per-shard chain widths.
    pub widths: Vec<usize>,
    /// Per-shard, per-node busy virtual time of the *final* shards
    /// (chains retired by a merge fold their results in, but their busy
    /// accounting retires with them).
    pub busy_ns: Vec<Vec<SimNanos>>,
    /// Virtual time of the last driver injection, over all shards.
    pub last_injection_ns: SimNanos,
    /// Virtual time at which the last shard finished processing — the
    /// mesh makespan is the *max* over shards, not the sum: shards run
    /// concurrently.
    pub makespan_ns: SimNanos,
}

impl<R, S> MeshSimReport<R, S> {
    /// Sorted `(r_seq, s_seq)` result keys, for oracle comparison.
    pub fn result_keys(&self) -> Vec<(SeqNo, SeqNo)> {
        let mut keys: Vec<_> = self.results.iter().map(|t| t.result.key()).collect();
        keys.sort_unstable();
        keys
    }

    /// Largest per-node utilization across every shard: busy virtual time
    /// over the span input was offered.
    pub fn max_utilization(&self) -> f64 {
        if self.last_injection_ns == 0 {
            return 0.0;
        }
        self.busy_ns
            .iter()
            .flatten()
            .map(|&b| b as f64 / self.last_injection_ns as f64)
            .fold(0.0, f64::max)
    }

    /// True if every node of every shard kept its utilization at or below
    /// `threshold` — the mesh sustainability criterion.
    pub fn is_sustainable(&self, threshold: f64) -> bool {
        self.max_utilization() <= threshold
    }
}

/// A coordinated mesh checkpoint: one per-shard [`SimCheckpoint`] for
/// every live shard, all captured at the same consumed-event cut inside a
/// global fence — the simulator's stand-in for the runtime's coordinated
/// per-shard blob sequence.
#[derive(Debug, Clone)]
pub struct SimMeshCheckpoint<R, S> {
    /// Schedule events consumed at the capture cut.
    pub after_events: usize,
    /// One checkpoint per shard, indexed by shard id.
    pub shards: Vec<SimCheckpoint<R, S>>,
}

struct MeshSim<R, S, P, H>
where
    P: JoinPredicate<R, S>,
{
    config: SimConfig,
    router: ShardRouter<R, S, P>,
    sims: Vec<ElasticSim<R, S, P, H>>,
    predicate: P,
    policy: H,
    retired_results: Vec<TimedResult<R, S>>,
    retired_outputs: Vec<Vec<OutputItem<TimedResult<R, S>>>>,
    reshard_log: Vec<SimReshardEvent>,
    /// Virtual injection time of the last routed event (rebased on a
    /// recovery replay): where a fence flushes the entry frames.
    last_ns: SimNanos,
}

impl<R, S, P, H> MeshSim<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// A mesh of one chain per entry of `widths`, routing by `mode`.
    fn new(config: &SimConfig, predicate: P, policy: H, mode: RouteMode, widths: &[usize]) -> Self {
        assert!(
            mode == RouteMode::FragmentReplicate || predicate.supports_index(),
            "co-partitioning requires a predicate with both equi-key extractors"
        );
        MeshSim {
            config: config.clone(),
            router: ShardRouter::new(predicate.clone(), mode, widths.len()),
            sims: widths
                .iter()
                .map(|&width| ElasticSim::new(config, width, predicate.clone(), policy.clone()))
                .collect(),
            predicate,
            policy,
            retired_results: Vec::new(),
            retired_outputs: Vec::new(),
            reshard_log: Vec::new(),
            last_ns: 0,
        }
    }

    /// Flushes every shard's entry frames (their homes were assigned
    /// under the current widths) and drains every heap to quiescence.
    /// Returns the global fence start: the latest shard makespan.
    fn fence_all(&mut self) -> SimNanos {
        for sim in &mut self.sims {
            sim.flush(self.last_ns);
            sim.drain(None);
        }
        self.sims.iter().map(|s| s.makespan_ns).max().unwrap_or(0)
    }

    /// One shard split: every chain doubles into itself plus a same-width
    /// child.  The child of parent `p` lands at index `n + p`, matching
    /// [`llhj_core::shard::ShardMap::child_of`].  Node `k`'s moving rows
    /// re-enter at position `k` of the child (silent install — positional
    /// invariants carry over; matching would duplicate results on a later
    /// fragment-replicate merge), then both chains rebalance.
    fn split_once(&mut self, fence_end: &mut SimNanos) -> usize {
        let n = self.sims.len();
        self.router.split();
        let mut moved = 0;
        for p in 0..n {
            let width = self.sims[p].width;
            let mut child = ElasticSim::new(
                &self.config,
                width,
                self.predicate.clone(),
                self.policy.clone(),
            );
            for k in 0..width {
                let segment = self.sims[p].nodes[k]
                    .export_segment()
                    .expect("mesh simulation requires migration-capable nodes");
                let (keep, moving) = self.router.split_segment(p, segment);
                moved += moving.len();
                // Every cross-shard transfer is charged like a
                // chain-internal handoff hop, its ack going to no node of
                // the receiving chain.
                self.sims[p].charge_handoff(k, None, keep.len(), &mut NodeOutput::new(), fence_end);
                self.sims[p].nodes[k]
                    .install_segment_silent(keep)
                    .expect("mesh simulation requires migration-capable nodes");
                child.charge_handoff(k, None, moving.len(), &mut NodeOutput::new(), fence_end);
                child.nodes[k]
                    .install_segment_silent(moving)
                    .expect("mesh simulation requires migration-capable nodes");
            }
            self.sims[p].rebalance_fenced(fence_end);
            child.rebalance_fenced(fence_end);
            self.sims.push(child);
        }
        moved
    }

    /// One shard merge: each child chain folds back into its parent at
    /// equal width, node `k` into node `k`, then the parent rebalances.
    /// The child's results and punctuated output are retained for the
    /// final stream merge.
    fn merge_once(&mut self, fence_end: &mut SimNanos) -> usize {
        let n = self.sims.len() / 2;
        // Equalize widths first: the child's node `k` must land on an
        // existing parent node `k`.
        for p in 0..n {
            let width = self.sims[p].width;
            if self.sims[n + p].width != width {
                self.sims[n + p].resize(width);
            }
        }
        self.router.merge();
        let mut moved = 0;
        let children: Vec<ElasticSim<R, S, P, H>> = self.sims.split_off(n);
        for (p, mut child) in children.into_iter().enumerate() {
            for k in 0..child.width {
                let segment = child.nodes[k]
                    .export_segment()
                    .expect("mesh simulation requires migration-capable nodes");
                // Fragment-replicate child S rows are broadcast copies of
                // the parent's own; the router drops them here.
                let segment = self.router.merge_segment(segment);
                moved += segment.len();
                self.sims[p].charge_handoff(
                    k,
                    None,
                    segment.len(),
                    &mut NodeOutput::new(),
                    fence_end,
                );
                self.sims[p].nodes[k]
                    .install_segment_silent(segment)
                    .expect("mesh simulation requires migration-capable nodes");
            }
            self.sims[p].rebalance_fenced(fence_end);
            if self.config.punctuate {
                child.collect();
            }
            self.retired_results.append(&mut child.results);
            self.retired_outputs.push(std::mem::take(&mut child.output));
        }
        moved
    }

    /// Reshapes to `target_shards` shards of `width` nodes each.
    fn reshape(&mut self, target_shards: usize, width: usize, at_event: usize) {
        assert!(
            target_shards.is_power_of_two(),
            "shard count must be a power of two, got {target_shards}"
        );
        let from = self.sims.len();
        let fence_start = self.fence_all();
        let mut fence_end = fence_start;
        let mut moved = 0;
        while self.sims.len() < target_shards {
            moved += self.split_once(&mut fence_end);
        }
        while self.sims.len() > target_shards {
            moved += self.merge_once(&mut fence_end);
        }
        let mut width_changed = false;
        for sim in &mut self.sims {
            if sim.width != width {
                sim.resize(width);
                width_changed = true;
            }
        }
        // Every surviving shard resumes at the instant the mesh-wide
        // reconfiguration ends: the fence is global.
        for sim in &mut self.sims {
            for slot in &mut sim.busy_until {
                *slot = (*slot).max(fence_end);
            }
            sim.makespan_ns = sim.makespan_ns.max(fence_end);
        }
        if from != target_shards || width_changed {
            self.reshard_log.push(SimReshardEvent {
                after_events: at_event,
                at_ns: fence_start,
                from_shards: from,
                to_shards: target_shards,
                width,
                moved_tuples: moved,
                fence_ns: fence_end - fence_start,
            });
        }
    }

    /// One coordinated checkpoint: global fence, then every shard captures
    /// at the same consumed-event cut.  Shards serialise their blobs
    /// concurrently, so the mesh pays the *max* per-shard capture cost —
    /// the whole mesh resumes at that instant.
    fn checkpoint_all(&mut self, consumed: usize) -> (SimMeshCheckpoint<R, S>, SimCheckpointEvent) {
        let fence_start = self.fence_all();
        for sim in &mut self.sims {
            sim.makespan_ns = sim.makespan_ns.max(fence_start);
        }
        let mut shards = Vec::with_capacity(self.sims.len());
        let mut tuples = 0usize;
        for sim in &mut self.sims {
            let (ckpt, evt) = sim.capture_checkpoint(consumed);
            tuples += evt.tuples;
            shards.push(ckpt);
        }
        let fence_end = self
            .sims
            .iter()
            .map(|s| s.makespan_ns)
            .max()
            .unwrap_or(fence_start);
        for sim in &mut self.sims {
            for slot in &mut sim.busy_until {
                *slot = (*slot).max(fence_end);
            }
            sim.makespan_ns = fence_end;
        }
        (
            SimMeshCheckpoint {
                after_events: consumed,
                shards,
            },
            SimCheckpointEvent {
                after_events: consumed,
                at_ns: fence_start,
                tuples,
                cost_ns: fence_end - fence_start,
            },
        )
    }

    /// Finalizes the mesh into the standard report.
    fn into_report(mut self) -> MeshSimReport<R, S> {
        if self.config.punctuate {
            for sim in &mut self.sims {
                sim.collect();
            }
        }
        let mut results = self.retired_results;
        let mut streams = self.retired_outputs;
        let mut widths = Vec::with_capacity(self.sims.len());
        let mut busy = Vec::with_capacity(self.sims.len());
        let mut last_injection_ns = 0;
        let mut makespan_ns = 0;
        for mut sim in self.sims {
            widths.push(sim.width);
            busy.push(std::mem::take(&mut sim.busy_ns));
            last_injection_ns = last_injection_ns.max(sim.last_injection_ns);
            makespan_ns = makespan_ns.max(sim.makespan_ns);
            results.append(&mut sim.results);
            streams.push(std::mem::take(&mut sim.output));
        }
        MeshSimReport {
            results,
            output: merge_punctuated_streams(streams),
            reshard_log: self.reshard_log,
            shards: widths.len(),
            widths,
            busy_ns: busy,
            last_injection_ns,
            makespan_ns,
        }
    }

    /// The one driver loop of a simulated mesh: routes `events` — each
    /// injected at its stream time minus `rebase` — through the shards'
    /// entry batchers, firing the plan's reshapings at their event
    /// indexes.  With `checkpoint_every` it takes a coordinated checkpoint
    /// after every that many consumed events; `crash_after` stops the
    /// replay right before that event index (the simulated crash: the
    /// injected prefix is processed, nothing else enters, and trailing
    /// plan steps do not run).  Returns the checkpoint log and the latest
    /// checkpoint.
    fn replay(
        &mut self,
        events: Events<'_, R, S>,
        rebase: SimNanos,
        plan: &MeshPlan,
        checkpoint_every: Option<usize>,
        crash_after: Option<usize>,
    ) -> (Vec<SimCheckpointEvent>, Option<SimMeshCheckpoint<R, S>>) {
        let (mut left_r, mut left_s) = events.arrivals();
        let mut ckpt_log = Vec::new();
        let mut latest = None;
        let mut steps = plan.steps.iter().peekable();
        let mut crashed = false;
        for (idx, event) in events.into_iter().enumerate() {
            while let Some(step) = steps.next_if(|s| s.after_events <= idx) {
                self.reshape(step.shards, step.width, idx);
            }
            if crash_after == Some(idx) {
                crashed = true;
                break;
            }
            self.last_ns = ts_to_ns(event.at).saturating_sub(rebase);
            let route = self.router.route(&event.event);
            for shard in route.targets(self.sims.len()) {
                self.sims[shard].inject(&event, self.last_ns);
            }
            // A stream's last arrival ends the stream for every shard: no
            // partial entry frame of that stream need wait any longer.
            match event.event {
                StreamEvent::ArrivalR(_) => {
                    left_r -= 1;
                    if left_r == 0 {
                        for sim in &mut self.sims {
                            sim.flush_left(self.last_ns);
                        }
                    }
                }
                StreamEvent::ArrivalS(_) => {
                    left_s -= 1;
                    if left_s == 0 {
                        for sim in &mut self.sims {
                            sim.flush_right(self.last_ns);
                        }
                    }
                }
                _ => {}
            }
            let consumed = idx + 1;
            if checkpoint_every.is_some_and(|every| consumed.is_multiple_of(every)) {
                let (ckpt, evt) = self.checkpoint_all(consumed);
                ckpt_log.push(evt);
                latest = Some(ckpt);
            }
        }
        self.fence_all();
        if !crashed {
            for step in steps {
                self.reshape(step.shards, step.width, events.len());
            }
        }
        (ckpt_log, latest)
    }
}

/// Runs a mesh simulation: replays `schedule` through `shards` chains of
/// `config.nodes` nodes each, routing by `mode` and reshaping at the
/// plan's event indexes — the virtual-time mirror of
/// `llhj-runtime`'s `run_mesh_pipeline`.
pub fn run_mesh_simulation<R, S, P, H>(
    config: &SimConfig,
    predicate: P,
    policy: H,
    mode: RouteMode,
    shards: usize,
    schedule: &DriverSchedule<R, S>,
    plan: &MeshPlan,
) -> MeshSimReport<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let mut mesh = MeshSim::new(config, predicate, policy, mode, &vec![config.nodes; shards]);
    mesh.replay(schedule.events(), 0, plan, None, None);
    mesh.into_report()
}

/// Runs a mesh simulation that takes a coordinated checkpoint of every
/// shard each `every_events` consumed events, mirroring the runtime's
/// `run_schedule_checkpointed` on the mesh: a global fence, then one
/// per-shard state capture at the same consumed-event cut, each charged
/// the serialisation cost of its window.  If `crash_after_events` is
/// `Some(n)`, the run stops *before* injecting event `n` — the simulated
/// crash — and returns the cleanly processed prefix plus the last
/// coordinated checkpoint, which [`recover_mesh_simulation`] resumes
/// from.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn run_checkpointed_mesh_simulation<R, S, P, H>(
    config: &SimConfig,
    predicate: P,
    policy: H,
    mode: RouteMode,
    shards: usize,
    schedule: &DriverSchedule<R, S>,
    plan: &MeshPlan,
    every_events: usize,
    crash_after_events: Option<usize>,
) -> (
    MeshSimReport<R, S>,
    Vec<SimCheckpointEvent>,
    Option<SimMeshCheckpoint<R, S>>,
)
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    assert!(every_events > 0, "checkpoint interval must be positive");
    let mut mesh = MeshSim::new(config, predicate, policy, mode, &vec![config.nodes; shards]);
    let (ckpt_log, latest) = mesh.replay(
        schedule.events(),
        0,
        plan,
        Some(every_events),
        crash_after_events,
    );
    (mesh.into_report(), ckpt_log, latest)
}

/// Resumes a mesh simulation from a coordinated checkpoint (or replays
/// the whole schedule cold over `cold_shards` shards when `ckpt` is
/// `None`).  The mesh is rebuilt at the checkpoint's topology, every
/// shard pays the per-tuple decode cost while its window reinstalls, the
/// router reseeds its ownership tables from the checkpointed rows, and
/// the schedule suffix replays *rebased* to virtual zero — relative
/// stream spacing is preserved (exactness needs arrival/expiry order)
/// but the makespan measures install-plus-suffix, which is what the
/// recovery benchmark compares against a cold replay.
pub fn recover_mesh_simulation<R, S, P, H>(
    config: &SimConfig,
    predicate: P,
    policy: H,
    mode: RouteMode,
    cold_shards: usize,
    schedule: &DriverSchedule<R, S>,
    ckpt: Option<&SimMeshCheckpoint<R, S>>,
) -> MeshSimReport<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let widths: Vec<usize> = match ckpt {
        Some(c) => c.shards.iter().map(|s| s.width).collect(),
        None => vec![config.nodes; cold_shards.max(1)],
    };
    let mut mesh = MeshSim::new(config, predicate, policy, mode, &widths);
    if let Some(c) = ckpt {
        for (shard, sc) in c.shards.iter().enumerate() {
            for seg in &sc.segments {
                for t in &seg.wr {
                    mesh.router.reseed_r(t.seq, &t.payload);
                }
                for t in &seg.ws {
                    mesh.router.reseed_s(t.seq, &t.payload);
                }
            }
            mesh.sims[shard].restore_checkpoint(sc);
        }
    }
    let start_idx = ckpt.map_or(0, |c| c.after_events);
    let events = schedule.events();
    let events = events.slice(start_idx.min(events.len())..);
    let rebase = events.get(0).map_or(0, |e| ts_to_ns(e.at));
    mesh.replay(events, rebase, &MeshPlan::none(), None, None);
    mesh.into_report()
}

/// Binary-searches the maximum per-stream rate a mesh of `shards` shards
/// sustains (no node of any shard above the utilization threshold) — the
/// Figure 17 methodology applied to the second scaling axis.  This is
/// what `bench_shard` plots: aggregate capacity versus shard count at a
/// fixed per-shard width.
pub fn max_sustainable_mesh_rate<R, S, P, H, F>(
    base_config: &SimConfig,
    predicate: P,
    policy: H,
    mode: RouteMode,
    shards: usize,
    mut make_schedule: F,
    search: &ThroughputSearch,
) -> ThroughputResult
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
    F: FnMut(f64) -> DriverSchedule<R, S>,
{
    search.bisect(|rate| {
        let mut config = base_config.clone();
        config.expected_rate_per_sec = rate;
        let schedule = make_schedule(rate);
        let report = run_mesh_simulation(
            &config,
            predicate.clone(),
            policy.clone(),
            mode,
            shards,
            &schedule,
            &MeshPlan::none(),
        );
        report
            .is_sustainable(search.utilization_threshold)
            .then(|| report.max_utilization())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use llhj_baselines::run_kang;
    use llhj_core::homing::RoundRobin;
    use llhj_core::predicate::{EquiPredicate, FnPredicate};
    use llhj_core::punctuation::verify_punctuated_stream;
    use llhj_core::time::{TimeDelta, Timestamp};
    use llhj_core::window::WindowSpec;

    type KeyFn = fn(&u32) -> u64;

    fn equi() -> EquiPredicate<KeyFn, KeyFn> {
        fn key(v: &u32) -> u64 {
            *v as u64
        }
        EquiPredicate::new(key as fn(&u32) -> u64, key as fn(&u32) -> u64)
    }

    fn band() -> FnPredicate<fn(&u32, &u32) -> bool> {
        fn near(r: &u32, s: &u32) -> bool {
            r.abs_diff(*s) <= 1
        }
        FnPredicate(near as fn(&u32, &u32) -> bool)
    }

    fn schedule(tuples: u64, window_ms: u64) -> DriverSchedule<u32, u32> {
        let r: Vec<_> = (0..tuples)
            .map(|i| (Timestamp::from_millis(i), (i % 13) as u32))
            .collect();
        let s: Vec<_> = (0..tuples)
            .map(|i| (Timestamp::from_millis(i), (i % 17) as u32))
            .collect();
        DriverSchedule::build(
            r,
            s,
            WindowSpec::Time(TimeDelta::from_millis(window_ms)),
            WindowSpec::Time(TimeDelta::from_millis(window_ms)),
        )
    }

    fn config(width: usize, algorithm: Algorithm) -> SimConfig {
        let mut cfg = SimConfig::new(width, algorithm);
        cfg.batch_size = 4;
        cfg.punctuate = true;
        cfg.window_r = WindowSpec::Time(TimeDelta::from_millis(150));
        cfg.window_s = cfg.window_r;
        cfg.latency_bucket = 1_000_000;
        cfg
    }

    #[test]
    fn mesh_sim_matches_the_oracle_across_shard_counts() {
        let sched = schedule(300, 150);
        let oracle = run_kang(equi(), &sched);
        for shards in [1usize, 2, 4] {
            let report = run_mesh_simulation(
                &config(2, Algorithm::LlhjIndexed),
                equi(),
                RoundRobin,
                RouteMode::CoPartition,
                shards,
                &sched,
                &MeshPlan::none(),
            );
            assert_eq!(
                report.result_keys(),
                oracle.result_keys(),
                "{shards}-shard mesh sim must be byte-identical to the oracle"
            );
            assert_eq!(report.shards, shards);
            verify_punctuated_stream(&report.output, |t| t.result.ts())
                .unwrap_or_else(|i| panic!("invalid merged stream at item {i}"));
        }
    }

    #[test]
    fn fragment_replicate_mesh_sim_matches_the_oracle() {
        let sched = schedule(300, 150);
        let oracle = run_kang(band(), &sched);
        let report = run_mesh_simulation(
            &config(2, Algorithm::Llhj),
            band(),
            RoundRobin,
            RouteMode::FragmentReplicate,
            4,
            &sched,
            &MeshPlan::none(),
        );
        assert_eq!(report.result_keys(), oracle.result_keys());
        // No duplicates: every (r, s) pair is examined only in the shard
        // that owns r.
        let keys = report.result_keys();
        let mut deduped = keys.clone();
        deduped.dedup();
        assert_eq!(keys, deduped);
    }

    #[test]
    fn mid_run_split_and_merge_preserve_the_result_set() {
        let sched = schedule(300, 150);
        let oracle = run_kang(equi(), &sched);
        let events = sched.events().len();
        let plan = MeshPlan::from_steps(&[(events / 3, 4, 2), (2 * events / 3, 2, 2)]);
        let report = run_mesh_simulation(
            &config(2, Algorithm::LlhjIndexed),
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            2,
            &sched,
            &plan,
        );
        assert_eq!(report.result_keys(), oracle.result_keys());
        assert_eq!(report.reshard_log.len(), 2);
        assert_eq!(report.reshard_log[0].to_shards, 4);
        assert_eq!(report.reshard_log[1].to_shards, 2);
        assert!(
            report.reshard_log[1].moved_tuples > 0,
            "folding four live shards into two must move window state"
        );
        verify_punctuated_stream(&report.output, |t| t.result.ts())
            .unwrap_or_else(|i| panic!("invalid merged stream at item {i}"));
    }

    /// The durability mirror on the mesh: a checkpointed run is
    /// byte-identical to the plain one (transparency), a crashed run plus
    /// the recovery from its last coordinated checkpoint reproduces the
    /// oracle set exactly, and recovering from the checkpoint is cheaper
    /// in virtual time than replaying the whole schedule cold.
    #[test]
    fn checkpointed_mesh_sim_recovers_from_a_crash() {
        let sched = schedule(300, 150);
        let oracle = run_kang(equi(), &sched);
        let events = sched.events().len();
        let plan = MeshPlan::from_steps(&[(events / 3, 4, 2)]);
        let cfg = config(2, Algorithm::LlhjIndexed);
        let (full, ckpt_log, latest) = run_checkpointed_mesh_simulation(
            &cfg,
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            2,
            &sched,
            &plan,
            100,
            None,
        );
        assert_eq!(
            full.result_keys(),
            oracle.result_keys(),
            "checkpointing must be transparent to the result set"
        );
        assert_eq!(ckpt_log.len(), events / 100);
        assert!(ckpt_log.iter().all(|e| e.cost_ns > 0));
        let latest = latest.expect("run long enough to checkpoint");
        assert_eq!(
            latest.shards.len(),
            4,
            "the last coordinated capture sees the post-split topology"
        );

        let crash_at = 2 * events / 3;
        let (crashed, _, latest) = run_checkpointed_mesh_simulation(
            &cfg,
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            2,
            &sched,
            &plan,
            100,
            Some(crash_at),
        );
        let latest = latest.expect("crash landed after the first checkpoint");
        assert_eq!(latest.after_events, (crash_at / 100) * 100);
        let recovered = recover_mesh_simulation(
            &cfg,
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            2,
            &sched,
            Some(&latest),
        );
        let cold = recover_mesh_simulation(
            &cfg,
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            2,
            &sched,
            None,
        );
        assert_eq!(cold.result_keys(), oracle.result_keys());
        let mut keys = crashed.result_keys();
        keys.extend(recovered.result_keys());
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys,
            oracle.result_keys(),
            "crashed prefix plus recovered suffix must cover the oracle set exactly"
        );
        assert!(
            recovered.makespan_ns < cold.makespan_ns,
            "recovery from a checkpoint must beat a cold replay: {} vs {}",
            recovered.makespan_ns,
            cold.makespan_ns
        );
    }

    /// The tentpole's scaling claim on the simulator: at a fixed per-shard
    /// width, four shards sustain at least twice the per-stream rate of
    /// one shard (the regime where scan cost dominates per-message
    /// overhead, as in the chain-scaling throughput test).
    #[test]
    fn four_shards_sustain_at_least_twice_one_shard() {
        let window = WindowSpec::Count(200);
        let search = ThroughputSearch {
            utilization_threshold: 0.9,
            min_rate: 100.0,
            max_rate: 150_000.0,
            steps: 10,
        };
        let mk = move |rate: f64| {
            let n = (rate * 0.25) as u64;
            let gap = (1e6 / rate) as u64;
            let r: Vec<_> = (0..n)
                .map(|i| (Timestamp::from_micros(i * gap), (i % 97) as u32))
                .collect();
            let s: Vec<_> = (0..n)
                .map(|i| (Timestamp::from_micros(i * gap), (i % 89) as u32))
                .collect();
            DriverSchedule::build(r, s, window, window)
        };
        // The scan-dominated regime (no index: every probe scans the
        // local R window at 400 ns per comparison) — the regime where
        // partitioning the key space pays, as in the chain-scaling test.
        let mut cfg = SimConfig::new(2, Algorithm::Llhj);
        cfg.batch_size = 16;
        cfg.cost.per_comparison_ns = 400.0;
        cfg.window_r = window;
        cfg.window_s = window;
        cfg.latency_bucket = 1_000_000;
        cfg.collect_interval = TimeDelta::from_millis(10);
        let rate_of = |shards: usize| {
            max_sustainable_mesh_rate(
                &cfg,
                equi(),
                RoundRobin,
                RouteMode::CoPartition,
                shards,
                mk,
                &search,
            )
            .rate_per_stream
        };
        let one = rate_of(1);
        let four = rate_of(4);
        assert!(
            four >= one * 2.0,
            "4 shards must sustain at least twice 1 shard: {one} vs {four}"
        );
    }
}
