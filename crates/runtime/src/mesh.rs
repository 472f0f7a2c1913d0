//! The threaded shard mesh: one router, `N` elastic chains.
//!
//! A single [`crate::elastic::ElasticPipeline`] scales by adding nodes,
//! but every tuple still traverses one chain, so its throughput ceiling
//! is the chain's frame rate.  The mesh adds the second axis from
//! ROADMAP's sharding item: the key space is hashed over `N` independent
//! elastic chains by a [`ShardRouter`], each chain keeps its own
//! collector, and the per-shard punctuated outputs are merged by
//! [`merge_punctuated_streams`] into one global stream whose punctuation
//! frontier is the minimum over shards.
//!
//! ## Routing
//!
//! Equi-joins co-partition: both streams hash by join key, so matching
//! tuples meet inside one shard and shards share nothing.  Keyless
//! predicates (bands) fragment-and-replicate: R is partitioned by a hash
//! of its sequence number and S (with its expiries) is broadcast, so each
//! `(r, s)` pair is examined in exactly the shard owning `r`.  Either
//! way the union of shard outputs equals the single-chain result set with
//! no duplicates — the conformance suite checks byte-identity against
//! the Kang oracle.
//!
//! ## Resharding
//!
//! A shard split doubles the chain count.  It reuses the chain-internal
//! fence discipline end to end: every chain fences (drains to
//! quiescence), the router adds one mask bit, and each parent chain's
//! nodes run `ExportAll` → hash-partition → silent `Install`: node `k`'s
//! rows split between the parent's node `k` and the (same-width) child
//! chain's node `k`.  Re-installing at the *same pipeline position* is
//! what keeps stream-monotone node types correct — the positional
//! met-invariant carries over verbatim, so no migration-hop matching is
//! due (and on a fragment-replicate merge, matching again would duplicate
//! results; hence the installs are silent).  Each chain then runs the
//! ordinary census → [`llhj_core::rebalance::RedistributionPlan`] →
//! multi-hop acked handoff pass to level its windows, and the mesh
//! resumes.  A merge is the inverse: the child chain is first scaled to
//! the parent's width, then exports node by node into the parent.

use crate::channel::CancelToken;
use crate::elastic::{CheckpointConfig, ElasticPipeline, NodeFactory, ScalePipeline};
use crate::exec::{flush_slice, PunctualTimers, StreamClock};
use crate::options::PipelineOptions;
use crate::pipeline::RunOutcome;
use llhj_core::checkpoint::{
    load_latest_mesh, ChainCheckpointer, CheckpointError, CheckpointPayload, CheckpointStore,
    ReplayLog,
};
use llhj_core::driver::{DriverEvent, DriverSchedule};
use llhj_core::homing::HomePolicy;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::OutputItem;
use llhj_core::result::TimedResult;
use llhj_core::shard::{merge_punctuated_streams, MeshPlan, Route, RouteMode, ShardRouter};
use llhj_core::time::Timestamp;
use llhj_core::tuple::SeqNo;
use llhj_sync::sync::Arc;
use llhj_sync::time::Duration;

/// One completed mesh reshaping, for the outcome's reshard log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardEvent {
    /// Schedule events consumed when the reshaping fired.
    pub after_events: usize,
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Per-shard chain width after the reshaping.
    pub width: usize,
    /// Window tuples that crossed a shard boundary (split halves moving
    /// to a child, or child windows folding back into a parent).
    pub moved_tuples: usize,
}

/// Everything measured during one mesh run.
#[derive(Debug)]
pub struct MeshOutcome<R, S> {
    /// All results from every shard (collection order within a shard,
    /// shards concatenated; use [`MeshOutcome::result_keys`] to compare
    /// with an oracle).
    pub results: Vec<TimedResult<R, S>>,
    /// The merged punctuated output stream (empty unless `punctuate`).
    pub output: Vec<OutputItem<TimedResult<R, S>>>,
    /// Every reshaping the mesh went through, in order.
    pub reshard_log: Vec<ReshardEvent>,
    /// Final shard count.
    pub shards: usize,
    /// Final per-shard chain widths.
    pub widths: Vec<usize>,
    /// True if the run was interrupted by [`PipelineOptions::cancel`].
    pub cancelled: bool,
}

impl<R, S> MeshOutcome<R, S> {
    /// Sorted `(r_seq, s_seq)` result keys for comparison with the oracle.
    pub fn result_keys(&self) -> Vec<(SeqNo, SeqNo)> {
        let mut keys: Vec<_> = self.results.iter().map(|t| t.result.key()).collect();
        keys.sort_unstable();
        keys
    }
}

/// A live mesh of elastic chains behind one key-partitioning router.
pub struct MeshPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    router: ShardRouter<R, S, P>,
    chains: Vec<ElasticPipeline<R, S, P, H>>,
    factory: NodeFactory<R, S>,
    predicate: P,
    policy: H,
    options: PipelineOptions,
    /// Outcomes of chains retired by shard merges; their output streams
    /// join the final frontier merge.
    retired: Vec<RunOutcome<R, S>>,
    reshard_log: Vec<ReshardEvent>,
    /// The mesh's one stream clock, shared by every chain (split children
    /// included): the router paces against it, the workers stamp with it.
    clock: Arc<StreamClock>,
    migration_stall: Option<Duration>,
    cancelled: bool,
}

impl<R, S, P, H> MeshPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// Deploys `shards` chains (a non-zero power of two) of `width` nodes
    /// each.  `mode` must be a routing the predicate supports — use
    /// [`RouteMode::for_predicate`] unless a test wants to force the
    /// fragment-replicate fallback onto an equi-join.
    pub fn new(
        shards: usize,
        width: usize,
        factory: NodeFactory<R, S>,
        predicate: P,
        policy: H,
        mode: RouteMode,
        options: PipelineOptions,
    ) -> Self {
        assert!(
            mode == RouteMode::FragmentReplicate || predicate.supports_index(),
            "co-partitioning requires a predicate with both equi-key extractors"
        );
        let mut mesh = MeshPipeline {
            router: ShardRouter::new(predicate.clone(), mode, shards),
            chains: Vec::with_capacity(shards),
            clock: Arc::new(StreamClock::new(options.pacing)),
            factory,
            predicate,
            policy,
            options,
            retired: Vec::new(),
            reshard_log: Vec::new(),
            migration_stall: None,
            cancelled: false,
        };
        for _ in 0..shards {
            let chain = mesh.new_chain(width);
            mesh.chains.push(chain);
        }
        mesh
    }

    /// A chain of `width` nodes for the next shard index, on the mesh's
    /// one stream clock (a fresh clock would restart a split child's
    /// stream time at 0 mid-run).  Each chain's core slots are staggered
    /// past the existing chains', so two shards' workers do not stack on
    /// the same cores (a no-op unless `pin_cores`).
    fn new_chain(&self, width: usize) -> ElasticPipeline<R, S, P, H> {
        let mut options = self.options.clone();
        options.pin_core_offset += self.chains.len() * (width + 1);
        let mut chain = ElasticPipeline::with_clock(
            width,
            self.factory.clone(),
            self.predicate.clone(),
            self.policy.clone(),
            options,
            Arc::clone(&self.clock),
        );
        if let Some(stall) = self.migration_stall {
            chain.set_migration_stall(stall);
        }
        chain
    }

    /// Current shard count.
    pub fn shards(&self) -> usize {
        self.chains.len()
    }

    /// The reshard log so far.
    pub fn reshard_log(&self) -> &[ReshardEvent] {
        &self.reshard_log
    }

    /// Pacing before injecting an event scheduled at `at`, until the mesh
    /// clock's deadline for it: the drivers' shared sliced wait, run by
    /// the replay's `timers`, applying every chain's idle-driver flush
    /// policy before each park.  Returns `true` if the wait was cancelled.
    fn pace(&mut self, timers: &mut PunctualTimers, at: Timestamp, cancel: &CancelToken) -> bool {
        let deadline = self.clock.deadline(at);
        timers.pace_until(deadline, flush_slice(&self.options), cancel, || {
            for chain in &mut self.chains {
                chain.poll_entry();
            }
        })
    }

    /// Routes one driver event to its chain(s).  A broadcast clones it
    /// for every chain but the last.
    fn inject(&mut self, event: DriverEvent<R, S>) {
        match self.router.route(&event.event) {
            Route::One(shard) => self.chains[shard].inject(event),
            Route::All => {
                let (last, rest) = self.chains.split_last_mut().expect("a mesh has a chain");
                for chain in rest {
                    chain.inject(event.clone());
                }
                last.inject(event);
            }
        }
    }

    /// Makes every window migration (chain resize or shard reshape) stall
    /// for `stall` per absorbed batch — the fault-injection hook the crash
    /// recovery suite uses to land a cancellation mid-migration.  Applies
    /// to the current chains and to every chain a later split creates.
    pub fn set_migration_stall(&mut self, stall: Duration) {
        self.migration_stall = Some(stall);
        for chain in &mut self.chains {
            chain.set_migration_stall(stall);
        }
    }

    /// One shard split: every chain doubles into itself plus a same-width
    /// child.  Returns the tuples moved across shard boundaries.
    fn split_once(&mut self) -> usize {
        let n = self.chains.len();
        for chain in &mut self.chains {
            chain.fence_for_migration();
        }
        self.router.split();
        let mut moved = 0;
        for p in 0..n {
            let width = self.chains[p].nodes();
            // The child starts at the SAME width as its parent: node `k`'s
            // moving rows re-enter at position `k`, preserving positional
            // invariants; the per-chain rebalance below levels both chains
            // afterwards.
            let mut child = self.new_chain(width);
            let segments = self.chains[p].export_all_segments();
            for (k, segment) in segments.into_iter().enumerate() {
                let (keep, moving) = self.router.split_segment(p, segment);
                moved += moving.len();
                self.chains[p].install_segment(k, keep);
                child.install_segment(k, moving);
            }
            self.chains[p].rebalance();
            child.rebalance();
            // Shard ids: child of parent `p` is `p + n` — pushing parents'
            // children in order lands each at exactly that index.
            self.chains.push(child);
        }
        moved
    }

    /// One shard merge: each child chain folds back into its parent.
    /// Returns the tuples moved across shard boundaries.
    fn merge_once(&mut self) -> usize {
        let n = self.chains.len() / 2;
        // Equalize widths first (scale_to fences internally): the child's
        // node `k` must land on an existing parent node `k`.
        for p in 0..n {
            let width = self.chains[p].nodes();
            self.chains[n + p].scale_to(width);
        }
        for chain in &mut self.chains {
            chain.fence_for_migration();
        }
        self.router.merge();
        let mut moved = 0;
        let children = self.chains.split_off(n);
        for (p, mut child) in children.into_iter().enumerate() {
            let segments = child.export_all_segments();
            for (k, segment) in segments.into_iter().enumerate() {
                // Under fragment-replicate the child's S rows are broadcast
                // copies of the parent's own — the router drops them here
                // (installing them would double the S window and duplicate
                // results).
                let segment = self.router.merge_segment(segment);
                moved += segment.len();
                self.chains[p].install_segment(k, segment);
            }
            self.chains[p].rebalance();
            self.retired.push(child.finish());
        }
        moved
    }

    /// Reshapes the mesh to `target_shards` shards of `width` nodes each,
    /// by repeated splits or merges plus per-chain resizes.
    fn reshape(&mut self, target_shards: usize, width: usize, at_event: usize) {
        assert!(
            target_shards.is_power_of_two(),
            "shard count must be a power of two, got {target_shards}"
        );
        let from = self.chains.len();
        let mut moved = 0;
        while self.chains.len() < target_shards {
            moved += self.split_once();
        }
        while self.chains.len() > target_shards {
            moved += self.merge_once();
        }
        let mut width_changed = false;
        for chain in &mut self.chains {
            if chain.nodes() != width {
                chain.scale_to(width);
                width_changed = true;
            }
        }
        if from != target_shards || width_changed {
            self.reshard_log.push(ReshardEvent {
                after_events: at_event,
                from_shards: from,
                to_shards: target_shards,
                width,
                moved_tuples: moved,
            });
        }
    }

    /// The one driver loop of a mesh: replays `events` through the
    /// router, firing the plan's reshapings at their event indexes, and
    /// calls `after_inject` with the consumed-event count after every
    /// injection (the checkpoint cadence).  Plan steps at or past the end
    /// still run, exactly like a chain-level [`crate::ScalePlan`]'s.
    fn replay(
        &mut self,
        events: impl IntoIterator<Item = DriverEvent<R, S>>,
        plan: &MeshPlan,
        mut after_inject: impl FnMut(&mut Self, usize),
    ) {
        let mut timers = PunctualTimers::new(self.options.pacing);
        let cancel = self.options.cancel.clone().unwrap_or_default();
        let mut steps = plan.steps.iter().peekable();
        let mut consumed = 0;
        for event in events {
            while let Some(step) = steps.next_if(|s| s.after_events <= consumed) {
                self.reshape(step.shards, step.width, consumed);
            }
            if cancel.is_cancelled() || self.pace(&mut timers, event.at, &cancel) {
                self.cancelled = true;
                break;
            }
            self.inject(event);
            consumed += 1;
            after_inject(self, consumed);
        }
        if !self.cancelled {
            for step in steps {
                self.reshape(step.shards, step.width, consumed);
            }
        }
    }

    /// Replays a driver schedule through the mesh, firing the plan's
    /// reshapings at their event indexes.  Call once; then
    /// [`MeshPipeline::finish`].
    pub fn run_schedule(&mut self, schedule: &DriverSchedule<R, S>, plan: &MeshPlan) {
        self.replay(schedule.events(), plan, |_, _| {});
    }

    /// Drains every chain and returns the merged outcome.
    pub fn finish(mut self) -> MeshOutcome<R, S> {
        let mut outcomes = std::mem::take(&mut self.retired);
        let mut widths = Vec::with_capacity(self.chains.len());
        for chain in self.chains.drain(..) {
            widths.push(chain.nodes());
            outcomes.push(chain.finish());
        }
        let shards = widths.len();
        let mut results = Vec::new();
        let mut streams = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            results.extend(outcome.results);
            streams.push(outcome.output);
        }
        MeshOutcome {
            results,
            output: merge_punctuated_streams(streams),
            reshard_log: self.reshard_log,
            shards,
            widths,
            cancelled: self.cancelled,
        }
    }
}

impl<R, S, P, H> MeshPipeline<R, S, P, H>
where
    R: Clone + Send + Sync + CheckpointPayload + 'static,
    S: Clone + Send + Sync + CheckpointPayload + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    /// Realigns the per-shard checkpointers with `shards` live shards
    /// after a reshape: every live shard must write the *same* global
    /// checkpoint sequence number, or [`load_latest_mesh`] would refuse
    /// the set as torn.  Split-created shards join the sequence via
    /// [`ChainCheckpointer::starting_at`]; merged-away shards simply stop
    /// writing (their stale higher-index blobs are ignored because the
    /// anchor's `shards` field shrinks).
    fn sync_checkpointers(
        checkpointers: &mut Vec<ChainCheckpointer<R, S>>,
        shards: usize,
        full_interval: u64,
    ) {
        let seq = checkpointers.first().map_or(0, |c| c.next_seq());
        while checkpointers.len() < shards {
            let shard = checkpointers.len();
            checkpointers.push(ChainCheckpointer::starting_at(shard, full_interval, seq));
        }
        checkpointers.truncate(shards);
    }

    /// [`MeshPipeline::run_schedule`] with durability: every consumed
    /// `cfg.every_events`-th event the driver takes one *coordinated*
    /// checkpoint — each chain fences and captures under the same global
    /// sequence number, epoch (`reshard_log` length) and consumed-event
    /// count, so the per-shard blobs form the atomic unit
    /// [`load_latest_mesh`] demands.  The replay log is trimmed only when
    /// *every* shard's blob landed; one failed write degrades
    /// recoverability (recovery falls back one sequence), never the run.
    pub fn run_schedule_checkpointed(
        &mut self,
        schedule: &DriverSchedule<R, S>,
        plan: &MeshPlan,
        cfg: &CheckpointConfig,
    ) -> (bool, ReplayLog<R, S>) {
        let mut checkpointers: Vec<ChainCheckpointer<R, S>> = (0..self.chains.len())
            .map(|shard| ChainCheckpointer::new(shard, cfg.full_interval))
            .collect();
        // Reshapes already applied to `checkpointers`.
        let mut synced = 0;
        let mut log: ReplayLog<R, S> = ReplayLog::new(cfg.replay_capacity);
        let events = schedule.events();
        self.replay(events, plan, |mesh, consumed| {
            log.record(events.get(consumed - 1).expect("a consumed event"));
            if !consumed.is_multiple_of(cfg.every_events) {
                return;
            }
            for reshape in &mesh.reshard_log[synced..] {
                Self::sync_checkpointers(&mut checkpointers, reshape.to_shards, cfg.full_interval);
            }
            synced = mesh.reshard_log.len();
            // The driver is single-threaded, so no event lands between the
            // per-chain captures: each chain fences inside
            // `capture_checkpoint` and every shard observes the same
            // consumed-event prefix — a coordinated cut by construction.
            let epoch = mesh.reshard_log.len() as u64;
            let shards = mesh.chains.len() as u32;
            let mut all_landed = true;
            for (shard, chain) in mesh.chains.iter_mut().enumerate() {
                let ckpt = chain.capture_checkpoint(epoch, shards, consumed as u64);
                if checkpointers[shard]
                    .append(cfg.store.as_ref(), ckpt)
                    .is_err()
                {
                    all_landed = false;
                }
            }
            if all_landed {
                log.trim_to(consumed);
            }
        });
        (self.cancelled, log)
    }
}

/// Rebuilds a whole mesh from the latest decodable *coordinated*
/// checkpoint sequence in `store`, replays the suffix of `log` past it,
/// and returns the outcome of the recovered portion of the run.
///
/// The checkpointed topology wins: the mesh restarts at the checkpoint's
/// shard count and per-chain widths regardless of `cold_shards` /
/// `cold_width`, which only apply when the store holds no usable
/// checkpoint at all (cold start: replay the whole log).  Any reshapings
/// the crashed run performed after the checkpoint are *not* re-applied —
/// mesh topology steers performance, never the result set, so replaying
/// at the checkpoint topology reproduces the exact suffix results.
///
/// The router is reseeded from the checkpointed window rows themselves:
/// both routing hashes are pure functions of data the blobs carry
/// (join keys under co-partitioning, sequence numbers under
/// fragment-replicate), so no separate routing-table snapshot exists.
#[allow(clippy::too_many_arguments)]
pub fn recover_mesh_pipeline<R, S, P, H>(
    store: &dyn CheckpointStore,
    cold_shards: usize,
    cold_width: usize,
    factory: NodeFactory<R, S>,
    predicate: P,
    policy: H,
    mode: RouteMode,
    options: &PipelineOptions,
    log: &ReplayLog<R, S>,
) -> Result<MeshOutcome<R, S>, CheckpointError>
where
    R: Clone + Send + Sync + CheckpointPayload + 'static,
    S: Clone + Send + Sync + CheckpointPayload + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let loaded = match load_latest_mesh(store) {
        Ok(found) => Some(found),
        Err(CheckpointError::NotFound) => None,
        Err(other) => return Err(other),
    };
    let (shards, width, replay_from) = match &loaded {
        Some((_, ckpts)) => (
            ckpts.len(),
            ckpts[0].width(),
            ckpts[0].events_consumed as usize,
        ),
        None => (cold_shards, cold_width, 0),
    };
    let suffix = log.suffix(replay_from)?;
    let mut mesh = MeshPipeline::new(
        shards,
        width.max(1),
        factory,
        predicate,
        policy,
        mode,
        options.clone(),
    );
    if let Some((_, ckpts)) = loaded {
        for (shard, ckpt) in ckpts.into_iter().enumerate() {
            for tuple in ckpt.segments.iter().flat_map(|seg| seg.wr.iter()) {
                mesh.router.reseed_r(tuple.seq, &tuple.payload);
            }
            for tuple in ckpt.segments.iter().flat_map(|seg| seg.ws.iter()) {
                mesh.router.reseed_s(tuple.seq, &tuple.payload);
            }
            if mesh.chains[shard].nodes() != ckpt.width() {
                mesh.chains[shard].scale_to(ckpt.width());
            }
            mesh.chains[shard].restore_checkpoint(ckpt);
        }
    }
    mesh.replay(suffix, &MeshPlan::none(), |_, _| {});
    Ok(mesh.finish())
}

/// Replays `schedule` through a mesh of `shards` chains of `width` nodes,
/// reshaping at the plan's event indexes, and returns the merged outcome.
/// The convenience wrapper the conformance suite and `bench_shard` use.
#[allow(clippy::too_many_arguments)]
pub fn run_mesh_pipeline<R, S, P, H>(
    shards: usize,
    width: usize,
    factory: NodeFactory<R, S>,
    predicate: P,
    policy: H,
    mode: RouteMode,
    schedule: &DriverSchedule<R, S>,
    plan: &MeshPlan,
    options: &PipelineOptions,
) -> MeshOutcome<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let mut mesh = MeshPipeline::new(
        shards,
        width,
        factory,
        predicate,
        policy,
        mode,
        options.clone(),
    );
    mesh.run_schedule(schedule, plan);
    mesh.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::{llhj_factory, llhj_indexed_factory};
    use crate::fixtures::schedule;
    use crate::options::Pacing;
    use llhj_baselines::run_kang;
    use llhj_core::homing::RoundRobin;
    use llhj_core::predicate::{EquiPredicate, FnPredicate};
    use llhj_core::punctuation::verify_punctuated_stream;

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

    fn opts() -> PipelineOptions {
        // Real-time pacing, like every conformance test in the repo:
        // exact window semantics are asserted for the paced driver only
        // (see [`Pacing::Unpaced`]).
        PipelineOptions {
            batch_size: 4,
            punctuate: true,
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        }
    }

    #[test]
    fn co_partitioned_mesh_matches_the_oracle() {
        let sched = schedule(300, 150);
        let oracle = run_kang(equi(), &sched);
        let outcome = run_mesh_pipeline(
            2,
            2,
            llhj_indexed_factory(equi()),
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            &sched,
            &MeshPlan::none(),
            &opts(),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.shards, 2);
        verify_punctuated_stream(&outcome.output, |t| t.result.ts())
            .expect("merged stream must stay valid");
    }

    #[test]
    fn fragment_replicate_mesh_matches_the_oracle_without_duplicates() {
        let sched = schedule(300, 150);
        let oracle = run_kang(band(), &sched);
        let outcome = run_mesh_pipeline(
            4,
            2,
            llhj_factory(band()),
            band(),
            RoundRobin,
            RouteMode::FragmentReplicate,
            &sched,
            &MeshPlan::none(),
            &opts(),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
    }

    #[test]
    fn mid_run_split_and_merge_preserve_the_result_set() {
        let sched = schedule(400, 150);
        let oracle = run_kang(equi(), &sched);
        let events = sched.events().len();
        let plan = MeshPlan::from_steps(&[(events / 3, 4, 2), (2 * events / 3, 2, 2)]);
        let outcome = run_mesh_pipeline(
            2,
            2,
            llhj_indexed_factory(equi()),
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            &sched,
            &plan,
            &opts(),
        );
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.shards, 2);
        assert_eq!(outcome.reshard_log.len(), 2);
        assert!(
            outcome.reshard_log[0].moved_tuples > 0,
            "a loaded split must move window state into the child shards"
        );
    }

    #[test]
    fn checkpointed_mesh_run_is_transparent_and_coordinated() {
        use llhj_core::checkpoint::{load_latest_mesh, MemoryStore};
        use llhj_sync::sync::Arc;

        let sched = schedule(300, 150);
        let oracle = run_kang(equi(), &sched);
        let events = sched.events().len();
        let plan = MeshPlan::from_steps(&[(events / 2, 4, 2)]);
        let store = Arc::new(MemoryStore::new());
        let cfg = CheckpointConfig::new(Arc::clone(&store) as _, 100);
        let mut mesh = MeshPipeline::new(
            2,
            2,
            llhj_indexed_factory(equi()),
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            opts(),
        );
        let (cancelled, log) = mesh.run_schedule_checkpointed(&sched, &plan, &cfg);
        assert!(!cancelled);
        let outcome = mesh.finish();
        assert_eq!(outcome.result_keys(), oracle.result_keys());
        assert_eq!(outcome.reshard_log.len(), 1);
        // The newest checkpoint sequence must decode as one coordinated
        // four-shard unit taken after the split.
        let (seq, ckpts) = load_latest_mesh::<u32, u32>(store.as_ref()).unwrap();
        assert_eq!(seq as usize + 1, events / 100);
        assert_eq!(ckpts.len(), 4);
        for ckpt in &ckpts {
            assert_eq!(ckpt.epoch, 1, "captured after the reshape");
            assert_eq!(ckpt.shards, 4);
            assert_eq!(ckpt.width(), 2);
        }
        assert_eq!(log.oldest(), (events / 100) * 100);
    }

    #[test]
    fn recovered_mesh_reproduces_the_suffix_of_an_interrupted_run() {
        use crate::channel::CancelToken;
        use llhj_core::checkpoint::{splice_recovered_stream, MemoryStore};
        use llhj_sync::sync::Arc;

        let sched = schedule(300, 150);
        let oracle = run_kang(equi(), &sched);
        let events = sched.events().len();
        let store = Arc::new(MemoryStore::new());
        let cfg = CheckpointConfig::new(Arc::clone(&store) as _, 50);

        // Run to completion once, recording the full (untrimmed) log, to
        // get a crashed prefix: cancel roughly mid-run via a second token
        // armed from a timer would be timing-dependent, so instead crash
        // deterministically by replaying only a prefix of the schedule.
        let cancel = CancelToken::new();
        let mut crashed_opts = opts();
        crashed_opts.cancel = Some(cancel.clone());
        let mut mesh = MeshPipeline::new(
            2,
            2,
            llhj_indexed_factory(equi()),
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            crashed_opts,
        );
        let prefix = DriverSchedule::truncated(&sched, 2 * events / 3);
        let (_, log) = mesh.run_schedule_checkpointed(&prefix, &MeshPlan::none(), &cfg);
        let crashed = mesh.finish();
        assert!(!crashed.output.is_empty());

        let recovered = recover_mesh_pipeline(
            store.as_ref(),
            2,
            2,
            llhj_indexed_factory(equi()),
            equi(),
            RoundRobin,
            RouteMode::CoPartition,
            &opts(),
            &{
                let mut full = log;
                for event in sched.events().slice(2 * events / 3..) {
                    full.record(event);
                }
                full
            },
        )
        .expect("recovery must succeed");
        assert!(!recovered.cancelled);
        let spliced = splice_recovered_stream(crashed.output, recovered.output, |t| t.result.key());
        let mut keys: Vec<_> = spliced
            .iter()
            .filter_map(|item| match item {
                OutputItem::Result(t) => Some(t.result.key()),
                OutputItem::Punctuation(_) => None,
            })
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, oracle.result_keys());
        verify_punctuated_stream(&spliced, |t| t.result.ts())
            .expect("spliced stream must stay valid");
    }
}
