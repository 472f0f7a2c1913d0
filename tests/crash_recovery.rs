//! Seeded fault-injection conformance sweep for the durability layer.
//!
//! A crash is only survivable if three artifacts agree: the persisted
//! checkpoint blobs, the driver-side replay log, and the recovery path
//! that welds them back into a running chain or mesh.  These sweeps kill
//! real threaded pipelines **mid-migration** — the migration-stall hook
//! holds a fenced handoff open for a known wall-time window and a timer
//! thread lands the cancel inside it, the worst instant the fence
//! protocol offers — then rebuild from the latest checkpoint, replay the
//! in-flight suffix, and assert for every seeded case, workload and
//! shard count:
//!
//! * the spliced stream (crashed prefix + recovered suffix, overlap
//!   deduplicated) is **byte-identical** to the Kang oracle;
//! * **no duplicates** anywhere — not in the crashed prefix, not across
//!   the splice seam;
//! * **punctuation stays monotone** across the seam — a recovered
//!   punctuation below the crashed stream's high-water mark never
//!   surfaces;
//! * the discrete-event substrate agrees: the simulator crashes at a
//!   *seeded random event index* (virtual time has no races to stall)
//!   and its checkpoint/recovery mirror reproduces the oracle the same
//!   way.
//!
//! The band workload rides fragment-replicate routing, the Zipf-skewed
//! equi workload rides co-partitioning — both over 1, 2 and 4 shards
//! (one shard is the plain elastic chain; the mesh wraps it above that).

mod common;

use common::{assert_sound, cancel_after, with_deadline};
use handshake_join::prelude::*;
use llhj_core::punctuation::verify_punctuated_stream;
use llhj_core::tuple::SeqNo;
use llhj_sync::sync::Arc;
use llhj_sync::time::Duration;
use llhj_workload::WorkloadRng;

fn band_schedule(rate: f64, duration_ms: u64, seed: u64) -> DriverSchedule<RTuple, STuple> {
    let workload = BandJoinWorkload::scaled(rate, TimeDelta::from_millis(duration_ms), 220, seed);
    band_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn zipf_schedule(rate: f64, duration_ms: u64, seed: u64) -> DriverSchedule<RTuple, STuple> {
    let workload = ZipfEquiJoinWorkload {
        rate_per_sec: rate,
        duration: TimeDelta::from_millis(duration_ms),
        domain: 60,
        theta: 1.0,
        seed,
    };
    zipf_equi_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn paced_options() -> PipelineOptions {
    PipelineOptions {
        batch_size: 4,
        punctuate: true,
        pacing: Pacing::RealTime { speedup: 1.0 },
        ..Default::default()
    }
}

fn stream_keys<R, S>(output: &[OutputItem<TimedResult<R, S>>]) -> Vec<(SeqNo, SeqNo)> {
    let mut keys: Vec<_> = output
        .iter()
        .filter_map(|item| match item {
            OutputItem::Result(t) => Some(t.result.key()),
            OutputItem::Punctuation(_) => None,
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Kills one checkpointed threaded run mid-migration, recovers it from
/// the store plus replay log, and asserts the spliced stream reproduces
/// the oracle exactly.
fn crash_and_recover_runtime<P>(
    label: &str,
    schedule: DriverSchedule<RTuple, STuple>,
    predicate: P,
    make_factory: fn(P) -> NodeFactory<RTuple, STuple>,
    mode: RouteMode,
    shards: usize,
) where
    P: llhj_core::predicate::JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    let oracle = handshake_join::baselines::run_kang(predicate.clone(), &schedule);
    let oracle_keys = oracle.result_keys();
    assert!(
        oracle_keys.len() > 10,
        "{label}: workload must produce a meaningful number of matches"
    );
    let events = schedule.events().len();
    let store = Arc::new(MemoryStore::new());
    let cfg = CheckpointConfig::new(Arc::clone(&store) as _, 50);

    // Kill the run while a stalled migration holds the fence open: the
    // reshape fires at ~25% of the paced replay (~0.5 s), every handoff
    // inside it stalls for 300 ms, and the cancel lands at 0.7 s.
    let cancel = CancelToken::new();
    let canceller = cancel_after(&cancel, Duration::from_millis(700));
    let mut crash_opts = paced_options();
    crash_opts.cancel = Some(cancel);
    let (crashed_output, log, cancelled) = {
        let schedule = schedule.clone();
        let predicate = predicate.clone();
        let cfg = cfg.clone();
        with_deadline(Duration::from_secs(60), move || {
            if shards == 1 {
                let mut pipeline = ElasticPipeline::new(
                    4,
                    make_factory(predicate.clone()),
                    predicate,
                    RoundRobin,
                    crash_opts,
                );
                pipeline.set_migration_stall(Duration::from_millis(300));
                let plan = ScalePlan::new(vec![ScaleStep {
                    after_events: events / 4,
                    target_nodes: 2,
                }]);
                let (cancelled, log) = pipeline.run_schedule_checkpointed(&schedule, &plan, &cfg);
                let outcome = pipeline.finish();
                (outcome.output, log, cancelled)
            } else {
                let mut mesh = MeshPipeline::new(
                    shards,
                    2,
                    make_factory(predicate.clone()),
                    predicate,
                    RoundRobin,
                    mode,
                    crash_opts,
                );
                mesh.set_migration_stall(Duration::from_millis(300));
                let plan = MeshPlan::from_steps(&[(events / 4, shards * 2, 2)]);
                let (cancelled, log) = mesh.run_schedule_checkpointed(&schedule, &plan, &cfg);
                let outcome = mesh.finish();
                (outcome.output, log, cancelled)
            }
        })
    };
    canceller.join().unwrap();
    assert!(cancelled, "{label}: the kill must land mid-run");
    let crashed_keys = stream_keys(&crashed_output);
    assert!(
        crashed_keys.len() < oracle_keys.len(),
        "{label}: the crash must interrupt the run before completion"
    );
    assert_sound(&crashed_keys, &oracle_keys, label);

    // The surviving driver-side artifacts: the store, plus the replay
    // log extended with everything the crashed run never consumed.
    let consumed = log.oldest() + log.len();
    let mut full_log = log;
    for event in schedule.events().slice(consumed..) {
        full_log.record(event);
    }
    let recovered_output = {
        let store = Arc::clone(&store);
        let opts = paced_options();
        with_deadline(Duration::from_secs(60), move || {
            if shards == 1 {
                recover_elastic_pipeline(
                    store.as_ref(),
                    0,
                    4,
                    make_factory(predicate.clone()),
                    predicate,
                    RoundRobin,
                    &opts,
                    &full_log,
                )
                .expect("chain recovery must succeed")
                .output
            } else {
                recover_mesh_pipeline(
                    store.as_ref(),
                    shards,
                    2,
                    make_factory(predicate.clone()),
                    predicate,
                    RoundRobin,
                    mode,
                    &opts,
                    &full_log,
                )
                .expect("mesh recovery must succeed")
                .output
            }
        })
    };

    let spliced = splice_recovered_stream(crashed_output, recovered_output, |t| t.result.key());
    assert_eq!(
        stream_keys(&spliced),
        oracle_keys,
        "{label}: crashed prefix + recovered suffix must be byte-identical to the oracle"
    );
    verify_punctuated_stream(&spliced, |t| t.result.ts()).unwrap_or_else(|i| {
        panic!("{label}: spliced stream loses punctuation monotonicity at item {i}")
    });
}

/// Band join (fragment-replicate) killed mid-migration over 1, 2 and 4
/// shards, then recovered from the checkpoint store.
#[test]
fn band_runtime_survives_a_kill_mid_migration_across_shard_counts() {
    let mut rng = WorkloadRng::seed_from_u64(0x5A4D_4001);
    for shards in [1usize, 2, 4] {
        let seed = rng.gen_range_u32(0, 9_999) as u64;
        crash_and_recover_runtime(
            &format!("band crash (seed {seed}, {shards} shards)"),
            band_schedule(200.0, 2_000, seed),
            BandPredicate::default(),
            llhj_factory,
            RouteMode::FragmentReplicate,
            shards,
        );
    }
}

/// Zipf-skewed equi join (co-partitioned) killed mid-migration over 1, 2
/// and 4 shards, then recovered from the checkpoint store.
#[test]
fn zipf_equi_runtime_survives_a_kill_mid_migration_across_shard_counts() {
    let mut rng = WorkloadRng::seed_from_u64(0x5A4D_4101);
    for shards in [1usize, 2, 4] {
        let seed = rng.gen_range_u32(0, 9_999) as u64;
        crash_and_recover_runtime(
            &format!("zipf crash (seed {seed}, {shards} shards)"),
            zipf_schedule(200.0, 2_000, seed),
            EquiXaPredicate,
            llhj_indexed_factory,
            RouteMode::CoPartition,
            shards,
        );
    }
}

/// One simulated crash/recovery case: checkpointed mesh run crashed at a
/// seeded random event index, recovered from the last coordinated
/// checkpoint, spliced and compared to the oracle.
fn crash_and_recover_sim<P>(
    label: &str,
    schedule: &DriverSchedule<RTuple, STuple>,
    predicate: P,
    algorithm: Algorithm,
    mode: RouteMode,
    shards: usize,
    crash_at: usize,
) where
    P: llhj_core::predicate::JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    let oracle = handshake_join::baselines::run_kang(predicate.clone(), schedule);
    let oracle_keys = oracle.result_keys();
    let events = schedule.events().len();
    let mut cfg = SimConfig::new(2, algorithm);
    cfg.batch_size = 4;
    cfg.punctuate = true;
    cfg.window_r = WindowSpec::Time(TimeDelta::from_millis(150));
    cfg.window_s = WindowSpec::Time(TimeDelta::from_millis(150));
    cfg.expected_rate_per_sec = 400.0;
    cfg.latency_bucket = 1_000_000;
    let plan = MeshPlan::from_steps(&[(events / 4, shards * 2, 2)]);
    let (crashed, _ckpts, latest) = run_checkpointed_mesh_simulation(
        &cfg,
        predicate.clone(),
        RoundRobin,
        mode,
        shards,
        schedule,
        &plan,
        50,
        Some(crash_at),
    );
    let crashed_keys = crashed.result_keys();
    assert_sound(&crashed_keys, &oracle_keys, label);
    let recovered = recover_mesh_simulation(
        &cfg,
        predicate,
        RoundRobin,
        mode,
        shards,
        schedule,
        latest.as_ref(),
    );
    let spliced = splice_recovered_stream(crashed.output, recovered.output, |t| t.result.key());
    assert_eq!(
        stream_keys(&spliced),
        oracle_keys,
        "{label}: simulated crash/recovery must reproduce the oracle"
    );
    verify_punctuated_stream(&spliced, |t| t.result.ts()).unwrap_or_else(|i| {
        panic!("{label}: simulated spliced stream loses monotonicity at item {i}")
    });
}

/// The discrete-event mirror of the kill sweep: both workloads, 1, 2 and
/// 4 shards, each crashed at a seeded random index in the middle 10–90%
/// of the schedule.
#[test]
fn sim_mesh_survives_seeded_random_crashes_across_shard_counts() {
    let mut rng = WorkloadRng::seed_from_u64(0x5A4D_4201);
    for shards in [1usize, 2, 4] {
        let band_seed = rng.gen_range_u32(0, 9_999) as u64;
        let sched = band_schedule(400.0, 400, band_seed);
        let events = sched.events().len();
        let lo = events / 10;
        let crash_at = lo + rng.gen_range_u32(0, (events * 9 / 10 - lo) as u32) as usize;
        crash_and_recover_sim(
            &format!("band sim crash (seed {band_seed}, {shards} shards, crash@{crash_at})"),
            &sched,
            BandPredicate::default(),
            Algorithm::Llhj,
            RouteMode::FragmentReplicate,
            shards,
            crash_at,
        );

        let zipf_seed = rng.gen_range_u32(0, 9_999) as u64;
        let sched = zipf_schedule(400.0, 400, zipf_seed);
        let events = sched.events().len();
        let lo = events / 10;
        let crash_at = lo + rng.gen_range_u32(0, (events * 9 / 10 - lo) as u32) as usize;
        crash_and_recover_sim(
            &format!("zipf sim crash (seed {zipf_seed}, {shards} shards, crash@{crash_at})"),
            &sched,
            EquiXaPredicate,
            Algorithm::LlhjIndexed,
            RouteMode::CoPartition,
            shards,
            crash_at,
        );
    }
}
