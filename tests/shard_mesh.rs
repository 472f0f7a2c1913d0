//! Cross-substrate conformance sweep for the key-partitioned shard mesh.
//!
//! The mesh's routing invariant — the union of the shards' outputs equals
//! the single-chain result set, with no duplicates — fails in silent ways:
//! a mis-routed expiry leaves one tuple immortal in one shard, a
//! fragment-replicate merge that re-matches the broadcast S window
//! manufactures duplicate pairs.  These sweeps therefore replay *seeded*
//! workloads over 1, 2 and 4 shards on **both** substrates (threaded mesh
//! and discrete-event mesh simulation), including mid-run shard splits and
//! merges, and assert for every case:
//!
//! * **byte-identical result sets** against the Kang oracle (exact sorted
//!   `(r_seq, s_seq)` key vectors, not counts);
//! * **no duplicates** across every shard boundary and reshaping;
//! * **punctuation monotonicity** of the *merged* output stream — the
//!   per-shard frontiers combine through the min-frontier merge, and the
//!   global stream must stay a valid punctuated stream;
//! * **substrate agreement**: the mesh simulation, reshaped by the same
//!   plan, produces the same result set as the threaded mesh.
//!
//! The equi sweep draws its keys from a **Zipf(1.0)** distribution: a few
//! hot keys dominate, so co-partitioned shard loads are wildly uneven —
//! the adversarial case for hash routing, which must stay exact no matter
//! how skewed the split is.  The band sweep has no keys at all and
//! exercises the fragment-replicate fallback (R partitioned by sequence
//! hash, S broadcast).

use handshake_join::prelude::*;
use llhj_core::punctuation::verify_punctuated_stream;
use llhj_core::tuple::SeqNo;
use llhj_workload::WorkloadRng;

fn band_schedule(seed: u64) -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = BandJoinWorkload::scaled(400.0, TimeDelta::from_millis(400), 220, seed);
    band_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn zipf_schedule(seed: u64) -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = ZipfEquiJoinWorkload {
        rate_per_sec: 400.0,
        duration: TimeDelta::from_millis(400),
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

fn paced_options(batch_size: usize) -> PipelineOptions {
    PipelineOptions {
        batch_size,
        punctuate: true,
        pacing: Pacing::RealTime { speedup: 1.0 },
        ..Default::default()
    }
}

fn assert_exact(label: &str, keys: &[(SeqNo, SeqNo)], oracle: &[(SeqNo, SeqNo)]) {
    assert_eq!(
        keys, oracle,
        "{label}: mesh result set must be byte-identical to the oracle"
    );
    let mut deduped = keys.to_vec();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        keys.len(),
        "{label}: sharding must never duplicate a result"
    );
}

/// Runs one mesh case on both substrates against the oracle.
#[allow(clippy::too_many_arguments)]
fn check_mesh_case<P>(
    label: &str,
    schedule: &llhj_core::DriverSchedule<RTuple, STuple>,
    predicate: P,
    factory: NodeFactory<RTuple, STuple>,
    algorithm: Algorithm,
    mode: RouteMode,
    shards: usize,
    plan: &MeshPlan,
    expected_reshards: usize,
    batch_size: usize,
) where
    P: llhj_core::predicate::JoinPredicate<RTuple, STuple> + Clone + Send + Sync + 'static,
{
    let oracle = handshake_join::baselines::run_kang(predicate.clone(), schedule);
    let oracle_keys = oracle.result_keys();
    assert!(
        oracle_keys.len() > 10,
        "{label}: workload must produce a meaningful number of matches"
    );

    // Threaded mesh.
    let outcome = run_mesh_pipeline(
        shards,
        2,
        factory,
        predicate.clone(),
        RoundRobin,
        mode,
        schedule,
        plan,
        &paced_options(batch_size),
    );
    assert_exact(
        &format!("{label} [runtime]"),
        &outcome.result_keys(),
        &oracle_keys,
    );
    assert_eq!(
        outcome.reshard_log.len(),
        expected_reshards,
        "{label}: every planned reshaping must have run"
    );
    assert_eq!(
        verify_punctuated_stream(&outcome.output, |t| t.result.ts()),
        Ok(()),
        "{label}: the merged global stream must stay a valid punctuated stream"
    );

    // The mesh simulation, reshaped by the same plan, agrees exactly.
    let mut cfg = SimConfig::new(2, algorithm);
    cfg.batch_size = batch_size;
    cfg.punctuate = true;
    cfg.window_r = WindowSpec::Time(TimeDelta::from_millis(150));
    cfg.window_s = WindowSpec::Time(TimeDelta::from_millis(150));
    cfg.expected_rate_per_sec = 400.0;
    cfg.latency_bucket = 1_000_000;
    let sim = run_mesh_simulation(&cfg, predicate, RoundRobin, mode, shards, schedule, plan);
    assert_exact(&format!("{label} [sim]"), &sim.result_keys(), &oracle_keys);
    assert_eq!(sim.reshard_log.len(), expected_reshards);
    assert_eq!(
        verify_punctuated_stream(&sim.output, |t| t.result.ts()),
        Ok(()),
        "{label}: the simulated merged stream must stay valid"
    );
}

/// Draws a reshaping point in the middle 10%–90% of the schedule.
fn reshard_point(rng: &mut WorkloadRng, events: usize) -> usize {
    let lo = events / 10;
    let hi = events * 9 / 10;
    lo + rng.gen_range_u32(0, (hi - lo) as u32) as usize
}

/// Zipf-skewed equi joins, co-partitioned: 1, 2 and 4 static shards must
/// all reproduce the oracle byte-identically despite the skew.
#[test]
fn zipf_equi_mesh_matches_the_oracle_across_shard_counts() {
    for case in 0..2u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5A4D_0001 + case);
        let seed = rng.gen_range_u32(0, 9_999) as u64;
        let schedule = zipf_schedule(seed);
        for shards in [1usize, 2, 4] {
            check_mesh_case(
                &format!("zipf case {case} (seed {seed}, {shards} shards)"),
                &schedule,
                EquiXaPredicate,
                llhj_indexed_factory(EquiXaPredicate),
                Algorithm::LlhjIndexed,
                RouteMode::CoPartition,
                shards,
                &MeshPlan::none(),
                0,
                4,
            );
        }
    }
}

/// Mid-run shard split (2 → 4) and later merge (4 → 2) under Zipf skew:
/// cross-shard state movement through the fenced export → hash-partition
/// → silent-install protocol must neither lose nor duplicate a pair.
#[test]
fn zipf_equi_mesh_survives_a_mid_run_split_and_merge() {
    for case in 0..2u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5A4D_1001 + case);
        let seed = rng.gen_range_u32(0, 9_999) as u64;
        let schedule = zipf_schedule(seed);
        let events = schedule.events().len();
        let split_at = reshard_point(&mut rng, events / 2);
        let merge_at = events / 2 + reshard_point(&mut rng, events / 2);
        check_mesh_case(
            &format!("zipf reshard case {case} (seed {seed}, split@{split_at}, merge@{merge_at})"),
            &schedule,
            EquiXaPredicate,
            llhj_indexed_factory(EquiXaPredicate),
            Algorithm::LlhjIndexed,
            RouteMode::CoPartition,
            2,
            &MeshPlan::from_steps(&[(split_at, 4, 2), (merge_at, 2, 2)]),
            2,
            4,
        );
    }
}

/// Streams that end at different times, on 50 ms windows.  `R ends
/// early`: R and S every 1 ms, but R stops after 150 tuples while S runs
/// on to 400 ms.  `uneven ends`: R every 0.25 ms ends at 100 ms, S every
/// 0.4 ms at 200 ms.  A chain whose last R arrivals wait in a partial
/// entry frame would see their expiries overtake them.
fn uneven_end_schedules() -> Vec<(&'static str, llhj_core::DriverSchedule<RTuple, STuple>)> {
    let window = WindowSpec::Time(TimeDelta::from_millis(50));
    let r = |count: u64, gap_us: u64| -> Vec<(Timestamp, RTuple)> {
        (0..count)
            .map(|i| {
                let x = (i * 7 % 40) as i32 + 1;
                let y = (i * 13 % 40) as f32 + 1.0;
                (Timestamp::from_micros(i * gap_us), RTuple::new(x, y))
            })
            .collect()
    };
    let s = |count: u64, gap_us: u64| -> Vec<(Timestamp, STuple)> {
        (0..count)
            .map(|i| {
                let a = (i * 11 % 40) as i32 + 1;
                let b = (i * 17 % 40) as f32 + 1.0;
                (Timestamp::from_micros(i * gap_us), STuple::new(a, b))
            })
            .collect()
    };
    vec![
        (
            "R ends early",
            llhj_core::DriverSchedule::build(r(150, 1_000), s(400, 1_000), window, window),
        ),
        (
            "uneven ends",
            llhj_core::DriverSchedule::build(r(400, 250), s(500, 400), window, window),
        ),
    ]
}

/// The keyless band join rides the fragment-replicate fallback: R
/// partitioned by sequence hash, S broadcast to every shard — each
/// `(r, s)` pair examined exactly once, in the shard owning `r`.  The
/// uneven-end schedules run at batch 1/8/64 on one and two shards:
/// whichever shard holds a stream's last arrivals in a partial entry
/// frame, their expiries must not overtake them.
#[test]
fn band_mesh_fragment_replicate_matches_the_oracle() {
    for case in 0..2u64 {
        let mut rng = WorkloadRng::seed_from_u64(0x5A4D_2001 + case);
        let seed = rng.gen_range_u32(0, 9_999) as u64;
        let schedule = band_schedule(seed);
        for shards in [2usize, 4] {
            check_mesh_case(
                &format!("band case {case} (seed {seed}, {shards} shards)"),
                &schedule,
                BandPredicate::default(),
                llhj_factory(BandPredicate::default()),
                Algorithm::Llhj,
                RouteMode::FragmentReplicate,
                shards,
                &MeshPlan::none(),
                0,
                4,
            );
        }
    }
    for (label, schedule) in uneven_end_schedules() {
        for shards in [1usize, 2] {
            for batch in [1usize, 8, 64] {
                check_mesh_case(
                    &format!("{label} ({shards} shards, batch {batch})"),
                    &schedule,
                    BandPredicate::default(),
                    llhj_factory(BandPredicate::default()),
                    Algorithm::Llhj,
                    RouteMode::FragmentReplicate,
                    shards,
                    &MeshPlan::none(),
                    0,
                    batch,
                );
            }
        }
    }
}

/// A mid-run split under fragment-replicate: the child inherits a *clone*
/// of the parent's broadcast S window, and the later merge must drop it
/// again — the duplicate-manufacturing path if silent installs were ever
/// replaced by matching installs.
#[test]
fn band_mesh_fragment_replicate_survives_a_mid_run_split_and_merge() {
    let mut rng = WorkloadRng::seed_from_u64(0x5A4D_3001);
    let seed = rng.gen_range_u32(0, 9_999) as u64;
    let schedule = band_schedule(seed);
    let events = schedule.events().len();
    let split_at = reshard_point(&mut rng, events / 2);
    let merge_at = events / 2 + reshard_point(&mut rng, events / 2);
    check_mesh_case(
        &format!("band reshard (seed {seed}, split@{split_at}, merge@{merge_at})"),
        &schedule,
        BandPredicate::default(),
        llhj_factory(BandPredicate::default()),
        Algorithm::Llhj,
        RouteMode::FragmentReplicate,
        2,
        &MeshPlan::from_steps(&[(split_at, 4, 2), (merge_at, 2, 2)]),
        2,
        4,
    );
}
