//! One stream clock per deployment.
//!
//! The paper defines a result's latency as its detection time minus the
//! later of its two tuples' timestamps (§3.1).  That difference is only
//! meaningful when the driver paces arrivals and the workers stamp
//! detections on the same stream timeline: a paced tuple enters at its
//! timestamp, so no result can be detected before `max(t_r, t_s)`.  These
//! runs assert `detected_at >= ts` for every result of a fixed chain, an
//! elastic chain grown and shrunk mid-run, and a shard mesh split from 2
//! to 4 chains mid-run — the case where a chain created during the run
//! must join the mesh's clock instead of starting its own at 0.

use handshake_join::baselines::run_kang;
use handshake_join::prelude::*;
use llhj_core::result::TimedResult;

fn band_schedule() -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = BandJoinWorkload::scaled(400.0, TimeDelta::from_millis(600), 220, 0xC10C);
    band_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn paced() -> PipelineOptions {
    PipelineOptions {
        batch_size: 4,
        pacing: Pacing::RealTime { speedup: 1.0 },
        ..Default::default()
    }
}

fn assert_detected_after_arrival(label: &str, results: &[TimedResult<RTuple, STuple>]) {
    assert!(!results.is_empty(), "{label}: no results to check");
    for timed in results {
        assert!(
            timed.detected_at >= timed.result.ts(),
            "{label}: result {:?} detected at {} before its tuples' timestamp {}",
            timed.result.key(),
            timed.detected_at,
            timed.result.ts()
        );
    }
}

#[test]
fn fixed_run_detections_never_predate_their_tuples() {
    let schedule = band_schedule();
    let pred = BandPredicate::default();
    let outcome = run_pipeline(llhj_nodes(2, pred), pred, RoundRobin, &schedule, &paced());
    assert_eq!(
        outcome.result_keys(),
        run_kang(pred, &schedule).result_keys()
    );
    assert_detected_after_arrival("fixed chain", &outcome.results);
}

#[test]
fn elastic_resize_detections_never_predate_their_tuples() {
    let schedule = band_schedule();
    let events = schedule.events().len();
    let pred = BandPredicate::default();
    let plan = ScalePlan::new(vec![
        ScaleStep {
            after_events: events / 3,
            target_nodes: 4,
        },
        ScaleStep {
            after_events: 2 * events / 3,
            target_nodes: 2,
        },
    ]);
    let outcome = run_elastic_pipeline(
        2,
        llhj_factory(pred),
        pred,
        RoundRobin,
        &schedule,
        &plan,
        &paced(),
    );
    assert_eq!(outcome.resize_log.len(), 2);
    assert_eq!(
        outcome.result_keys(),
        run_kang(pred, &schedule).result_keys()
    );
    assert_detected_after_arrival("elastic chain", &outcome.results);
}

#[test]
fn mesh_split_detections_never_predate_their_tuples() {
    let schedule = band_schedule();
    let events = schedule.events().len();
    let pred = BandPredicate::default();
    let plan = MeshPlan::from_steps(&[(events / 3, 4, 2)]);
    let outcome = run_mesh_pipeline(
        2,
        2,
        llhj_factory(pred),
        pred,
        RoundRobin,
        RouteMode::FragmentReplicate,
        &schedule,
        &plan,
        &paced(),
    );
    assert_eq!(outcome.shards, 4);
    assert_eq!(
        outcome.result_keys(),
        run_kang(pred, &schedule).result_keys()
    );
    assert_detected_after_arrival("mesh split 2 -> 4", &outcome.results);
}
