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
//!
//! A paced driver holds its thread's timer slack at 1 ns so that it wakes
//! on time for every arrival; each run here, a cancelled one included,
//! must hand the calling thread back its own slack.

mod common;

use common::cancel_after;
use handshake_join::baselines::run_kang;
use handshake_join::prelude::*;
use llhj_core::result::TimedResult;
use llhj_sync::time::Duration;

/// The calling thread's own timer slack, through `prctl` (the
/// `/proc/<pid>/timerslack_ns` file shows only the main thread's).
#[cfg(all(target_os = "linux", not(llhj_model)))]
mod timer_slack {
    use std::ffi::{c_int, c_ulong};

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    pub fn get() -> c_int {
        // SAFETY: PR_GET_TIMERSLACK takes no further argument and only
        // returns the calling thread's slack.
        unsafe { prctl(PR_GET_TIMERSLACK) }
    }

    pub fn set(ns: c_ulong) {
        // SAFETY: PR_SET_TIMERSLACK reads one `unsigned long` by value and
        // changes only the calling thread's timer slack.
        let status = unsafe { prctl(PR_SET_TIMERSLACK, ns) };
        assert_eq!(status, 0, "PR_SET_TIMERSLACK failed");
    }
}

/// Runs `run` on a thread whose timer slack is set to a distinctive
/// value, and asserts that the run leaves the slack exactly as it found
/// it.
fn keeps_timer_slack<T>(label: &str, run: impl FnOnce() -> T) -> T {
    #[cfg(all(target_os = "linux", not(llhj_model)))]
    {
        timer_slack::set(123_456);
        let value = run();
        assert_eq!(
            timer_slack::get(),
            123_456,
            "{label}: the replay changed its caller's timer slack"
        );
        value
    }
    #[cfg(not(all(target_os = "linux", not(llhj_model))))]
    {
        let _ = label;
        run()
    }
}

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
    let outcome = keeps_timer_slack("fixed chain", || {
        run_pipeline(llhj_nodes(2, pred), pred, RoundRobin, &schedule, &paced())
    });
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
    let outcome = keeps_timer_slack("elastic chain", || {
        run_elastic_pipeline(
            2,
            llhj_factory(pred),
            pred,
            RoundRobin,
            &schedule,
            &plan,
            &paced(),
        )
    });
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
    let outcome = keeps_timer_slack("mesh split", || {
        run_mesh_pipeline(
            2,
            2,
            llhj_factory(pred),
            pred,
            RoundRobin,
            RouteMode::FragmentReplicate,
            &schedule,
            &plan,
            &paced(),
        )
    });
    assert_eq!(outcome.shards, 4);
    assert_eq!(
        outcome.result_keys(),
        run_kang(pred, &schedule).result_keys()
    );
    assert_detected_after_arrival("mesh split 2 -> 4", &outcome.results);
}

#[test]
fn cancelled_replay_restores_the_timer_slack() {
    let workload = BandJoinWorkload::scaled(400.0, TimeDelta::from_secs(5), 220, 0xCA7C);
    let window = WindowSpec::Time(TimeDelta::from_millis(150));
    let schedule = band_join_schedule(&workload, window, window);
    let pred = BandPredicate::default();
    let cancel = CancelToken::new();
    let options = PipelineOptions {
        cancel: Some(cancel.clone()),
        ..paced()
    };
    // The cancel lands early in a 5 s replay, whose driver spends nearly
    // all its time parked in pacing waits.
    let canceller = cancel_after(&cancel, Duration::from_millis(200));
    let outcome = keeps_timer_slack("cancelled chain", || {
        run_pipeline(llhj_nodes(2, pred), pred, RoundRobin, &schedule, &options)
    });
    canceller.join().expect("canceller panicked");
    assert!(outcome.cancelled, "the replay must have been cancelled");
}
