//! Batching is pure transport: whatever the frame granularity, the batched
//! runtime must produce exactly the result set of the per-tuple simulator
//! and of the nested-loop oracle.
//!
//! This is the acceptance test of the batched-transport refactor: once
//! caught up with the schedule, the driver sends an entry frame whenever
//! the entry node has taken the previous one, lets arrivals accumulate (up
//! to `batch_size`) only while it has not, and every worker forwards whole
//! frames.  Low-latency
//! handshake join pairs each expiry stream with the same-direction entry
//! point, so per-direction FIFO order protects same-boundary pairs at any
//! batch size; exactness across *directions* additionally requires the
//! batching delay (how long a frame is held back, boundable via
//! `flush_interval`) to stay below the window overlap of the closest pair
//! — amply true for every granularity swept here, and deliberately
//! violated by the stalled entry node in
//! `flush_interval_bounds_the_batching_delay`'s giant-frame run.
//!
//! The seeded sweeps at the end hold the lock-free ring links to the same
//! standard: both paper workloads at batch 1/16/64 over seeded chain
//! widths, a chain grown and shrunk mid-run (the resize fences drain,
//! detach and re-wire ring edges at the chain boundaries — the window
//! where a transport bug would lose or duplicate a frame), and a run with
//! `pin_cores` on — every one byte-identical to the Kang oracle.  An
//! unpaced sweep over short count windows holds the expiry barrier to the
//! same standard.

use handshake_join::baselines::run_kang;
use handshake_join::prelude::*;
use llhj_core::message::{LeftToRight, NodeOutput, RightToLeft};
use llhj_core::result::ResultTuple;
use llhj_core::stats::NodeCounters;
use llhj_sync::sync::{Arc, Mutex};
use llhj_sync::time::Duration;
use llhj_workload::WorkloadRng;

type Out = NodeOutput<RTuple, STuple, ResultTuple<RTuple, STuple>>;

/// A node behind a wrapper that sleeps on every frame it takes, so its
/// entry links stay busy and the driver has to hold arrivals back.
/// Records the arrival count of every left (R) frame; the left frame with
/// index `stall.0` additionally sleeps `stall.1`.
struct SlowNode {
    inner: Box<dyn PipelineNode<RTuple, STuple>>,
    per_frame: Duration,
    stall: Option<(usize, Duration)>,
    left_frames: Arc<Mutex<Vec<usize>>>,
}

impl PipelineNode<RTuple, STuple> for SlowNode {
    fn handle_left(&mut self, msg: LeftToRight<RTuple>, out: &mut Out) {
        self.inner.handle_left(msg, out);
    }

    fn handle_right(&mut self, msg: RightToLeft<STuple>, out: &mut Out) {
        self.inner.handle_right(msg, out);
    }

    fn handle_left_batch(&mut self, msgs: &mut Vec<LeftToRight<RTuple>>, out: &mut Out) {
        let arrivals = msgs.iter().filter(|m| m.is_arrival()).count();
        let index = {
            let mut frames = self.left_frames.lock().unwrap();
            frames.push(arrivals);
            frames.len() - 1
        };
        let stall = match self.stall {
            Some((at, stall)) if at == index => stall,
            _ => Duration::ZERO,
        };
        llhj_sync::thread::sleep(self.per_frame + stall);
        self.inner.handle_left_batch(msgs, out);
    }

    fn handle_right_batch(&mut self, msgs: &mut Vec<RightToLeft<STuple>>, out: &mut Out) {
        llhj_sync::thread::sleep(self.per_frame);
        self.inner.handle_right_batch(msgs, out);
    }

    fn node_id(&self) -> usize {
        self.inner.node_id()
    }

    fn node_counters(&self) -> NodeCounters {
        self.inner.node_counters()
    }

    fn resident_tuples(&self) -> usize {
        self.inner.resident_tuples()
    }

    fn observe_time(&mut self, now: Timestamp) {
        self.inner.observe_time(now);
    }
}

/// Runs a single slowed-down LLHJ node over `schedule` — both entry links
/// end at it, and no inner link can back up — and returns the outcome
/// plus the arrival count of every left entry frame.
fn run_with_slow_node(
    schedule: &llhj_core::DriverSchedule<RTuple, STuple>,
    options: &PipelineOptions,
    per_frame: Duration,
    stall: Option<(usize, Duration)>,
) -> (RunOutcome<RTuple, STuple>, Vec<usize>) {
    let pred = BandPredicate::default();
    let left_frames = Arc::new(Mutex::new(Vec::new()));
    let inner = llhj_nodes(1, pred).remove(0);
    let node = SlowNode {
        inner,
        per_frame,
        stall,
        left_frames: Arc::clone(&left_frames),
    };
    let outcome = run_pipeline(vec![Box::new(node)], pred, RoundRobin, schedule, options);
    let frames = left_frames.lock().unwrap().clone();
    (outcome, frames)
}

fn band_schedule() -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = BandJoinWorkload::scaled(150.0, TimeDelta::from_secs(8), 350, 0xBA7C);
    band_join_schedule(
        &workload,
        WindowSpec::time_secs(3),
        WindowSpec::time_secs(3),
    )
}

#[test]
fn batched_runtime_matches_simulator_and_oracle_on_the_band_join() {
    let schedule = band_schedule();
    let pred = BandPredicate::default();

    // Nested-loop oracle.
    let oracle = run_kang(pred, &schedule);
    let oracle_keys = oracle.result_keys();
    assert!(
        oracle_keys.len() > 20,
        "workload must produce a meaningful number of matches, got {}",
        oracle_keys.len()
    );

    // Per-tuple discrete-event simulator (batch_size = 1).
    let mut cfg = SimConfig::new(3, Algorithm::Llhj);
    cfg.batch_size = 1;
    cfg.window_r = WindowSpec::time_secs(3);
    cfg.window_s = WindowSpec::time_secs(3);
    cfg.expected_rate_per_sec = 150.0;
    cfg.latency_bucket = 1_000_000;
    let sim = run_simulation(&cfg, pred, RoundRobin, &schedule);
    assert_eq!(sim.result_keys(), oracle_keys, "per-tuple simulator");

    // Batched threaded runtime at every granularity.
    for batch_size in [1usize, 8, 64] {
        let opts = PipelineOptions {
            batch_size,
            pacing: Pacing::RealTime { speedup: 4.0 },
            ..Default::default()
        };
        let outcome = run_pipeline(llhj_nodes(3, pred), pred, RoundRobin, &schedule, &opts);
        assert_eq!(
            outcome.result_keys(),
            oracle_keys,
            "threaded runtime with batch_size {batch_size}"
        );
        // Coarser batches must not inject more frames than finer ones.
        assert!(outcome.frames_injected > 0);
    }
}

#[test]
fn batch_size_one_reproduces_per_tuple_frame_counts() {
    // With batch_size = 1 every arrival is flushed as its own frame (plus
    // any expiries queued since the previous arrival), reproducing the
    // seed's per-tuple injection pattern exactly.
    let schedule = band_schedule();
    let pred = BandPredicate::default();
    let opts = PipelineOptions {
        batch_size: 1,
        ..Default::default()
    };
    let outcome = run_pipeline(llhj_nodes(2, pred), pred, RoundRobin, &schedule, &opts);
    let arrivals = (outcome.arrivals_per_stream.0 + outcome.arrivals_per_stream.1) as u64;
    // One entry frame per arrival (expiries ride the next arrival's frame),
    // plus at most one tail flush per direction for the trailing expiries.
    assert!(
        outcome.frames_injected >= arrivals && outcome.frames_injected <= arrivals + 2,
        "expected ~{arrivals} frames, got {}",
        outcome.frames_injected
    );

    let coarse = PipelineOptions {
        batch_size: 64,
        ..Default::default()
    };
    let coarse_outcome = run_pipeline(llhj_nodes(2, pred), pred, RoundRobin, &schedule, &coarse);
    assert!(
        coarse_outcome.frames_injected * 8 < outcome.frames_injected,
        "batch 64 must inject far fewer frames: {} vs {}",
        coarse_outcome.frames_injected,
        outcome.frames_injected
    );
}

#[test]
fn flush_interval_bounds_the_batching_delay() {
    // `batch_size` is a cap and `flush_interval` the bound on a frame held
    // back by a busy entry link: a node that keeps up gets one frame per
    // arrival (see `light_load_sends_about_one_frame_per_arrival`), so
    // every property here needs a slowed-down node.  The band schedule
    // replays 150 tuples/s per stream; at speedup 8 that is 1.2 per
    // wall-clock ms.
    let schedule = band_schedule();
    let pred = BandPredicate::default();
    let oracle_keys = run_kang(pred, &schedule).result_keys();
    let paced = |batch_size: usize, flush_interval: Option<TimeDelta>| PipelineOptions {
        batch_size,
        flush_interval,
        pacing: Pacing::RealTime { speedup: 8.0 },
        ..Default::default()
    };

    // 1. Under backlog frames fill toward the cap.  The node takes 2 ms
    //    per frame and alternates between its two entry links, so about
    //    five arrivals accumulate behind each frame waiting in a link;
    //    the cap of 8 is never exceeded.
    let (backlog, frames) =
        run_with_slow_node(&schedule, &paced(8, None), Duration::from_millis(2), None);
    let arrivals: usize = frames.iter().sum();
    let mean_fill = arrivals as f64 / frames.len() as f64;
    assert_eq!(arrivals, backlog.arrivals_per_stream.0);
    assert!(
        mean_fill >= 3.0,
        "a busy entry node must see filled frames, got {mean_fill:.2} arrivals per frame"
    );
    assert!(
        frames.iter().all(|&f| f <= 8),
        "batch_size caps every frame: {frames:?}"
    );
    assert_eq!(backlog.result_keys(), oracle_keys, "backlogged run");

    // 2. `flush_interval` bounds how long a held-back frame waits.  The
    //    node stalls for 150 ms (1.2 s of stream time) on one entry
    //    frame; the frame held back behind it still leaves every 100 ms
    //    of stream time, about 15 arrivals.  The assertion leaves room
    //    for a descheduled driver but stays far below the stall's 180.
    let (capped, frames) = run_with_slow_node(
        &schedule,
        &paced(100_000, Some(TimeDelta::from_millis(100))),
        Duration::ZERO,
        Some((20, Duration::from_millis(150))),
    );
    let largest = frames.iter().copied().max().unwrap_or(0);
    assert!(
        largest <= 90,
        "flush_interval must bound a held-back frame, largest held {largest} arrivals"
    );
    assert_eq!(capped.result_keys(), oracle_keys, "age-bounded run");

    // 3. Giant frames stay sound.  Without the age bound a 500 ms stall
    //    (4 s of stream time, longer than the 3 s window) builds one
    //    giant held-back frame.  Its oldest arrivals expire while still
    //    parked in the driver; the expiry barrier (invariant 8) flushes
    //    the frame and waits for it to settle before the expiry enters.
    //    Arrivals delayed past other tuples' expiries can lose matches,
    //    but no tuple outlives its own expiry, so nothing spurious
    //    appears.
    let (waited, frames) = run_with_slow_node(
        &schedule,
        &paced(100_000, None),
        Duration::ZERO,
        Some((20, Duration::from_millis(500))),
    );
    let largest = frames.iter().copied().max().unwrap_or(0);
    assert!(
        largest >= 200,
        "a stalled entry node must leave a giant held-back frame, largest {largest}"
    );
    for key in &waited.result_keys() {
        assert!(
            oracle_keys.contains(key),
            "giant frames produced a spurious result {key:?}"
        );
    }
}

#[test]
fn light_load_sends_about_one_frame_per_arrival() {
    // A paced batch-64 run whose nodes keep up: the entry link is idle at
    // almost every arrival, so frames carry about one arrival each and no
    // result waits for a frame to fill or age out.
    let schedule = band_schedule();
    let pred = BandPredicate::default();
    // Under the old fill-to-`batch_size` rule every frame would wait out
    // this interval (64 arrivals take 427 ms of stream time here), for a
    // median latency near half of it.
    let flush_interval = TimeDelta::from_millis(400);
    let opts = PipelineOptions {
        batch_size: 64,
        flush_interval: Some(flush_interval),
        pacing: Pacing::RealTime { speedup: 4.0 },
        ..Default::default()
    };
    let outcome = run_pipeline(llhj_nodes(2, pred), pred, RoundRobin, &schedule, &opts);
    assert_eq!(
        outcome.result_keys(),
        run_kang(pred, &schedule).result_keys()
    );

    let arrivals = (outcome.arrivals_per_stream.0 + outcome.arrivals_per_stream.1) as u64;
    assert!(
        outcome.frames_injected * 2 >= arrivals,
        "a node that keeps up should get about one frame per arrival: \
         {} frames for {arrivals} arrivals",
        outcome.frames_injected
    );

    let mut latencies: Vec<TimeDelta> = outcome.results.iter().map(|t| t.latency()).collect();
    latencies.sort_unstable();
    let median = latencies[latencies.len() / 2];
    assert!(
        median.as_micros() * 4 < flush_interval.as_micros(),
        "median result latency {median} should sit far below the {flush_interval} bound"
    );
}

fn seeded_band_schedule(seed: u64) -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = BandJoinWorkload::scaled(400.0, TimeDelta::from_millis(400), 220, seed);
    band_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn seeded_equi_schedule(seed: u64) -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = EquiJoinWorkload {
        rate_per_sec: 400.0,
        duration: TimeDelta::from_millis(400),
        domain: 60,
        seed,
    };
    equi_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn sweep_options(batch_size: usize) -> PipelineOptions {
    PipelineOptions {
        batch_size,
        pacing: Pacing::RealTime { speedup: 4.0 },
        ..Default::default()
    }
}

/// Fixed pipelines: both predicates, batch 1/16/64, seeded widths —
/// every combination byte-identical to the oracle.
#[test]
fn batched_runtime_matches_kang_on_both_workloads_across_widths() {
    let mut rng = WorkloadRng::seed_from_u64(0x51_C0DE);
    for case in 0..4u64 {
        let seed = 0x51EED ^ case;
        let nodes = rng.gen_range_u32(2, 5) as usize;
        let band = seeded_band_schedule(seed);
        let equi = seeded_equi_schedule(seed);
        let band_oracle = run_kang(BandPredicate::default(), &band).result_keys();
        let equi_oracle = run_kang(EquiXaPredicate, &equi).result_keys();
        assert!(
            band_oracle.len() > 10,
            "case {case}: degenerate band workload"
        );
        assert!(
            equi_oracle.len() > 10,
            "case {case}: degenerate equi workload"
        );

        for batch_size in [1usize, 16, 64] {
            let label = format!("case {case}, {nodes} nodes, batch {batch_size}");
            let pred = BandPredicate::default();
            let band_run = run_pipeline(
                llhj_nodes(nodes, pred),
                pred,
                RoundRobin,
                &band,
                &sweep_options(batch_size),
            );
            assert_eq!(
                band_run.result_keys(),
                band_oracle,
                "{label}: band vs oracle"
            );

            let equi_run = run_pipeline(
                llhj_indexed_nodes(nodes, EquiXaPredicate),
                EquiXaPredicate,
                HashKey,
                &equi,
                &sweep_options(batch_size),
            );
            assert_eq!(
                equi_run.result_keys(),
                equi_oracle,
                "{label}: equi vs oracle"
            );
        }
    }
}

/// Unpaced fixed chains with short count windows: the driver runs far
/// ahead of the chain, so the expiry barrier (ARCHITECTURE invariant 8)
/// holds almost every expiry until its own arrival has left the chain.
/// Band and indexed equi joins, count 16 and 64, widths 1/2/4, batch
/// 1/16/64, three seeds at 2000 tuples/s per stream for 1 s — every run
/// byte-identical to the oracle.
#[test]
fn unpaced_short_count_windows_match_kang() {
    let unpaced = |batch_size: usize| PipelineOptions {
        batch_size,
        pacing: Pacing::Unpaced,
        ..Default::default()
    };
    for count in [16usize, 64] {
        let window = WindowSpec::Count(count);
        for seed in [0xC0_0016u64, 0xC0_0064, 0xC0_FFEE] {
            let band_workload =
                BandJoinWorkload::scaled(2_000.0, TimeDelta::from_secs(1), 220, seed);
            let band = band_join_schedule(&band_workload, window, window);
            let equi_workload = EquiJoinWorkload {
                rate_per_sec: 2_000.0,
                duration: TimeDelta::from_secs(1),
                domain: 60,
                seed,
            };
            let equi = equi_join_schedule(&equi_workload, window, window);
            let band_oracle = run_kang(BandPredicate::default(), &band).result_keys();
            let equi_oracle = run_kang(EquiXaPredicate, &equi).result_keys();
            assert!(
                band_oracle.len() > 100 && equi_oracle.len() > 100,
                "count {count}, seed {seed:#x}: degenerate workload"
            );
            for nodes in [1usize, 2, 4] {
                for batch_size in [1usize, 16, 64] {
                    let label =
                        format!("count {count}, seed {seed:#x}, {nodes} nodes, batch {batch_size}");
                    let pred = BandPredicate::default();
                    let band_run = run_pipeline(
                        llhj_nodes(nodes, pred),
                        pred,
                        RoundRobin,
                        &band,
                        &unpaced(batch_size),
                    );
                    assert_eq!(
                        band_run.result_keys(),
                        band_oracle,
                        "{label}: band vs oracle"
                    );
                    let equi_run = run_pipeline(
                        llhj_indexed_nodes(nodes, EquiXaPredicate),
                        EquiXaPredicate,
                        HashKey,
                        &equi,
                        &unpaced(batch_size),
                    );
                    assert_eq!(
                        equi_run.result_keys(),
                        equi_oracle,
                        "{label}: equi vs oracle"
                    );
                }
            }
        }
    }
}

/// Elastic pipelines resized mid-run: a grow and a shrink at seeded
/// points, byte-identical to the oracle.
#[test]
fn elastic_grow_and_shrink_mid_run_matches_kang() {
    let mut rng = WorkloadRng::seed_from_u64(0xE1A_571C);
    for case in 0..3u64 {
        let schedule = seeded_band_schedule(0xB4D ^ case);
        let events = schedule.events().len();
        let lo = events / 10;
        let hi = events * 9 / 10;
        let a = lo + rng.gen_range_u32(0, (hi - lo) as u32 - 1) as usize;
        let b = lo + rng.gen_range_u32(0, (hi - lo) as u32 - 1) as usize;
        let (grow_at, shrink_at) = (a.min(b), a.max(b).max(a.min(b) + 1));
        let plan = ScalePlan::new(vec![
            ScaleStep {
                after_events: grow_at,
                target_nodes: 4,
            },
            ScaleStep {
                after_events: shrink_at,
                target_nodes: 2,
            },
        ]);
        let pred = BandPredicate::default();
        let oracle = run_kang(pred, &schedule).result_keys();

        let opts = PipelineOptions {
            batch_size: 16,
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let outcome = run_elastic_pipeline(
            3,
            llhj_factory(pred),
            pred,
            RoundRobin,
            &schedule,
            &plan,
            &opts,
        );
        assert_eq!(
            outcome.resize_log.len(),
            2,
            "case {case}: both resizes must have run"
        );
        assert_eq!(outcome.result_keys(), oracle, "case {case}: vs oracle");
    }
}

/// `pin_cores` is placement, not semantics: results stay byte-identical
/// whether pinning engages or (cores < threads) silently no-ops.
#[test]
fn pinned_run_is_byte_identical_to_unpinned() {
    let pred = BandPredicate::default();
    let schedule = seeded_band_schedule(0x1D_CA7);
    let oracle = run_kang(pred, &schedule).result_keys();
    for pin_cores in [false, true] {
        let opts = PipelineOptions {
            batch_size: 16,
            pin_cores,
            pacing: Pacing::RealTime { speedup: 4.0 },
            ..Default::default()
        };
        let outcome = run_pipeline(llhj_nodes(3, pred), pred, RoundRobin, &schedule, &opts);
        assert_eq!(outcome.result_keys(), oracle, "pin_cores = {pin_cores}");
    }
}
