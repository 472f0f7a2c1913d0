//! The closed-loop auto-scaler: a controller thread that watches the
//! metrics bus and resizes the elastic pipeline to chase a rate target.
//!
//! PR 3 made the chain width a runtime property (`ScalePipeline`), but a
//! human — or a test script — still decided *when* to call it.  This
//! module closes the loop the ROADMAP asked for:
//!
//! ```text
//!   workers ──busy ns──┐                       ┌─────────────────┐
//!   collector ─latency─┤   MetricsBus (lock-   │ controller      │
//!   driver ──arrivals──┤   free atomics)  ────▶│ thread:         │
//!   entry chans ─occ.──┘                       │ sample → decide │
//!                                              └───────┬─────────┘
//!                 desired width (atomic)               │
//!   driver ◀────────────────────────────────────────────┘
//!     │ applies between schedule events, through the same
//!     ▼ fence + handoff protocol a ScalePlan resize uses
//!   ElasticPipeline::scale_to(target)
//! ```
//!
//! The division of labour is deliberate: the **controller thread** owns
//! sampling and the [`AutoscalePolicy`] hysteresis decision, but the
//! **driver** actuates, because a resize must run the fence protocol —
//! flush entry frames, stop injecting, drain in-flight frames — and only
//! the driver can stop injecting.  The controller therefore publishes a
//! *desired width* through one atomic; the driver checks it before every
//! schedule event and calls `scale_to` when it differs from the live
//! width.  Decisions are made at wall-clock ticks but evaluated against
//! *stream-time* deltas from the shared clock, so a paced replay of the
//! same schedule yields the same rate signal as the simulator's
//! deterministic mirror (`llhj_sim::run_autoscaled_simulation`) — the
//! conformance suite asserts the two produce the same decision sequence.
//!
//! The policy itself — watermarks, latency target, cooldown, clamps —
//! lives in [`llhj_core::metrics`], shared verbatim with the simulator,
//! and is unit-tested there against synthetic metric traces.

use crate::channel::WaitSet;
use crate::elastic::{ElasticPipeline, NodeFactory};
use crate::exec::StreamClock;
use crate::metrics::MetricsBus;
use crate::options::PipelineOptions;
use crate::pipeline::RunOutcome;
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::HomePolicy;
use llhj_core::metrics::{
    AutoscalePolicy, AutoscaleReport, MetricsSample, PolicyState, ResizeDecision,
};
use llhj_core::predicate::JoinPredicate;
use llhj_core::time::TimeDelta;
use llhj_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use llhj_sync::sync::Arc;
use llhj_sync::thread::{self, JoinHandle};
use llhj_sync::time::{Duration, Instant};

/// Configuration of the closed loop: the policy plus how often the
/// controller samples the metrics bus.
#[derive(Debug, Clone)]
pub struct AutoscaleOptions {
    /// The hysteresis policy (watermarks, latency target, cooldown,
    /// min/max width, step).
    pub policy: AutoscalePolicy,
    /// Stream time between controller samples.  Rate and busy-fraction
    /// signals are averaged over this window, so it should be small
    /// against the bursts being chased and large against scheduling
    /// noise; the cooldown should cover several samples.
    pub sample_interval: TimeDelta,
}

struct ControllerShared {
    /// The width the controller wants; the driver applies it between
    /// schedule events.
    desired: AtomicUsize,
    stop: AtomicBool,
    signal: WaitSet,
}

/// Handle on the spawned controller thread.
pub(crate) struct Controller {
    shared: Arc<ControllerShared>,
    handle: JoinHandle<AutoscaleReport>,
    /// The wall-clock sampling period; the driver slices its pacing waits
    /// at this granularity so a desired width published on a silent
    /// stream is actuated on the next tick instead of the next event.
    tick: Duration,
}

impl Controller {
    /// Spawns the controller thread; `bus` and `clock` are the pipeline's.
    pub(crate) fn spawn(
        options: &AutoscaleOptions,
        pipeline_options: &PipelineOptions,
        bus: Arc<MetricsBus>,
        clock: Arc<StreamClock>,
    ) -> Controller {
        options
            .policy
            .validate()
            .unwrap_or_else(|err| panic!("invalid AutoscalePolicy: {err}"));
        assert!(
            options.sample_interval > TimeDelta::ZERO,
            "sample_interval must be positive"
        );
        let tick = pipeline_options
            .stream_to_wall(options.sample_interval)
            .max(Duration::from_micros(100));
        let shared = Arc::new(ControllerShared {
            desired: AtomicUsize::new(bus.nodes()),
            stop: AtomicBool::new(false),
            signal: WaitSet::new(),
        });
        let policy = options.policy.clone();
        let thread_shared = Arc::clone(&shared);
        let handle =
            thread::spawn(move || controller_loop(thread_shared, bus, clock, policy, tick));
        Controller {
            shared,
            handle,
            tick,
        }
    }

    /// The controller's wall-clock sampling period.
    pub(crate) fn tick(&self) -> Duration {
        self.tick
    }

    /// The desired width, if it differs from `current` (the driver's
    /// per-event check).
    pub(crate) fn desired_if_changed(&self, current: usize) -> Option<usize> {
        let desired = self.shared.desired.load(Ordering::SeqCst);
        (desired != current && desired > 0).then_some(desired)
    }

    /// Stops the controller and returns its sample/decision report.
    pub(crate) fn finish(self) -> AutoscaleReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.signal.notify();
        self.handle.join().expect("autoscale controller panicked")
    }
}

/// The controller body: tick, sample the bus, run the policy, publish.
fn controller_loop(
    shared: Arc<ControllerShared>,
    bus: Arc<MetricsBus>,
    clock: Arc<StreamClock>,
    policy: AutoscalePolicy,
    tick: Duration,
) -> AutoscaleReport {
    let mut report = AutoscaleReport::default();
    let mut state = PolicyState::default();
    let mut prev_at = clock.now();
    let mut prev_arrivals = bus.arrivals();
    let mut prev_busy: Vec<u64> = Vec::new();
    let mut prev_wall = Instant::now();
    loop {
        let seen = shared.signal.epoch();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        shared.signal.wait(seen, tick);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }

        // ---- sample ----
        let now = clock.now();
        let dt = now.saturating_since(prev_at).as_secs_f64();
        if dt <= 0.0 {
            // The stream clock has not advanced (start-up, or a frozen
            // degenerate speedup): no rate signal yet.
            continue;
        }
        let arrivals = bus.arrivals();
        // Per-stream rate: the counter counts both streams' tuples.
        let rate = (arrivals.saturating_sub(prev_arrivals)) as f64 / 2.0 / dt;
        let nodes = bus.nodes();
        let busy = bus.busy_ns(nodes);
        let wall_ns = (prev_wall.elapsed().as_nanos() as f64).max(1.0);
        let busy_fraction = busy
            .iter()
            .enumerate()
            .map(|(k, &ns)| {
                let prev = prev_busy.get(k).copied().unwrap_or(0);
                ((ns.saturating_sub(prev)) as f64 / wall_ns).min(1.0)
            })
            .collect();
        let sample = MetricsSample {
            at: now,
            nodes,
            arrival_rate_per_sec: rate,
            latency_ewma: bus.latency_ewma(),
            entry_occupancy: bus.entry_occupancy(),
            busy_fraction,
        };

        // ---- decide ----
        let decision = policy.decide(&mut state, &sample);
        if let Some(target) = decision.target() {
            // `swap` filters a re-decision the driver has not applied yet
            // (it can lag by at most one pacing gap): the desired width is
            // already `target`, so recording it again would duplicate the
            // entry in the decision log.
            if shared.desired.swap(target, Ordering::SeqCst) != target {
                report.decisions.push(ResizeDecision {
                    at: now,
                    from_nodes: nodes,
                    to_nodes: target,
                });
            }
        }
        report.samples.push(sample);
        prev_at = now;
        prev_arrivals = arrivals;
        prev_busy = busy;
        prev_wall = Instant::now();
    }
    report
}

/// Replays `schedule` through an elastic pipeline with the auto-scaler
/// engaged and returns the drained outcome plus the controller's report.
///
/// The closed-loop counterpart of
/// [`crate::elastic::run_elastic_pipeline`]: instead of a
/// [`crate::elastic::ScalePlan`], an [`AutoscalePolicy`] decides the
/// resizes from live metrics.  Requires real-time pacing.
pub fn run_autoscaled_pipeline<R, S, P, H>(
    initial_nodes: usize,
    factory: NodeFactory<R, S>,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
    autoscale: &AutoscaleOptions,
    options: &PipelineOptions,
) -> (RunOutcome<R, S>, AutoscaleReport)
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let mut pipeline =
        ElasticPipeline::new(initial_nodes, factory, predicate, policy, options.clone());
    let report = pipeline.run_schedule_autoscaled(schedule, autoscale);
    (pipeline.finish(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::llhj_factory;
    use crate::fixtures::eq_pred;
    use crate::options::Pacing;
    use llhj_core::homing::RoundRobin;
    use llhj_core::time::Timestamp;
    use llhj_core::window::WindowSpec;

    /// A steady, in-band workload: the controller must hold the width for
    /// the whole run (no spurious resizes from sampling noise), and the
    /// report must carry a plausible sample series.  `min_nodes` is the
    /// deployed width: after the arrivals end the driver still paces
    /// through the expiry tail of the window, where the observed rate is
    /// zero — the clamp (not the band) is what holds the width there.
    #[test]
    fn steady_load_inside_the_band_never_resizes() {
        // 200 tuples/s/stream over 2 nodes = 100/node, between the
        // watermarks below.
        let r: Vec<_> = (0..160u64)
            .map(|i| (Timestamp::from_millis(i * 5), (i % 13) as u32))
            .collect();
        let s: Vec<_> = (0..160u64)
            .map(|i| (Timestamp::from_millis(i * 5), (i % 17) as u32))
            .collect();
        let schedule =
            DriverSchedule::build(r, s, WindowSpec::time_secs(1), WindowSpec::time_secs(1));
        let autoscale = AutoscaleOptions {
            policy: AutoscalePolicy {
                target_p99: TimeDelta::from_millis(250),
                high_watermark: 400.0,
                low_watermark: 20.0,
                cooldown: TimeDelta::from_millis(100),
                min_nodes: 2,
                max_nodes: 8,
                step: 1,
                ..AutoscalePolicy::default()
            },
            sample_interval: TimeDelta::from_millis(50),
        };
        let opts = PipelineOptions {
            batch_size: 4,
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let (outcome, report) = run_autoscaled_pipeline(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &schedule,
            &autoscale,
            &opts,
        );
        assert_eq!(outcome.nodes, 2);
        assert!(outcome.resize_log.is_empty(), "{:?}", outcome.resize_log);
        assert!(report.decisions.is_empty());
        assert!(
            report.samples.len() >= 5,
            "a ~0.8 s run sampled at 50 ms must tick several times, got {}",
            report.samples.len()
        );
        // The rate signal tracked the scheduled rate (200/s per stream)
        // while arrivals flowed (the tail of the series covers the
        // expiry-only window drain, where the rate is legitimately zero).
        assert!(
            report
                .samples
                .iter()
                .any(|s| (50.0..800.0).contains(&s.arrival_rate_per_sec)),
            "some sample should see a rate near 200/s: {:?}",
            report
                .samples
                .iter()
                .map(|s| s.arrival_rate_per_sec)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "autoscaling requires Pacing::RealTime")]
    fn unpaced_runs_are_rejected() {
        let schedule = DriverSchedule::build(
            vec![(Timestamp::from_millis(1), 1u32)],
            vec![(Timestamp::from_millis(1), 1u32)],
            WindowSpec::time_secs(1),
            WindowSpec::time_secs(1),
        );
        let autoscale = AutoscaleOptions {
            policy: AutoscalePolicy {
                target_p99: TimeDelta::from_millis(250),
                high_watermark: 400.0,
                low_watermark: 20.0,
                cooldown: TimeDelta::from_millis(100),
                min_nodes: 1,
                max_nodes: 8,
                step: 1,
                ..AutoscalePolicy::default()
            },
            sample_interval: TimeDelta::from_millis(50),
        };
        let _ = run_autoscaled_pipeline(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &schedule,
            &autoscale,
            &PipelineOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "invalid AutoscalePolicy")]
    fn invalid_policies_are_rejected_before_deployment() {
        let schedule = DriverSchedule::build(
            vec![(Timestamp::from_millis(1), 1u32)],
            vec![(Timestamp::from_millis(1), 1u32)],
            WindowSpec::time_secs(1),
            WindowSpec::time_secs(1),
        );
        let autoscale = AutoscaleOptions {
            policy: AutoscalePolicy {
                target_p99: TimeDelta::from_millis(250),
                high_watermark: 100.0,
                low_watermark: 200.0, // inverted
                cooldown: TimeDelta::from_millis(100),
                min_nodes: 1,
                max_nodes: 8,
                step: 1,
                ..AutoscalePolicy::default()
            },
            sample_interval: TimeDelta::from_millis(50),
        };
        let opts = PipelineOptions {
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let _ = run_autoscaled_pipeline(
            2,
            llhj_factory(eq_pred()),
            eq_pred(),
            RoundRobin,
            &schedule,
            &autoscale,
            &opts,
        );
    }
}
