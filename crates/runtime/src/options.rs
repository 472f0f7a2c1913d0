//! Runtime configuration options.

use llhj_core::time::TimeDelta;
use std::time::Duration;

/// How the driver paces the replay of a schedule against the wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Inject events as fast as the pipeline accepts them: a
    /// stress/throughput mode.  Stream time then advances much faster than
    /// processing time, so an expiry is often due while its own arrival is
    /// still travelling; the driver's expiry barrier then drains the
    /// pipeline before the expiry enters, so throughput in this mode
    /// depends on the window length.  `tests/batching_equivalence.rs`
    /// (`unpaced_short_count_windows_match_kang`) asserts exact window
    /// semantics in this mode on short count windows, where the barrier
    /// fires most.
    Unpaced,
    /// Replay the schedule in (scaled) real time: one second of stream time
    /// takes `1 / speedup` seconds of wall-clock time.  Latencies are
    /// measured against the scaled stream clock.
    ///
    /// Each event is injected at its due instant, never before it.  The
    /// driver's wait parks until a learned margin before the deadline —
    /// the measured lateness of its own timed wake-ups, at most 50 µs —
    /// and spins the rest.  For the length of the replay the calling
    /// (driver) thread's timer slack is held at 1 ns, so the kernel does
    /// not defer the driver's wake-ups to coalesce them; the previous
    /// slack is restored when the replay returns.
    RealTime {
        /// Stream-seconds per wall-clock second.
        speedup: f64,
    },
}

/// Options for running a threaded pipeline.
///
/// ## Batching knobs
///
/// The runtime moves [`llhj_core::message::MessageBatch`] frames between
/// workers, so message granularity is a configuration property rather than
/// a structural one.  The driver batches only while the entry node (or
/// the driver itself) is busy: a pending entry frame is sent as soon as it
/// holds an arrival, its entry link is empty (the entry worker has taken
/// every frame sent so far) and the driver has caught up with the
/// schedule.  A node that keeps up under a punctual paced driver
/// therefore sees one frame per arrival and pays no batching delay; while
/// it is behind, arrivals accumulate and one channel operation and wake-up
/// is amortised over the whole frame.  An unpaced driver is always behind,
/// so its frames fill to the cap.
///
/// * [`batch_size`](Self::batch_size) — the *cap* on tuple arrivals per
///   entry frame: a frame that reaches it is sent even onto a busy link.
///   `1` reproduces the per-tuple transport of the paper's low-latency
///   configuration exactly (every message is its own frame).
/// * [`flush_interval`](Self::flush_interval) — optional stream-time bound
///   on how long a held-back frame may wait.  `None` (the default) lets
///   it wait until the link drains and the driver observes that — before
///   it next waits for an event — or until the cap or the end of the
///   stream.  `Some(d)` also sends any frame once it has been filling for
///   `d`; on a paced run the driver's pacing wait wakes every `d / 2` to
///   check, so the bound (and the idle-link rule) holds across arrival
///   gaps without a timer thread.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Pacing mode.
    pub pacing: Pacing,
    /// Cap on the tuple arrivals of one entry frame (64 in the paper's
    /// setup); frames fill toward it only while the entry node is busy.
    pub batch_size: usize,
    /// Maximum stream time an entry frame held back by a busy link may
    /// wait before it is sent regardless.  `None` disables the age bound.
    pub flush_interval: Option<TimeDelta>,
    /// Whether the collector emits punctuations into the output stream.
    pub punctuate: bool,
    /// How often the collector vacuums the per-worker result queues.
    pub collect_interval: Duration,
    /// Bucket size for the latency time series.
    pub latency_bucket: u64,
    /// Optional cooperative cancellation handle.  When set, the driver's
    /// real-time pacing waits park on the token instead of sleeping, so an
    /// external [`CancelToken::cancel`](crate::channel::CancelToken::cancel)
    /// interrupts even a long gap between schedule events: the run stops
    /// injecting, drains the pipeline and returns the partial outcome with
    /// [`RunOutcome::cancelled`](crate::RunOutcome) set.
    pub cancel: Option<crate::channel::CancelToken>,
    /// Pin worker, driver and collector threads to distinct cores
    /// (`sched_setaffinity`).  Off by default; silently a no-op when the
    /// host has fewer cores than the pipeline has threads, on non-Linux
    /// targets, and under the model-checker backend.
    pub pin_cores: bool,
    /// First core slot the pipeline's threads are assigned from (the
    /// shard mesh staggers its chains with this so two shards' workers do
    /// not stack on the same cores).  Ignored unless
    /// [`pin_cores`](Self::pin_cores) is set.
    pub pin_core_offset: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            pacing: Pacing::Unpaced,
            batch_size: 64,
            flush_interval: None,
            punctuate: false,
            collect_interval: Duration::from_millis(1),
            latency_bucket: 10_000,
            cancel: None,
            pin_cores: false,
            pin_core_offset: 0,
        }
    }
}

impl PipelineOptions {
    /// Checks the options for values the runtime cannot execute sensibly.
    ///
    /// Called by [`crate::run_pipeline`] before any thread is spawned.  A
    /// non-finite `speedup` is rejected here because it would otherwise
    /// disappear into a float→integer cast inside the stream clock (NaN
    /// and −∞ silently freeze the clock at 0, +∞ pins it at the maximum) —
    /// a mis-configuration that should fail loudly, not warp time.
    /// Negative and zero speedups remain accepted: they are documented
    /// degenerate cases (the clock clamps them to "frozen", and
    /// [`Self::stream_to_wall`] replays without waiting).
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if let Pacing::RealTime { speedup } = self.pacing {
            if !speedup.is_finite() {
                return Err(format!("RealTime speedup must be finite, got {speedup}"));
            }
        }
        Ok(())
    }

    /// Converts a stream-time delta into the wall-clock duration it takes
    /// under the configured pacing.
    pub fn stream_to_wall(&self, delta: TimeDelta) -> Duration {
        self.pacing.stream_to_wall(delta)
    }
}

impl Pacing {
    /// The wall-clock duration `delta` of stream time takes under this
    /// pacing: zero when unpaced or for a non-positive `speedup`.
    pub(crate) fn stream_to_wall(self, delta: TimeDelta) -> Duration {
        match self {
            Pacing::Unpaced => Duration::ZERO,
            Pacing::RealTime { speedup } => {
                if speedup <= 0.0 {
                    Duration::ZERO
                } else {
                    Duration::from_secs_f64(delta.as_secs_f64() / speedup)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpaced_never_waits() {
        let opts = PipelineOptions::default();
        assert_eq!(
            opts.stream_to_wall(TimeDelta::from_secs(100)),
            Duration::ZERO
        );
    }

    #[test]
    fn real_time_scales_by_speedup() {
        let opts = PipelineOptions {
            pacing: Pacing::RealTime { speedup: 10.0 },
            ..Default::default()
        };
        assert_eq!(
            opts.stream_to_wall(TimeDelta::from_secs(5)),
            Duration::from_millis(500)
        );
        let degenerate = PipelineOptions {
            pacing: Pacing::RealTime { speedup: 0.0 },
            ..Default::default()
        };
        assert_eq!(
            degenerate.stream_to_wall(TimeDelta::from_secs(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn validation_rejects_non_finite_speedup_and_zero_sizes() {
        assert!(PipelineOptions::default().validate().is_ok());
        for speedup in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let opts = PipelineOptions {
                pacing: Pacing::RealTime { speedup },
                ..Default::default()
            };
            assert!(
                opts.validate().is_err(),
                "speedup {speedup} must be rejected"
            );
        }
        // Degenerate but well-defined: negative/zero speedups freeze the
        // clock instead of failing.
        for speedup in [0.0, -1.0] {
            let opts = PipelineOptions {
                pacing: Pacing::RealTime { speedup },
                ..Default::default()
            };
            assert!(opts.validate().is_ok());
        }
        let opts = PipelineOptions {
            batch_size: 0,
            ..Default::default()
        };
        assert!(opts.validate().is_err());
    }
}
