//! Maximum-sustainable-throughput search (Figure 17 / Table 2 methodology).
//!
//! The paper determines, for each core count, "the maximum throughput that
//! the system could sustain without dropping any data".  The simulator
//! reproduces this by binary-searching the per-stream input rate: a rate is
//! sustainable if no pipeline node's utilization exceeds the configured
//! threshold over the simulated span.

use crate::config::SimConfig;
use crate::engine::run_simulation;
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::HomePolicy;
use llhj_core::predicate::JoinPredicate;

/// Parameters of the binary search.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputSearch {
    /// A run is sustainable if every node's utilization stays at or below
    /// this value.
    pub utilization_threshold: f64,
    /// Lower bound of the search range (tuples/second per stream).
    pub min_rate: f64,
    /// Upper bound of the search range.
    pub max_rate: f64,
    /// Number of bisection steps (each step runs one simulation).
    pub steps: usize,
}

impl Default for ThroughputSearch {
    fn default() -> Self {
        ThroughputSearch {
            utilization_threshold: 0.95,
            min_rate: 50.0,
            max_rate: 50_000.0,
            steps: 12,
        }
    }
}

/// Result of a throughput search.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Highest sustainable per-stream rate found (tuples/second).
    pub rate_per_stream: f64,
    /// Utilization observed at that rate.
    pub utilization: f64,
}

/// Binary-searches the maximum sustainable per-stream rate.
///
/// `make_schedule` builds a driver schedule for a candidate rate (typically
/// by generating a workload of that rate over a fixed duration), and
/// `configure` lets the caller adjust the configuration to the candidate
/// rate (the original handshake join sizes its segments from the expected
/// rate).
pub fn max_sustainable_rate<R, S, P, H, F, C>(
    base_config: &SimConfig,
    predicate: P,
    policy: H,
    mut make_schedule: F,
    mut configure: C,
    search: &ThroughputSearch,
) -> ThroughputResult
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
    F: FnMut(f64) -> DriverSchedule<R, S>,
    C: FnMut(&mut SimConfig, f64),
{
    search.bisect(|rate| {
        let mut config = base_config.clone();
        config.expected_rate_per_sec = rate;
        configure(&mut config, rate);
        let schedule = make_schedule(rate);
        let report = run_simulation(&config, predicate.clone(), policy.clone(), &schedule);
        report
            .is_sustainable(search.utilization_threshold)
            .then(|| report.max_utilization())
    })
}

impl ThroughputSearch {
    /// Bisects the rate range: `sustains(rate)` runs one simulation and
    /// returns its utilization if the rate is sustainable.
    pub(crate) fn bisect(&self, mut sustains: impl FnMut(f64) -> Option<f64>) -> ThroughputResult {
        assert!(self.min_rate > 0.0 && self.max_rate > self.min_rate);
        let (mut lo, mut hi) = (self.min_rate, self.max_rate);
        let mut best = (self.min_rate, 0.0f64);
        for _ in 0..self.steps {
            let mid = (lo + hi) / 2.0;
            match sustains(mid) {
                Some(utilization) => {
                    best = (mid, utilization);
                    lo = mid;
                }
                None => hi = mid,
            }
        }
        ThroughputResult {
            rate_per_stream: best.0,
            utilization: best.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use llhj_core::homing::RoundRobin;
    use llhj_core::predicate::AlwaysFalse;
    use llhj_core::time::TimeDelta;
    use llhj_core::tuple::SeqNo;
    use llhj_core::window::WindowSpec;
    use llhj_core::Timestamp;

    fn schedule_at(rate: f64, duration_s: f64, window: WindowSpec) -> DriverSchedule<u32, u32> {
        let n = (rate * duration_s) as u64;
        let gap = (1e6 / rate) as u64;
        let r: Vec<_> = (0..n)
            .map(|i| (Timestamp::from_micros(i * gap), (i % 97) as u32))
            .collect();
        let s: Vec<_> = (0..n)
            .map(|i| (Timestamp::from_micros(i * gap), (i % 89) as u32))
            .collect();
        DriverSchedule::build(r, s, window, window)
    }

    #[test]
    fn more_nodes_sustain_a_higher_rate() {
        // Use a count-based window so the scan cost per probe does not
        // change with the rate being probed, and make each comparison
        // expensive enough that the scan dominates the per-message
        // overhead -- the regime in which adding cores pays off.
        let window = WindowSpec::Count(200);
        let search = ThroughputSearch {
            utilization_threshold: 0.9,
            min_rate: 100.0,
            max_rate: 20_000.0,
            steps: 8,
        };
        let mut rates = Vec::new();
        for nodes in [1usize, 4] {
            let mut cfg = SimConfig::new(nodes, Algorithm::Llhj);
            cfg.batch_size = 16;
            cfg.cost.per_comparison_ns = 400.0;
            cfg.window_r = window;
            cfg.window_s = window;
            cfg.latency_bucket = 1_000_000;
            cfg.collect_interval = TimeDelta::from_millis(10);
            let result = max_sustainable_rate(
                &cfg,
                AlwaysFalse,
                RoundRobin,
                |rate| schedule_at(rate, 0.25, window),
                |_, _| {},
                &search,
            );
            rates.push(result.rate_per_stream);
            assert!(result.utilization <= 0.9 + 1e-9);
        }
        assert!(
            rates[1] > rates[0] * 1.5,
            "4 nodes should sustain well above 1 node: {rates:?}"
        );
    }

    #[test]
    fn search_returns_a_rate_within_bounds() {
        let window = WindowSpec::Count(50);
        let cfg = SimConfig::new(2, Algorithm::Hsj);
        let search = ThroughputSearch {
            steps: 5,
            ..Default::default()
        };
        let result = max_sustainable_rate(
            &cfg,
            AlwaysFalse,
            RoundRobin,
            |rate| schedule_at(rate, 0.2, window),
            |cfg, rate| cfg.expected_rate_per_sec = rate,
            &search,
        );
        assert!(result.rate_per_stream >= search.min_rate);
        assert!(result.rate_per_stream <= search.max_rate);
        // Silence the unused-import warning for SeqNo while keeping the
        // import available for future assertions.
        let _ = SeqNo(0);
    }
}
