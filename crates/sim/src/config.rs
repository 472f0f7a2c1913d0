//! Simulation configuration.

use crate::cost::CostModel;
use llhj_core::node_hsj::{FlowPolicy, SegmentCapacity};
use llhj_core::time::TimeDelta;
use llhj_core::window::WindowSpec;

/// Which join algorithm the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Low-latency handshake join (the paper's contribution).
    Llhj,
    /// Low-latency handshake join with node-local hash indexes
    /// (Section 7.6; requires a predicate with equi-keys).
    LlhjIndexed,
    /// The original handshake join baseline.
    Hsj,
}

impl Algorithm {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Llhj => "low-latency handshake join",
            Algorithm::LlhjIndexed => "low-latency handshake join (indexed)",
            Algorithm::Hsj => "handshake join",
        }
    }
}

/// Configuration of one simulated pipeline run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of processing nodes (cores) in the pipeline.
    pub nodes: usize,
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Driver batch size in tuples (64 in the paper's default setup,
    /// 4 in the reduced-batching experiment of Figure 20).
    pub batch_size: usize,
    /// Hardware cost model.
    pub cost: CostModel,
    /// Whether the collector generates punctuations.
    pub punctuate: bool,
    /// Collector vacuuming period.
    pub collect_interval: TimeDelta,
    /// Window specification of stream R (used to size HSJ segments).
    pub window_r: WindowSpec,
    /// Window specification of stream S.
    pub window_s: WindowSpec,
    /// Expected per-stream input rate (tuples/second); used only to size
    /// the segments of the original handshake join.
    pub expected_rate_per_sec: f64,
    /// Bucket size of the latency time series (the paper uses 200,000
    /// output tuples per data point; scaled runs use smaller buckets).
    pub latency_bucket: u64,
    /// Whether an elastic resize ends with the chain-wide redistribution
    /// pass (balanced residence immediately) or leaves placement to the
    /// natural window turnover.  Defaults to `true` — `false` exists for
    /// the `bench_rebalance` baseline that measures what the
    /// redistribution buys.
    pub rebalance_on_resize: bool,
    /// Models the runtime's `pin_cores` placement: pinned endpoints skip
    /// the cost model's contended-hop surcharge
    /// ([`CostModel::per_hop_contended_ns`]).  Defaults to `false`, which
    /// with the default surcharge of 0 leaves every historical calibration
    /// number unchanged.
    pub pin_cores: bool,
}

impl SimConfig {
    /// A reasonable default configuration for scaled-down experiments.
    pub fn new(nodes: usize, algorithm: Algorithm) -> Self {
        SimConfig {
            nodes,
            algorithm,
            batch_size: 64,
            cost: CostModel::default(),
            punctuate: false,
            collect_interval: TimeDelta::from_millis(1),
            window_r: WindowSpec::time_secs(10),
            window_s: WindowSpec::time_secs(10),
            expected_rate_per_sec: 1000.0,
            latency_bucket: 10_000,
            rebalance_on_resize: true,
            pin_cores: false,
        }
    }

    /// Flow policy for the original handshake join: age-based positioning
    /// for time-based windows (the steady-flow model of Section 3.1),
    /// capacity-based flow otherwise.
    pub fn hsj_flow(&self) -> FlowPolicy {
        match (self.window_r.time_span(), self.window_s.time_span()) {
            (Some(wr), Some(ws)) => FlowPolicy::by_age(wr, ws),
            _ => FlowPolicy::ByCapacity(self.hsj_capacity()),
        }
    }

    /// Segment capacity for the original handshake join, derived from the
    /// window specifications and the expected rate.
    pub fn hsj_capacity(&self) -> SegmentCapacity {
        let wr = self.window_r.expected_tuples(self.expected_rate_per_sec);
        let ws = self.window_s.expected_tuples(self.expected_rate_per_sec);
        let clamp = |v: f64| {
            if v.is_finite() {
                v.ceil() as usize
            } else {
                usize::MAX / 2
            }
        };
        SegmentCapacity::balanced(clamp(wr), clamp(ws), self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhj_core::predicate::FnPredicate;

    #[test]
    fn hsj_capacity_scales_with_rate_and_window() {
        let mut cfg = SimConfig::new(4, Algorithm::Hsj);
        cfg.window_r = WindowSpec::time_secs(10);
        cfg.window_s = WindowSpec::time_secs(20);
        cfg.expected_rate_per_sec = 100.0;
        let cap = cfg.hsj_capacity();
        assert_eq!(cap.r, 250);
        assert_eq!(cap.s, 500);
    }

    #[test]
    fn unbounded_windows_give_huge_but_finite_capacity() {
        let mut cfg = SimConfig::new(2, Algorithm::Hsj);
        cfg.window_r = WindowSpec::Unbounded;
        cfg.window_s = WindowSpec::Unbounded;
        let cap = cfg.hsj_capacity();
        assert!(cap.r > 1_000_000);
    }

    #[test]
    fn build_nodes_produces_the_requested_pipeline() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        for algo in [Algorithm::Llhj, Algorithm::LlhjIndexed, Algorithm::Hsj] {
            let cfg = SimConfig::new(3, algo);
            let factory = crate::elastic::node_factory::<u32, u32, _>(&cfg, pred.clone());
            let nodes: Vec<_> = (0..cfg.nodes).map(|k| factory(k, cfg.nodes)).collect();
            assert_eq!(nodes.len(), 3);
            for (k, n) in nodes.iter().enumerate() {
                assert_eq!(n.node_id(), k);
            }
            assert!(!algo.name().is_empty());
        }
    }
}
