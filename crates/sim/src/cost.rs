//! Cost model of the simulated multicore.
//!
//! The simulator charges virtual time for the work a pipeline node performs
//! while handling one message: a fixed per-message cost (dequeue, branch,
//! enqueue), a per-comparison cost for window scans, and a per-result cost
//! for materialising output tuples.  Messages between neighbouring nodes
//! additionally pay a hop latency, which Baumann et al. report to be below
//! one microsecond on the AMD Magny Cours machine used in the paper.
//!
//! The defaults are calibrated so that a 40-node pipeline over 15-minute
//! windows saturates at a few thousand tuples per second per stream, the
//! operating point reported in Figure 17 of the paper.

/// Virtual time in nanoseconds.
pub type SimNanos = u64;

/// Cost model parameters (all in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost of receiving one *frame* (channel operation, consumer
    /// wake-up) regardless of how many messages it carries.  This is the
    /// cost that batching amortises: a frame of `b` messages pays it once
    /// instead of `b` times, which is why coarse-grained handshake join
    /// out-throughputs the eager per-tuple transport (Section 2 of the
    /// paper).
    pub per_frame_ns: f64,
    /// Fixed cost of handling one message within a frame (dispatch,
    /// branch).
    pub per_message_ns: f64,
    /// Cost of one predicate evaluation during a window scan.
    pub per_comparison_ns: f64,
    /// Cost of materialising one result tuple.
    pub per_result_ns: f64,
    /// Core-to-core messaging latency for one hop.
    pub hop_latency_ns: f64,
    /// Extra hop latency when the two endpoint threads are *not* pinned to
    /// their own cores: scheduler migrations keep moving the link's
    /// cursor and frame cache lines between cores, so an unpinned hop
    /// pays `hop_latency_ns + per_hop_contended_ns` while a pinned hop
    /// pays `hop_latency_ns` alone.  Defaults to 0 so the existing
    /// calibration (which never modelled placement) is bit-for-bit
    /// unchanged.
    pub per_hop_contended_ns: f64,
    /// Extra cost per handled message when punctuation generation is on
    /// (high-water-mark maintenance at the pipeline ends).
    pub punctuation_overhead_ns: f64,
    /// Cost of serialising and writing one window tuple into a checkpoint
    /// blob (and of decoding it back on recovery).  Only the durability
    /// paths charge this, so the default calibration of the plain replay
    /// experiments is unaffected.
    pub checkpoint_per_tuple_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_frame_ns: 250.0,
            per_message_ns: 150.0,
            per_comparison_ns: 2.0,
            per_result_ns: 60.0,
            hop_latency_ns: 1_000.0,
            per_hop_contended_ns: 0.0,
            punctuation_overhead_ns: 40.0,
            checkpoint_per_tuple_ns: 25.0,
        }
    }
}

impl CostModel {
    /// Service time of one message given the work it triggered (excludes
    /// the per-frame reception cost; see [`CostModel::frame_service_ns`]).
    pub fn service_ns(&self, comparisons: u64, results: u64, punctuated: bool) -> SimNanos {
        let mut ns = self.per_message_ns
            + comparisons as f64 * self.per_comparison_ns
            + results as f64 * self.per_result_ns;
        if punctuated {
            ns += self.punctuation_overhead_ns;
        }
        ns.max(0.0).round() as SimNanos
    }

    /// Service time of one *frame* of `messages` messages: one frame
    /// reception cost plus the per-message and per-work costs of everything
    /// the frame triggered.  The punctuation overhead (high-water-mark
    /// maintenance at the pipeline ends) is charged once per frame — the
    /// mark only advances to the frame's last arrival.
    pub fn frame_service_ns(
        &self,
        messages: u64,
        comparisons: u64,
        results: u64,
        punctuated: bool,
    ) -> SimNanos {
        let mut ns = self.per_frame_ns
            + messages as f64 * self.per_message_ns
            + comparisons as f64 * self.per_comparison_ns
            + results as f64 * self.per_result_ns;
        if punctuated {
            ns += self.punctuation_overhead_ns;
        }
        ns.max(0.0).round() as SimNanos
    }

    /// Hop latency of an *unpinned* hop (the default placement): base
    /// latency plus the contended surcharge.
    pub fn hop_ns(&self) -> SimNanos {
        (self.hop_latency_ns.max(0.0) + self.per_hop_contended_ns.max(0.0)).round() as SimNanos
    }

    /// Hop latency when both endpoint threads are pinned to their own
    /// cores: the base latency alone.
    pub fn hop_ns_pinned(&self) -> SimNanos {
        self.hop_latency_ns.max(0.0).round() as SimNanos
    }

    /// The hop latency the data plane charges under the given placement.
    pub fn hop_ns_for(&self, pinned: bool) -> SimNanos {
        if pinned {
            self.hop_ns_pinned()
        } else {
            self.hop_ns()
        }
    }

    /// Cost of writing (or reading back) one checkpoint blob of `tuples`
    /// window tuples: one fixed frame-sized cost for the blob itself plus
    /// the per-tuple serialisation cost — the mirror of the runtime's
    /// encode-and-rename store write.
    pub fn checkpoint_ns(&self, tuples: u64) -> SimNanos {
        (self.per_frame_ns + tuples as f64 * self.checkpoint_per_tuple_ns)
            .max(0.0)
            .round() as SimNanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_monotone_in_work() {
        let c = CostModel::default();
        let small = c.service_ns(10, 0, false);
        let large = c.service_ns(1_000, 5, false);
        assert!(large > small);
        assert_eq!(c.service_ns(0, 0, false), 150);
    }

    #[test]
    fn punctuation_adds_fixed_overhead() {
        let c = CostModel::default();
        assert_eq!(
            c.service_ns(0, 0, true) - c.service_ns(0, 0, false),
            c.punctuation_overhead_ns as u64
        );
    }

    #[test]
    fn frame_cost_amortises_the_channel_operation() {
        let c = CostModel::default();
        // One frame of 64 messages is far cheaper than 64 frames of one.
        let batched = c.frame_service_ns(64, 0, 0, false);
        let eager = 64 * c.frame_service_ns(1, 0, 0, false);
        assert!(batched < eager);
        assert_eq!(
            eager - batched,
            63 * c.per_frame_ns as u64,
            "the saving is exactly the amortised per-frame cost"
        );
        // A frame of one message degenerates to frame + message cost.
        assert_eq!(
            c.frame_service_ns(1, 5, 2, true),
            (c.per_frame_ns + c.punctuation_overhead_ns) as u64 + c.service_ns(5, 2, false)
        );
    }

    #[test]
    fn degenerate_costs_clamp_to_zero() {
        let c = CostModel {
            per_frame_ns: 0.0,
            per_message_ns: -5.0,
            per_comparison_ns: 0.0,
            per_result_ns: 0.0,
            hop_latency_ns: -1.0,
            per_hop_contended_ns: -3.0,
            punctuation_overhead_ns: 0.0,
            checkpoint_per_tuple_ns: -2.0,
        };
        assert_eq!(c.service_ns(100, 100, true), 0);
        assert_eq!(c.hop_ns(), 0);
        assert_eq!(c.hop_ns_pinned(), 0);
        assert_eq!(c.checkpoint_ns(50), 0);
    }

    #[test]
    fn contended_surcharge_applies_only_to_unpinned_hops() {
        // Defaults: no surcharge, so both placements cost the same and the
        // historical calibration is untouched.
        let c = CostModel::default();
        assert_eq!(c.hop_ns(), c.hop_ns_pinned());
        // With a surcharge, the unpinned hop is dearer by exactly it.
        let contended = CostModel {
            per_hop_contended_ns: 400.0,
            ..CostModel::default()
        };
        assert_eq!(contended.hop_ns_pinned(), c.hop_ns_pinned());
        assert_eq!(contended.hop_ns(), contended.hop_ns_pinned() + 400);
        assert_eq!(contended.hop_ns_for(true), contended.hop_ns_pinned());
        assert_eq!(contended.hop_ns_for(false), contended.hop_ns());
    }

    #[test]
    fn checkpoint_cost_scales_with_the_window() {
        let c = CostModel::default();
        assert_eq!(c.checkpoint_ns(0), c.per_frame_ns as u64);
        assert!(c.checkpoint_ns(1_000) > c.checkpoint_ns(10));
        assert_eq!(
            c.checkpoint_ns(100) - c.checkpoint_ns(0),
            100 * c.checkpoint_per_tuple_ns as u64
        );
    }

    #[test]
    fn default_calibration_is_in_the_paper_ballpark() {
        // At the paper's operating point (40 cores, 15-minute windows,
        // ~3750 tuples/s/stream) each node must absorb roughly
        // 2*3750 probe scans/s of ~84k tuples each; with the default
        // per-comparison cost that is ~1.3 s of scan work per second of
        // stream time -- i.e. just above saturation, matching the fact that
        // 3750 t/s is the *maximum* sustained rate in Figure 17.
        let c = CostModel::default();
        let rate: f64 = 3750.0;
        let window_tuples = rate * 900.0;
        let per_node_scan = window_tuples / 40.0;
        let busy_per_sec = 2.0 * rate * per_node_scan * c.per_comparison_ns * 1e-9;
        assert!(
            busy_per_sec > 0.8 && busy_per_sec < 2.0,
            "calibration off: {busy_per_sec}"
        );
    }
}
