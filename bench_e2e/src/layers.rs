//! Per-layer figures derived from the spans of one traced run.

use llhj_core::result::TimedResult;
use llhj_core::tuple::{NodeId, Side};
use std::collections::HashMap;

use crate::stats::Quantiles;
use crate::trace::{FrameSpan, NodeTrace, PutSpan, SegmentOp};

/// Per-layer figures of one traced run.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Messages per entry frame (arrivals and expiries), over the entry
    /// frames that carried at least one arrival.
    pub msgs_per_entry_frame: f64,
    /// Last − first arrival timestamp within an entry frame (ms).
    pub fill_ms: Quantiles,
    /// Entry node's frame start − the frame's last arrival timestamp (ms).
    pub entry_wait_ms: Quantiles,
    /// An arrival's frame start at node k − its frame end at the node it
    /// came from (ms).
    pub hop_wait_ms: Quantiles,
    /// Time inside the nodes' batch handlers, per frame (µs).
    pub frame_us: Quantiles,
    /// Total handler time over all nodes (s).
    pub busy_s: f64,
    /// Handler time ÷ the summed lifetimes of the nodes that handled
    /// frames.
    pub busy_share: f64,
    /// Latency split of the results around the median.
    pub decomposition: Decomposition,
    /// Export spans outside checkpoint captures (ms, summed).
    pub export_ms: f64,
    /// Import spans outside checkpoint captures (ms, summed).
    pub import_ms: f64,
    /// Export + reinstall time of each checkpoint capture (ms), grouped by
    /// the store write that follows it.
    pub capture_ms: Quantiles,
    /// Store write time per checkpoint (ms).
    pub put_ms: Quantiles,
    /// Bytes written to the store.
    pub checkpoint_bytes: usize,
}

/// The latency of the results around the median, split along the path of
/// their later tuple: driver batching (`fill`: the tuple's due time to its
/// entry frame's last arrival), entry queue (`entry_wait`: to the entry
/// node's frame start), hops (`hops`: to the detecting node's frame start,
/// covering transport waits and intermediate frames) and the detecting
/// node's handler time (`frame`).  `residual` is the measured latency minus
/// the four parts: what happens between the handler returning and the
/// runtime stamping the result, plus the tracer's own bookkeeping.  All in
/// ms, averaged over `samples` results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decomposition {
    /// Results averaged.
    pub samples: usize,
    /// Their mean measured latency.
    pub latency_ms: f64,
    /// Driver batching.
    pub fill_ms: f64,
    /// Entry queue wait.
    pub entry_wait_ms: f64,
    /// Hops to the detecting node.
    pub hops_ms: f64,
    /// Detecting node's handler time.
    pub frame_ms: f64,
    /// Measured latency minus the four parts.
    pub residual_ms: f64,
}

/// Share of the results, centred on the median latency, that
/// [`Decomposition`] averages over.
const DECOMPOSITION_BAND: f64 = 0.01;

type SeenMap<'a> = HashMap<(Side, u64, NodeId), &'a FrameSpan>;
type EnteredMap<'a> = HashMap<(Side, u64), &'a FrameSpan>;

/// Derives the per-layer figures from a finished run's spans and results.
pub fn analyse<R, S>(
    nodes: &[NodeTrace],
    puts: &[PutSpan],
    results: &[TimedResult<R, S>],
) -> LayerReport {
    let frames = || {
        nodes
            .iter()
            .flat_map(|t| t.frames.iter())
            .filter(|f| f.msgs > 0)
    };
    let entry: Vec<&FrameSpan> = frames().filter(|f| f.entry && f.arrivals > 0).collect();
    let entry_msgs: u64 = entry.iter().map(|f| u64::from(f.msgs)).sum();
    let fill_ms = Quantiles::of(
        entry
            .iter()
            .map(|f| (f.last_arrival_us - f.first_arrival_us) as f64 / 1e3)
            .collect(),
    );
    let entry_wait_ms = Quantiles::of(
        entry
            .iter()
            .map(|f| (f.stream_start_us as f64 - f.last_arrival_us as f64) / 1e3)
            .collect(),
    );
    let frame_us = Quantiles::of(frames().map(FrameSpan::busy_us).collect());
    let busy_s: f64 = frames().map(|f| f.busy_us() / 1e6).sum();
    let lifetime_s: f64 = nodes
        .iter()
        .filter(|t| !t.frames.is_empty())
        .map(|t| t.dropped_ns.saturating_sub(t.created_ns) as f64 / 1e9)
        .sum();

    // Where every arrival was seen: (side, seq, node) -> frame.  An
    // arrival crosses each node once (a resize never splits a traversal:
    // it fences the chain first), so the keys are unique.
    let mut seen: SeenMap<'_> = HashMap::new();
    let mut entered: EnteredMap<'_> = HashMap::new();
    for trace in nodes {
        for visit in &trace.visits {
            let frame = &trace.frames[visit.frame as usize];
            seen.insert((visit.side, visit.seq, frame.node), frame);
            if frame.entry {
                entered.insert((visit.side, visit.seq), frame);
            }
        }
    }
    let mut hops = Vec::new();
    for (&(side, seq, node), frame) in &seen {
        if frame.entry {
            continue;
        }
        let from = match side {
            Side::R => node.checked_sub(1),
            Side::S => Some(node + 1),
        };
        if let Some(prev) = from.and_then(|k| seen.get(&(side, seq, k))) {
            hops.push((frame.stream_start_us as f64 - prev.stream_end_us()) / 1e3);
        }
    }

    let segments = || nodes.iter().flat_map(|t| t.segments.iter());
    let segment_ms = |ops: &[SegmentOp]| -> f64 {
        segments()
            .filter(|s| !s.capture && ops.contains(&s.op))
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    };
    // A capture precedes its store write: group capture spans by the first
    // write that starts after them.
    let mut capture = vec![0.0f64; puts.len()];
    for span in segments().filter(|s| s.capture) {
        if let Some(k) = puts.iter().position(|p| p.start_ns >= span.start_ns) {
            capture[k] += span.dur_ns as f64 / 1e6;
        }
    }

    LayerReport {
        msgs_per_entry_frame: entry_msgs as f64 / entry.len().max(1) as f64,
        fill_ms,
        entry_wait_ms,
        hop_wait_ms: Quantiles::of(hops),
        frame_us,
        busy_s,
        busy_share: if lifetime_s > 0.0 {
            busy_s / lifetime_s
        } else {
            0.0
        },
        decomposition: decompose(results, &seen, &entered),
        export_ms: segment_ms(&[SegmentOp::Export, SegmentOp::ExportRange]),
        import_ms: segment_ms(&[SegmentOp::Import, SegmentOp::InstallSilent]),
        capture_ms: Quantiles::of(capture),
        put_ms: Quantiles::of(puts.iter().map(|p| p.dur_ns as f64 / 1e6).collect()),
        checkpoint_bytes: puts.iter().map(|p| p.bytes).sum(),
    }
}

fn decompose<R, S>(
    results: &[TimedResult<R, S>],
    seen: &SeenMap<'_>,
    entered: &EnteredMap<'_>,
) -> Decomposition {
    let mut order: Vec<(u64, usize)> = results
        .iter()
        .enumerate()
        .map(|(i, t)| (t.latency().as_micros(), i))
        .collect();
    order.sort_unstable();
    let half = ((order.len() as f64 * DECOMPOSITION_BAND / 2.0) as usize).max(1);
    let mid = order.len() / 2;
    let band = &order[mid.saturating_sub(half)..(mid + half).min(order.len())];

    let mut parts: Vec<[f64; 6]> = Vec::new();
    for &(_, i) in band {
        let timed = &results[i];
        let result = &timed.result;
        let ts = result.ts().as_micros() as f64;
        let detected = timed.detected_at.as_micros() as f64;
        // The later tuple carries the result's timestamp; on a tie either
        // may have triggered the detection, so take the one whose frame at
        // the detecting node ended closest to the detection.
        let r = (result.r.ts == result.ts()).then_some((Side::R, result.r.seq.0));
        let s = (result.s.ts == result.ts()).then_some((Side::S, result.s.seq.0));
        let best = r
            .into_iter()
            .chain(s)
            .filter_map(|(side, seq)| {
                let at = seen.get(&(side, seq, result.detected_on))?;
                let entry = entered.get(&(side, seq))?;
                Some((at, entry))
            })
            .min_by(|a, b| {
                let gap = |f: &FrameSpan| (f.stream_end_us() - detected).abs();
                gap(a.0).total_cmp(&gap(b.0))
            });
        let Some((at, entry)) = best else { continue };
        let latency = detected - ts;
        let fill = entry.last_arrival_us as f64 - ts;
        let entry_wait = entry.stream_start_us as f64 - entry.last_arrival_us as f64;
        let hops = at.stream_start_us as f64 - entry.stream_start_us as f64;
        let frame = at.busy_us();
        let residual = latency - fill - entry_wait - hops - frame;
        parts.push([latency, fill, entry_wait, hops, frame, residual].map(|us| us / 1e3));
    }
    let mean = |k: usize| parts.iter().map(|p| p[k]).sum::<f64>() / parts.len().max(1) as f64;
    Decomposition {
        samples: parts.len(),
        latency_ms: mean(0),
        fill_ms: mean(1),
        entry_wait_ms: mean(2),
        hops_ms: mean(3),
        frame_ms: mean(4),
        residual_ms: mean(5),
    }
}
