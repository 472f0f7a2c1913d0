//! The runtime's lock-free metrics bus.
//!
//! The auto-scaler needs a live view of the pipeline's load, but the hot
//! paths (workers handling frames, the collector vacuuming results, the
//! driver injecting) must not take a lock or block to report it.  The bus
//! is therefore a bundle of atomics that producers update with relaxed
//! stores and the sampler reads at its own pace:
//!
//! * **arrival counter** — published by the driver (its one writer) with
//!   a store after every injected tuple; the sampler differentiates it
//!   against the stream clock to get the observed arrival rate.
//! * **result-latency EWMA** — the collector folds every result's latency
//!   into its own [`llhj_core::metrics::LatencyEwma`] and publishes the
//!   average, as `f64` bits in an `AtomicU64`, and the result count once
//!   per vacuum pass: plain stores from the one writer, no atomic
//!   read-modify-write per result.
//! * **per-node busy counters** — each worker owns an `Arc<AtomicU64>` of
//!   nanoseconds spent processing frames; the registry that hands the
//!   slots out is behind a mutex, but it is touched only by the control
//!   plane at spawn/retire time — the per-frame update is a single
//!   relaxed `fetch_add` on the worker's own counter.
//! * **entry-channel occupancy probe** — a registered closure reading
//!   `Sender::len` of the two driver entry channels (re-registered by the
//!   elastic pipeline whenever a resize replaces an entry channel).
//!
//! The sampler (the auto-scaler's controller thread, see
//! [`crate::autoscale`]) turns one read of the bus into a
//! [`MetricsSample`](llhj_core::metrics::MetricsSample) — the shared,
//! substrate-agnostic observation type the policy consumes.

//! ## Memory-ordering audit
//!
//! Every `Ordering` below is deliberate (this file is on the house
//! lint's `Relaxed` whitelist):
//!
//! * `arrivals`, `results`, `latency_bits` and the `node_busy` slots are
//!   **statistics**.  Nothing is published *through*
//!   them — no consumer dereferences other memory on the strength of a
//!   counter value, and the sampler tolerates any interleaving of the
//!   individual updates (it differentiates against its own clock).
//!   `Relaxed` is therefore sufficient: atomicity per counter is all the
//!   protocol needs, and `Relaxed` still guarantees per-counter total
//!   modification order (monotonicity).
//! * `nodes` is different: the control plane stores it *after* wiring a
//!   new chain topology, and the sampler divides busy time by it.  The
//!   store is `Release` and the load `Acquire` so a sampler that
//!   observes the new width also observes the `register_node` writes
//!   that preceded it (the mutex inside `register_node` orders the slot
//!   vector itself; the acquire/release pair orders the width against
//!   the registration).

use llhj_core::time::TimeDelta;
use llhj_sync::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use llhj_sync::sync::{Arc, Mutex};

type OccupancyProbe = Box<dyn Fn() -> (usize, usize) + Send + Sync>;

/// Lock-free sampled pipeline metrics; see the module docs.
pub struct MetricsBus {
    arrivals: AtomicU64,
    results: AtomicU64,
    /// `f64` bits of the latency EWMA in microseconds; `u64::MAX` encodes
    /// "no observation yet" (a NaN bit pattern no latency update writes).
    latency_bits: AtomicU64,
    nodes: AtomicUsize,
    node_busy: Mutex<Vec<Arc<AtomicU64>>>,
    occupancy: Mutex<Option<OccupancyProbe>>,
}

impl Default for MetricsBus {
    fn default() -> Self {
        MetricsBus {
            arrivals: AtomicU64::new(0),
            results: AtomicU64::new(0),
            latency_bits: AtomicU64::new(u64::MAX),
            nodes: AtomicUsize::new(0),
            node_busy: Mutex::new(Vec::new()),
            occupancy: Mutex::new(None),
        }
    }
}

impl MetricsBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the number of tuple arrivals injected so far (driver hot
    /// path, the counter's one writer: one relaxed store).
    pub fn publish_arrivals(&self, total: u64) {
        self.arrivals.store(total, Ordering::Relaxed);
    }

    /// Total tuple arrivals injected so far (both streams).
    pub fn arrivals(&self) -> u64 {
        self.arrivals.load(Ordering::Relaxed)
    }

    /// Publishes the collector's result count and latency EWMA in
    /// microseconds (once per vacuum pass, from the collector — the one
    /// writer: two relaxed stores).
    pub fn publish_latency(&self, results: u64, ewma_us: f64) {
        self.results.store(results, Ordering::Relaxed);
        self.latency_bits
            .store(ewma_us.to_bits(), Ordering::Relaxed);
    }

    /// Current result-latency EWMA (zero before the first result).
    pub fn latency_ewma(&self) -> TimeDelta {
        let bits = self.latency_bits.load(Ordering::Relaxed);
        if bits == u64::MAX {
            TimeDelta::ZERO
        } else {
            TimeDelta::from_micros(f64::from_bits(bits).max(0.0).round() as u64)
        }
    }

    /// Total results collected so far.
    pub fn results(&self) -> u64 {
        self.results.load(Ordering::Relaxed)
    }

    /// Publishes the current chain width (control plane, at deploy and
    /// after every resize).  `Release`: the store publishes the
    /// preceding topology writes (see the module-level ordering audit).
    pub fn set_nodes(&self, nodes: usize) {
        self.nodes.store(nodes, Ordering::Release);
    }

    /// Chain width as last published.  `Acquire` pairs with
    /// [`set_nodes`](MetricsBus::set_nodes)'s `Release`.
    pub fn nodes(&self) -> usize {
        self.nodes.load(Ordering::Acquire)
    }

    /// Hands out (or re-hands-out) the busy-nanoseconds slot for node
    /// `id`.  Called by the control plane when a worker spawns; the
    /// worker then updates the returned counter lock-free.  A re-used id
    /// (a grow after a shrink) resumes the old slot, so busy time is
    /// cumulative per position.
    pub fn register_node(&self, id: usize) -> Arc<AtomicU64> {
        let mut slots = self.node_busy.lock().expect("metrics bus poisoned");
        while slots.len() <= id {
            slots.push(Arc::new(AtomicU64::new(0)));
        }
        Arc::clone(&slots[id])
    }

    /// Snapshot of the busy counters of the first `nodes` positions.
    pub fn busy_ns(&self, nodes: usize) -> Vec<u64> {
        let slots = self.node_busy.lock().expect("metrics bus poisoned");
        (0..nodes)
            .map(|k| {
                slots
                    .get(k)
                    .map(|slot| slot.load(Ordering::Relaxed))
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Registers the closure the sampler uses to read the (left, right)
    /// driver entry-channel occupancy.  The elastic pipeline re-registers
    /// it whenever a resize replaces an entry channel.
    pub fn set_occupancy_probe<F>(&self, probe: F)
    where
        F: Fn() -> (usize, usize) + Send + Sync + 'static,
    {
        *self.occupancy.lock().expect("metrics bus poisoned") = Some(Box::new(probe));
    }

    /// Frames queued in the (left, right) entry channels; `(0, 0)` when no
    /// probe is registered.
    pub fn entry_occupancy(&self) -> (usize, usize) {
        self.occupancy
            .lock()
            .expect("metrics bus poisoned")
            .as_ref()
            .map(|probe| probe())
            .unwrap_or((0, 0))
    }
}

impl std::fmt::Debug for MetricsBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsBus")
            .field("arrivals", &self.arrivals())
            .field("results", &self.results())
            .field("latency_ewma", &self.latency_ewma())
            .field("nodes", &self.nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_matches_the_core_reference() {
        use llhj_core::metrics::{LatencyEwma, DEFAULT_LATENCY_ALPHA};
        let bus = MetricsBus::new();
        assert_eq!(bus.latency_ewma(), TimeDelta::ZERO);
        // The collector's fold, published after every observation.
        let mut fold = LatencyEwma::new(DEFAULT_LATENCY_ALPHA);
        let mut reference = LatencyEwma::new(DEFAULT_LATENCY_ALPHA);
        for (n, ms) in [10u64, 30, 20, 5, 40].into_iter().enumerate() {
            fold.observe(TimeDelta::from_millis(ms));
            bus.publish_latency(n as u64 + 1, fold.value_us());
            reference.observe(TimeDelta::from_millis(ms));
        }
        let got = bus.latency_ewma().as_micros() as i64;
        let want = reference.value().as_micros() as i64;
        assert!(
            (got - want).abs() <= 1,
            "bus {got} us vs reference {want} us"
        );
        assert_eq!(bus.results(), 5);
    }

    #[test]
    fn busy_registry_is_cumulative_per_position() {
        let bus = MetricsBus::new();
        let slot = bus.register_node(2);
        slot.fetch_add(500, Ordering::Relaxed);
        // Re-registering the same position resumes the counter.
        let again = bus.register_node(2);
        again.fetch_add(250, Ordering::Relaxed);
        assert_eq!(bus.busy_ns(4), vec![0, 0, 750, 0]);
        assert_eq!(bus.busy_ns(1), vec![0]);
    }

    #[test]
    fn occupancy_probe_defaults_to_zero_and_follows_registration() {
        let bus = MetricsBus::new();
        assert_eq!(bus.entry_occupancy(), (0, 0));
        let (tx, _rx) = crate::channel::unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let probe_tx = tx.clone();
        bus.set_occupancy_probe(move || (probe_tx.len(), 0));
        assert_eq!(bus.entry_occupancy(), (2, 0));
    }

    #[test]
    fn arrival_counter_counts() {
        let bus = MetricsBus::new();
        bus.publish_arrivals(1);
        bus.publish_arrivals(2);
        assert_eq!(bus.arrivals(), 2);
        bus.set_nodes(3);
        assert_eq!(bus.nodes(), 3);
    }
}
