//! Frame channels: the runtime's point-to-point FIFO transport.
//!
//! Both join algorithms restrict communication to FIFO links between
//! neighbouring cores, and the batched transport moves whole
//! [`llhj_core::message::MessageBatch`] frames over them, so the channel
//! does not need to be clever — it needs to be correct, dependency-free
//! (this environment cannot fetch crossbeam from a registry) and cheap *per
//! frame*: with `batch_size` tuples per frame, one lock acquisition is
//! amortised over the whole run of messages, which is exactly the
//! granularity trade-off the paper's Section 2 analyses.
//!
//! Two transports live behind the one `Sender`/`Receiver` API:
//!
//! * **Mutex** ([`unbounded`]): a `Mutex<VecDeque>` plus a condition
//!   variable for consumer wake-up.  Senders are cloneable (multiple
//!   producers), receivers are unique.  This is the transport of the
//!   genuinely multi-producer edges: the fence protocol's confirmations.
//! * **Ring** ([`spsc_bounded`] / [`spsc_unbounded`]): the lock-free ring
//!   buffer in [`crate::ring`], used for every edge with one producer:
//!   the chain's data links, the per-worker result queues and the worker
//!   command mailboxes.  The consumer's
//!   [`WaitSet`] is bound at construction (the ring's notify path must
//!   not take a lock to look the waiter up), so `set_waiter` on a ring
//!   receiver only *re-asserts* the binding.
//!
//! A worker consumes *two* channels (its left and right input), so blocking
//! on a single channel's condition variable is not enough: a frame on the
//! other input must also wake it.  [`WaitSet`] solves this — it is a small
//! eventcount (epoch counter + condvar) that any number of channels can be
//! registered with via [`Receiver::set_waiter`]; every send into (and every
//! disconnect of) a registered channel bumps the epoch and wakes the
//! waiter, so the consumer can block on one primitive until *either* input
//! has work.  The runtime also uses bare wait sets as shutdown/quiescence
//! signals, making `Condvar::wait_timeout` the single blocking primitive of
//! the whole pipeline.

use std::collections::VecDeque;

use llhj_sync::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use llhj_sync::sync::{Arc, Condvar, Mutex};
use llhj_sync::time::{Duration, Instant};

/// A shared wake-up target: an eventcount (atomic epoch + waiter count,
/// with a `Mutex`/`Condvar` used only for actual parking).
///
/// The consumer snapshots the [`epoch`](WaitSet::epoch), polls its inputs,
/// and — if all were empty — parks in [`wait`](WaitSet::wait) until the
/// epoch moves past the snapshot.  Because the snapshot is taken *before*
/// polling, a producer that enqueues between the poll and the park bumps
/// the epoch first and the wait returns immediately: no lost wake-ups.
///
/// The split representation keeps the producer path cheap: under sustained
/// load the consumer is rarely parked, and [`notify`](WaitSet::notify) is
/// then one atomic increment plus one atomic load — the mutex and condvar
/// are touched only when a waiter is actually asleep.
#[derive(Clone, Default)]
pub struct WaitSet {
    inner: Arc<WaitSetInner>,
}

#[derive(Default)]
struct WaitSetInner {
    epoch: AtomicU64,
    /// Number of threads inside `wait` (incremented under `lock` before
    /// the final epoch re-check, so `notify` cannot observe 0 while a
    /// waiter is between its re-check and the condvar park).
    waiters: AtomicUsize,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl WaitSet {
    /// Creates an empty wait set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current epoch, to pass to a later [`wait`](WaitSet::wait).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(SeqCst)
    }

    /// Bumps the epoch and wakes every parked waiter.  With no waiter
    /// parked this is two uncontended atomic operations.
    pub fn notify(&self) {
        self.inner.epoch.fetch_add(1, SeqCst);
        if self.inner.waiters.load(SeqCst) > 0 {
            // Taking (and immediately releasing) the lock serialises with a
            // waiter that passed its epoch re-check but has not yet parked:
            // either it sees the new epoch, or it is inside `wait_timeout`
            // and the notification below reaches it.
            drop(self.inner.lock.lock().expect("waitset poisoned"));
            self.inner.condvar.notify_all();
        }
    }

    /// Parks until the epoch differs from `seen` or `timeout` elapses.
    /// Returns `true` if the epoch moved (a notification arrived), `false`
    /// on timeout — the caller should re-poll either way.
    pub fn wait(&self, seen: u64, timeout: Duration) -> bool {
        self.wait_until(seen, Instant::now() + timeout)
    }

    /// [`wait`](WaitSet::wait) with an absolute deadline: parks until the
    /// epoch differs from `seen` or `deadline` passes, for callers that
    /// already hold an [`Instant`] (the pacing waits).
    pub fn wait_until(&self, seen: u64, deadline: Instant) -> bool {
        let mut guard = self.inner.lock.lock().expect("waitset poisoned");
        // Registration order matters: advertise the waiter *before* the
        // epoch re-check.  A notify that misses the registration therefore
        // bumped the epoch before our re-check (SeqCst total order), so we
        // return immediately; a notify that sees it will take the lock and
        // signal the condvar.
        self.inner.waiters.fetch_add(1, SeqCst);
        let moved = loop {
            if self.inner.epoch.load(SeqCst) != seen {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            let (g, _) = self
                .inner
                .condvar
                .wait_timeout(guard, deadline - now)
                .expect("waitset poisoned");
            guard = g;
        };
        self.inner.waiters.fetch_sub(1, SeqCst);
        moved
    }

    /// True if `other` is a handle to this same wait set (ring receivers
    /// use it to re-assert their construction-time waiter binding).
    pub fn same_as(&self, other: &WaitSet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for WaitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitSet")
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// A cooperative cancellation handle for long-running pipeline replays.
///
/// The driver's real-time pacing can sleep for arbitrarily long between
/// schedule events (a silent stream, a long simulated gap).  Instead of
/// `thread::sleep`, the driver parks on the token's [`WaitSet`] until the
/// pacing deadline, so an external [`cancel`](CancelToken::cancel)
/// interrupts the wait immediately: the run stops injecting, drains the
/// pipeline and returns the partial outcome — it does not have to sleep
/// out the gap first.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    signal: WaitSet,
}

impl CancelToken {
    /// Creates an un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation and wakes every wait parked on the token.
    /// Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, SeqCst);
        self.signal.notify();
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(SeqCst)
    }

    /// Parks until the deadline passes or the token is cancelled, whichever
    /// comes first.  Returns `true` if the token was cancelled.
    ///
    /// The epoch snapshot is taken before the cancellation re-check, so a
    /// `cancel` racing with the park is never lost (same discipline as the
    /// worker wait loop).
    pub fn wait_until(&self, deadline: Instant) -> bool {
        loop {
            let seen = self.signal.epoch();
            if self.is_cancelled() {
                return true;
            }
            if !self.signal.wait_until(seen, deadline) {
                return self.is_cancelled();
            }
        }
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// Why a receive attempt returned no frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty but senders still exist.
    Empty,
    /// The queue is empty and every sender has been dropped.
    Disconnected,
}

/// Error returned when sending into a channel whose receiver is gone.
/// Carries the rejected frame back to the caller.
#[derive(Debug)]
pub struct SendError<T>(pub T);

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// Wait set to poke whenever a frame arrives or the channel
    /// disconnects, so a consumer blocked across several channels wakes.
    waiter: Option<WaitSet>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
}

/// The transport behind a channel endpoint: the generic mutex queue or
/// the lock-free SPSC ring.
enum Flavor<T> {
    Mutex(Arc<Shared<T>>),
    Ring(Arc<crate::ring::Ring<T>>),
}

impl<T> Clone for Flavor<T> {
    fn clone(&self) -> Self {
        match self {
            Flavor::Mutex(shared) => Flavor::Mutex(Arc::clone(shared)),
            Flavor::Ring(ring) => Flavor::Ring(Arc::clone(ring)),
        }
    }
}

/// The producing half of a frame channel.
pub struct Sender<T> {
    flavor: Flavor<T>,
}

/// The consuming half of a frame channel.
pub struct Receiver<T> {
    flavor: Flavor<T>,
}

/// Creates an unbounded mutex channel: `send` never blocks.  Used for
/// the multi-producer edges (the fence protocol's confirmations), where
/// no producer may wait on the consumer.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            waiter: None,
        }),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            flavor: Flavor::Mutex(Arc::clone(&shared)),
        },
        Receiver {
            flavor: Flavor::Mutex(shared),
        },
    )
}

/// Creates a bounded lock-free SPSC ring channel (`capacity` rounded up
/// to a power of two): the transport for the chain's *entry* edges, where
/// a full ring must block the driver (backpressure).  `waiter` is the
/// consumer's wait set, bound for the channel's lifetime.
pub fn spsc_bounded<T>(capacity: usize, waiter: Option<&WaitSet>) -> (Sender<T>, Receiver<T>) {
    ring_channel(capacity, true, waiter)
}

/// Creates an unbounded ring channel: a lock-free ring of `slots` slots
/// backed by a mutex spillway that absorbs bursts, so `send` never
/// blocks.  The transport for the links *between* workers (where mutual
/// blocking of two neighbours could deadlock), the per-worker result
/// queues and the worker command mailboxes.
pub fn spsc_unbounded<T>(slots: usize, waiter: Option<&WaitSet>) -> (Sender<T>, Receiver<T>) {
    ring_channel(slots, false, waiter)
}

fn ring_channel<T>(
    capacity: usize,
    bounded: bool,
    waiter: Option<&WaitSet>,
) -> (Sender<T>, Receiver<T>) {
    let ring = Arc::new(crate::ring::Ring::new(capacity, bounded, waiter));
    (
        Sender {
            flavor: Flavor::Ring(Arc::clone(&ring)),
        },
        Receiver {
            flavor: Flavor::Ring(ring),
        },
    )
}

impl<T> Sender<T> {
    /// Enqueues one frame, blocking while a bounded ring is full.
    /// Returns the frame if the receiver has been dropped.
    pub fn send(&self, frame: T) -> Result<(), SendError<T>> {
        let shared = match &self.flavor {
            Flavor::Ring(ring) => return ring.send(frame),
            Flavor::Mutex(shared) => shared,
        };
        let mut state = shared.state.lock().expect("channel poisoned");
        if !state.receiver_alive {
            return Err(SendError(frame));
        }
        state.queue.push_back(frame);
        // Notified under the channel lock to avoid cloning the waiter on
        // every send; with no consumer parked this is two atomic ops.
        // Lock order is channel → wait set and `wait` never touches a
        // channel, so no cycle.
        if let Some(waiter) = &state.waiter {
            waiter.notify();
        }
        drop(state);
        shared.not_empty.notify_one();
        Ok(())
    }

    /// Number of frames currently queued in the channel.
    ///
    /// Exposed on the *sender* because that is the half the control plane
    /// keeps: the metrics sampler probes the driver-side entry channels
    /// for occupancy without disturbing the consuming worker.
    pub fn len(&self) -> usize {
        match &self.flavor {
            Flavor::Ring(ring) => ring.len(),
            Flavor::Mutex(shared) => shared.state.lock().expect("channel poisoned").queue.len(),
        }
    }

    /// True if no frame is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match &self.flavor {
            Flavor::Ring(ring) => ring.add_sender(),
            Flavor::Mutex(shared) => {
                shared.state.lock().expect("channel poisoned").senders += 1;
            }
        }
        Sender {
            flavor: self.flavor.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let shared = match &self.flavor {
            Flavor::Ring(ring) => return ring.drop_sender(),
            Flavor::Mutex(shared) => shared,
        };
        let mut state = shared.state.lock().expect("channel poisoned");
        state.senders -= 1;
        let last = state.senders == 0;
        if last {
            // Wake a receiver blocked in recv_timeout (or in a multi-channel
            // WaitSet) so it observes the disconnect promptly.
            if let Some(waiter) = &state.waiter {
                waiter.notify();
            }
            drop(state);
            shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Registers a [`WaitSet`] with this channel: every subsequent send
    /// (and the final sender's disconnect) notifies it.  A consumer that
    /// reads several channels registers the same wait set with each, then
    /// blocks on the set instead of on any single channel.
    ///
    /// Ring channels bind their waiter at construction (the lock-free
    /// notify path cannot look a late-bound waiter up); calling this on
    /// one asserts the argument *is* that bound wait set, catching a
    /// miswired topology at the registration site instead of as a hang.
    pub fn set_waiter(&self, waiter: &WaitSet) {
        match &self.flavor {
            Flavor::Ring(ring) => {
                assert!(
                    ring.wake().same_as(waiter),
                    "ring channels bind their WaitSet at construction; \
                     pass the consumer's wait set to spsc_bounded/spsc_unbounded"
                );
            }
            Flavor::Mutex(shared) => {
                shared.state.lock().expect("channel poisoned").waiter = Some(waiter.clone());
            }
        }
    }

    /// Dequeues the next frame without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = match &self.flavor {
            Flavor::Ring(ring) => return ring.try_recv(),
            Flavor::Mutex(shared) => shared,
        };
        let mut state = shared.state.lock().expect("channel poisoned");
        match state.queue.pop_front() {
            Some(frame) => Ok(frame),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Dequeues the next frame, waiting up to `timeout` for one to arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
        let shared = match &self.flavor {
            Flavor::Ring(ring) => return ring.recv_timeout(timeout),
            Flavor::Mutex(shared) => shared,
        };
        let deadline = Instant::now() + timeout;
        let mut state = shared.state.lock().expect("channel poisoned");
        loop {
            if let Some(frame) = state.queue.pop_front() {
                return Ok(frame);
            }
            if state.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TryRecvError::Empty);
            }
            let (guard, _timeout_result) = shared
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("channel poisoned");
            state = guard;
        }
    }

    /// True if no frame is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued frames.
    pub fn len(&self) -> usize {
        match &self.flavor {
            Flavor::Ring(ring) => ring.len(),
            Flavor::Mutex(shared) => shared.state.lock().expect("channel poisoned").queue.len(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let shared = match &self.flavor {
            Flavor::Ring(ring) => return ring.drop_receiver(),
            Flavor::Mutex(shared) => shared,
        };
        let mut state = shared.state.lock().expect("channel poisoned");
        state.receiver_alive = false;
        state.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhj_sync::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.len(), 100);
        for i in 0..100 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let (tx, rx) = spsc_bounded(2, None);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // The third send must block until the consumer drains a slot.
        let handle = thread::spawn(move || {
            let start = Instant::now();
            tx.send(3).unwrap();
            start.elapsed()
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.try_recv(), Ok(1));
        let blocked_for = handle.join().unwrap();
        assert!(
            blocked_for >= Duration::from_millis(10),
            "send returned after {blocked_for:?}, should have blocked"
        );
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
    }

    #[test]
    fn dropping_all_senders_disconnects() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "tx2 still alive");
        drop(tx2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(TryRecvError::Disconnected)
        );
    }

    #[test]
    fn dropping_the_receiver_fails_sends_and_unblocks_producers() {
        // The smallest ring holds two frames; the third send blocks.
        let (tx, rx) = spsc_bounded(2, None);
        tx.send(1u32).unwrap();
        tx.send(2).unwrap();
        let handle = thread::spawn(move || tx.send(3).is_err());
        thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert!(handle.join().unwrap(), "send must fail after receiver drop");
    }

    #[test]
    fn recv_timeout_delivers_cross_thread() {
        let (tx, rx) = unbounded();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            tx.send(42u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(42));
    }

    /// Runs `f` on a helper thread, panicking if it does not finish within
    /// `timeout` — guards the blocking-wait tests against a missed wake-up
    /// turning into a hung test suite.
    fn with_deadline<F: FnOnce() + Send + 'static>(timeout: Duration, f: F) {
        let (done_tx, done_rx) = unbounded();
        let handle = thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        assert_eq!(
            done_rx.recv_timeout(timeout),
            Ok(()),
            "blocked thread did not finish within {timeout:?}"
        );
        handle.join().unwrap();
    }

    #[test]
    fn waitset_wakes_on_send_to_either_registered_channel() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<u32>();
        let waitset = WaitSet::new();
        rx_a.set_waiter(&waitset);
        rx_b.set_waiter(&waitset);

        for (which, tx) in [(0u8, tx_a), (1u8, tx_b)] {
            assert!(rx_a.try_recv().is_err() && rx_b.try_recv().is_err());
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(5));
                tx.send(u32::from(which)).unwrap();
            });
            // The two-input wait must observe the send on either channel;
            // the deadline guards against a missed wake-up hanging forever.
            let deadline = Instant::now() + Duration::from_secs(5);
            let got = loop {
                let seen = waitset.epoch();
                match rx_a.try_recv().or_else(|_| rx_b.try_recv()) {
                    Ok(v) => break v,
                    Err(_) => {
                        assert!(
                            Instant::now() < deadline,
                            "send to channel {which} never woke the wait"
                        );
                        waitset.wait(seen, Duration::from_millis(100));
                    }
                }
            };
            assert_eq!(got, u32::from(which));
        }
    }

    #[test]
    fn waitset_snapshot_before_poll_prevents_lost_wakeups() {
        // Send *between* the epoch snapshot and the wait: the wait must
        // return immediately instead of sleeping out its full timeout.
        let (tx, rx) = unbounded::<u32>();
        let waitset = WaitSet::new();
        rx.set_waiter(&waitset);
        let seen = waitset.epoch();
        tx.send(1).unwrap();
        let start = Instant::now();
        assert!(waitset.wait(seen, Duration::from_secs(5)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "wait must return promptly when the epoch already moved"
        );
    }

    #[test]
    fn blocked_two_input_wait_exits_when_both_senders_drop() {
        // The shutdown path of a pipeline worker: parked on its WaitSet
        // with both inputs empty, it must wake and exit once both senders
        // disconnect — without any polling fallback.
        let (tx_left, rx_left) = unbounded::<u32>();
        let (tx_right, rx_right) = unbounded::<u32>();
        let waitset = WaitSet::new();
        rx_left.set_waiter(&waitset);
        rx_right.set_waiter(&waitset);

        with_deadline(Duration::from_secs(5), move || {
            let dropper = thread::spawn(move || {
                thread::sleep(Duration::from_millis(10));
                drop(tx_left);
                thread::sleep(Duration::from_millis(10));
                drop(tx_right);
            });
            // Worker loop: block until both inputs report Disconnected.
            loop {
                let seen = waitset.epoch();
                let left = rx_left.try_recv();
                let right = rx_right.try_recv();
                if left == Err(TryRecvError::Disconnected)
                    && right == Err(TryRecvError::Disconnected)
                {
                    break;
                }
                assert!(left.is_err() && right.is_err(), "no data was sent");
                // A generous timeout: the test only passes promptly if the
                // disconnect notification actually wakes the wait.
                waitset.wait(seen, Duration::from_secs(60));
            }
            dropper.join().unwrap();
        });
    }
}
