//! Lock-free ring transport: the fast path under the frame channel.
//!
//! A chain pipeline's data edges are single-producer/single-consumer by
//! construction — driver→node₀, nodeᵢ→nodeᵢ₊₁, node→collector — so the
//! generic `Mutex<VecDeque>` channel pays for a generality those edges
//! never use: every frame handoff takes a lock, bounces the lock's cache
//! line between the two cores, and wakes a condvar.  `Ring` replaces
//! that hot path with a bounded lock-free ring buffer:
//!
//! * **Cache-line-padded cursors.**  The producer cursor (`tail`) and the
//!   consumer cursor (`head`) live on separate 64-byte lines so a push
//!   never invalidates the line a concurrent pop is spinning on.
//! * **Per-slot sequence numbers, Acquire/Release publication.**  Each
//!   slot carries a sequence word: a producer claims a slot by advancing
//!   `tail`, writes the frame, then *publishes* it with a `Release` store
//!   of the slot sequence; the consumer's `Acquire` load of the same word
//!   is what makes the frame's bytes visible.  This is the classic
//!   Vyukov bounded-queue discipline; in the SPSC topology the cursor
//!   CAS never retries, and the sequence words make the ring safe even
//!   if a cloned sender (the occupancy probe) were ever misused to push
//!   concurrently — a misrouted push can interleave, never corrupt.
//! * **Park only when empty/full.**  The ring itself never blocks.  The
//!   consumer's [`WaitSet`] (the same eventcount
//!   the mutex channels use) is bumped once per push, so the
//!   zero-idle-wakeup property of the worker loop is preserved: a parked
//!   worker wakes exactly when a frame lands.  A producer on a *bounded*
//!   ring parks on the ring's `space` wait set, which the consumer bumps
//!   once per pop.
//! * **Overflow spillway for unbounded edges.**  Inner chain links must
//!   not block (two neighbours send to each other; mutual backpressure
//!   would deadlock), so the unbounded flavour spills into a
//!   mutex-protected `VecDeque` when the ring is full and drains it —
//!   ring first, spillway second, preserving FIFO — when the consumer
//!   catches up.  Under steady load the spillway stays cold and every
//!   frame moves through the lock-free path.
//!
//! Frames are whole [`llhj_core::message::MessageBatch`] vectors, so one
//! push/pop moves a whole batch of tuples: the ring is batch-at-a-time by
//! construction, and `batch_size` amortises the two or three atomic
//! operations per hop exactly as it amortised the lock before.
//!
//! Every atomic access carries an `ordering:` audit comment; the house
//! lint (`llhj-lint`) fails the build if one is missing.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;

use llhj_sync::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use llhj_sync::sync::Mutex;
use llhj_sync::time::{Duration, Instant};

use crate::channel::{SendError, TryRecvError, WaitSet};

/// How long a producer parked on a full bounded ring sleeps before
/// re-polling even without a notification (a safety net mirroring the
/// worker loop's park timeout; the wake-up path makes it cold).
const FULL_PARK: Duration = Duration::from_millis(10);

/// One ring slot: a sequence word that doubles as the publication flag,
/// plus the (possibly uninitialised) frame payload.
struct Slot<T> {
    /// Slot state encoded relative to the cursors (Vyukov discipline):
    /// `seq == pos` means free for the producer claiming position `pos`;
    /// `seq == pos + 1` means published for the consumer at `pos`;
    /// anything less means the previous lap has not been consumed yet.
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Pads the cursor onto its own cache line so producer and consumer do
/// not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

pub(crate) struct Ring<T> {
    mask: u64,
    slots: Box<[Slot<T>]>,
    /// Producer cursor: next position to claim.
    tail: CachePadded<AtomicU64>,
    /// Consumer cursor: next position to pop.
    head: CachePadded<AtomicU64>,
    /// `None` capacity semantics: when true the producer parks on
    /// `space` while the ring is full; when false it spills into
    /// `overflow` instead (unbounded flavour).
    bounded: bool,
    overflow: Mutex<VecDeque<T>>,
    /// Mirror of `overflow.len()`, maintained under the overflow lock, so
    /// the producer can route around the lock while the spillway is cold
    /// and the occupancy probe never takes the lock at all.
    overflow_len: AtomicUsize,
    senders: AtomicUsize,
    receiver_alive: AtomicBool,
    /// Consumer-side eventcount: bumped once per push and on the last
    /// sender's disconnect.  Either the worker's multi-channel wait set
    /// (bound at construction) or a private one for `recv_timeout`.
    wake: WaitSet,
    /// Producer-side eventcount for bounded rings: bumped once per pop.
    space: WaitSet,
}

// SAFETY: the `UnsafeCell` slots are only written by the producer that
// claimed the position via the tail CAS and only read by the consumer
// that claimed it via the head CAS, with the slot's sequence word
// (Release store / Acquire load) ordering the payload access between
// them.  All other fields are atomics or lock-protected.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: as above — cross-thread access to the payload cells is
// serialised by the per-slot sequence protocol, so `&Ring` is safe to
// share whenever `T` itself may move between threads.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize, bounded: bool, waiter: Option<&WaitSet>) -> Self {
        let cap = capacity.max(2).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|i| Slot {
                // ordering: construction is single-threaded; the Arc that
                // shares the ring afterwards publishes these initial values.
                seq: AtomicU64::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            mask: cap - 1,
            slots,
            tail: CachePadded(AtomicU64::new(0)),
            head: CachePadded(AtomicU64::new(0)),
            bounded,
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receiver_alive: AtomicBool::new(true),
            wake: waiter.cloned().unwrap_or_default(),
            space: WaitSet::new(),
        }
    }

    /// The consumer-side wait set sends notify into; used by
    /// `Receiver::set_waiter` to assert the caller re-registers the same
    /// set the ring was built with.
    pub(crate) fn wake(&self) -> &WaitSet {
        &self.wake
    }

    /// Pushes into the lock-free ring; `Err(item)` means the ring is full
    /// (this lap of slots has unconsumed frames).
    fn try_push(&self, item: T) -> Result<(), T> {
        // ordering: Acquire pairs with the consumer's head-CAS Release so a
        // freshly freed slot's sequence store is visible before we claim it.
        let mut pos = self.tail.0.load(Ordering::Acquire);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            // ordering: Acquire pairs with the consumer's Release store of
            // the sequence when it freed this slot last lap; it orders the
            // consumer's payload *read* before our payload *write*.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // ordering: AcqRel — the Release half publishes the claim
                // to the consumer-side length probe; Acquire on failure
                // re-reads a competing claim.  (SPSC topology: first try
                // always wins.)
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS above claimed position `pos`
                        // exclusively, and `seq == pos` certified the
                        // consumer finished with this slot; no other
                        // thread touches the cell until the Release
                        // store below publishes it.
                        unsafe { (*slot.value.get()).write(item) };
                        // ordering: Release publishes the payload write
                        // above; the consumer's Acquire load of this word
                        // is what makes the frame visible.
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if seq < pos {
                // Previous lap still occupies the slot: ring is full.
                return Err(item);
            } else {
                // Another producer claimed `pos` (occupancy-probe misuse
                // tolerance); chase the cursor.
                // ordering: Acquire as for the initial cursor load.
                pos = self.tail.0.load(Ordering::Acquire);
            }
        }
    }

    /// Pops from the lock-free ring; `None` means the ring is empty.
    fn try_pop(&self) -> Option<T> {
        // ordering: Acquire pairs with a competing consumer's AcqRel CAS
        // (the receiver is unique in practice; this keeps the type sound
        // if it is ever shared).
        let mut pos = self.head.0.load(Ordering::Acquire);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            // ordering: Acquire pairs with the producer's Release
            // publication store — it is the edge that makes the payload
            // written before that store visible to this thread.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                // ordering: AcqRel claims the position against any other
                // consumer and publishes head for the length probes;
                // Acquire on failure re-reads the winning claim.
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // SAFETY: `seq == pos + 1` means the producer's
                        // Release store published a fully written payload
                        // at `pos`, and the CAS claimed the position
                        // exclusively, so reading the cell out is sound
                        // and happens exactly once.
                        let item = unsafe { (*slot.value.get()).assume_init_read() };
                        // ordering: Release frees the slot for the
                        // producer's next lap — it orders our payload
                        // read above before the producer's next write.
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(item);
                    }
                    Err(current) => pos = current,
                }
            } else if seq <= pos {
                // Not yet published: ring is empty at this position.
                return None;
            } else {
                // A competing consumer advanced past us; chase the cursor.
                // ordering: Acquire as for the initial cursor load.
                pos = self.head.0.load(Ordering::Acquire);
            }
        }
    }

    /// Frames currently buffered (ring plus spillway).  Cursor loads race
    /// with concurrent push/pop, so this is a snapshot, exact whenever
    /// the channel is quiescent — which is all the occupancy probe needs.
    pub(crate) fn len(&self) -> usize {
        // ordering: Acquire on both cursors pairs with their AcqRel
        // update CASes; loading tail first means a racing pop can only
        // make the difference smaller, never negative.
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        // ordering: Acquire pairs with the overflow mutators' post-lock
        // Release store.
        tail.saturating_sub(head) as usize + self.overflow_len.load(Ordering::Acquire)
    }

    /// Spills a frame into the overflow queue (unbounded flavour only).
    fn push_overflow(&self, item: T) {
        let mut queue = self.overflow.lock().expect("ring overflow poisoned");
        queue.push_back(item);
        // ordering: Release (under the lock) pairs with the producer's
        // routing load in `send` and the probe's load in `len`.
        self.overflow_len.store(queue.len(), Ordering::Release);
    }

    pub(crate) fn send(&self, item: T) -> Result<(), SendError<T>> {
        // ordering: Acquire pairs with the receiver-drop Release store so
        // a sender observing the drop also observes the drained queue.
        if !self.receiver_alive.load(Ordering::Acquire) {
            return Err(SendError(item));
        }
        if self.bounded {
            let mut item = item;
            loop {
                // Epoch snapshot *before* the full re-check (the same
                // snapshot-then-poll discipline as the worker loop): a pop
                // that frees a slot after our try_push bumps `space` past
                // `seen`, so the park below returns immediately.
                let seen = self.space.epoch();
                match self.try_push(item) {
                    Ok(()) => break,
                    Err(back) => item = back,
                }
                self.space.wait(seen, FULL_PARK);
                // ordering: Acquire as above — re-check the receiver after
                // every park: a consumer that vanished while we were full
                // fails the send (its drop drains the ring, so the retry
                // would otherwise land in a ring nobody reads).
                if !self.receiver_alive.load(Ordering::Acquire) {
                    return Err(SendError(item));
                }
            }
        } else {
            // FIFO across the spillway: while the spillway holds frames
            // the producer must keep appending there (the ring would
            // overtake them).  Only the consumer drains it, and it drains
            // the ring first, so `overflow_len == 0` certifies every
            // earlier frame is already out of the spillway.
            // ordering: Acquire pairs with the Release stores in
            // `push_overflow` / `pop_any`.
            if self.overflow_len.load(Ordering::Acquire) > 0 {
                self.push_overflow(item);
            } else if let Err(item) = self.try_push(item) {
                self.push_overflow(item);
            }
        }
        self.wake.notify();
        Ok(())
    }

    /// Pops the next frame in FIFO order: ring first, spillway second.
    fn pop_any(&self) -> Option<T> {
        if let Some(item) = self.try_pop() {
            if self.bounded {
                self.space.notify();
            }
            return Some(item);
        }
        // ordering: Acquire pairs with `push_overflow`'s Release store.
        if !self.bounded && self.overflow_len.load(Ordering::Acquire) > 0 {
            // Re-poll the ring before touching the spillway: the failed
            // pop above and the overflow check are two separate
            // observations, and the producer may have published ring
            // frames *between* them — frames that are older than the
            // spillway's (it spilled only after the ring filled).  The
            // Acquire above makes those publications visible, and while
            // the spillway is non-empty the producer routes everything
            // to it, so a ring frame seen now is always the oldest.
            // (Model family 6 found exactly this interleaving; without
            // the re-poll the spillway head overtakes the ring.)
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            let mut queue = self.overflow.lock().expect("ring overflow poisoned");
            let item = queue.pop_front();
            // ordering: Release (under the lock) — see `push_overflow`.
            self.overflow_len.store(queue.len(), Ordering::Release);
            return item;
        }
        None
    }

    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        if let Some(item) = self.pop_any() {
            return Ok(item);
        }
        // ordering: Acquire pairs with the last sender-drop's Release so
        // every frame that sender pushed is visible to the re-poll below.
        if self.senders.load(Ordering::Acquire) == 0 {
            // A sender may have pushed between the failed pop and the
            // senders load; one re-poll closes the race.
            match self.pop_any() {
                Some(item) => Ok(item),
                None => Err(TryRecvError::Disconnected),
            }
        } else {
            Err(TryRecvError::Empty)
        }
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<T, TryRecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Snapshot before polling, as everywhere: a push between the
            // poll and the park bumps the epoch first.
            let seen = self.wake.epoch();
            match self.try_recv() {
                Ok(item) => return Ok(item),
                Err(TryRecvError::Disconnected) => return Err(TryRecvError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            if Instant::now() >= deadline {
                return Err(TryRecvError::Empty);
            }
            self.wake.wait_until(seen, deadline);
        }
    }

    pub(crate) fn add_sender(&self) {
        // ordering: Release keeps the count's increment ordered before any
        // send the clone performs (pairs with try_recv's Acquire).
        self.senders.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn drop_sender(&self) {
        // ordering: AcqRel — the Release half orders this sender's final
        // pushes before the count reaching zero; Acquire pairs with other
        // senders' decrements so the zero observation is unique.
        if self.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Wake a consumer parked on the (now permanently idle)
            // channel so it observes the disconnect promptly.
            self.wake.notify();
        }
    }

    pub(crate) fn drop_receiver(&self) {
        // ordering: Release pairs with the senders' Acquire re-check so a
        // producer that sees the flag also sees everything before it.
        self.receiver_alive.store(false, Ordering::Release);
        // Drain eagerly, mirroring the mutex channel's queue.clear(): the
        // frames' own Drop impls run now rather than at ring teardown.
        while self.pop_any().is_some() {}
        // Unblock producers parked on a full bounded ring.
        self.space.notify();
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Frames pushed after the receiver's eager drain (the send /
        // drop_receiver race window) are still in the slots; release them.
        while self.try_pop().is_some() {}
    }
}

/// A deliberately re-broken twin of [`Ring`] for the model checker: the
/// producer publishes the slot's sequence word *before* writing the
/// payload (the classic torn-publication bug the Release/Acquire pair in
/// the real ring exists to prevent).  Under the deterministic scheduler
/// the consumer can run between those two steps and observe a published
/// slot whose payload is still the previous lap's `None` — the
/// `model_concurrency` suite asserts the explorer finds exactly that.
///
/// Payloads are `Option<T>`-boxed (instead of `MaybeUninit`) so the torn
/// state is an observable `None`, not undefined behaviour.
#[cfg(llhj_model)]
pub mod broken {
    use std::cell::UnsafeCell;

    use llhj_sync::sync::atomic::{AtomicU64, Ordering};
    use llhj_sync::sync::Arc;

    use crate::channel::WaitSet;

    struct BrokenSlot<T> {
        seq: AtomicU64,
        value: UnsafeCell<Option<T>>,
    }

    /// The re-broken SPSC ring; see the module docs.
    pub struct BrokenRing<T> {
        mask: u64,
        slots: Box<[BrokenSlot<T>]>,
        tail: AtomicU64,
        head: AtomicU64,
        wake: WaitSet,
    }

    // SAFETY: model-only twin; the deterministic scheduler serialises all
    // task steps, so the plain cell accesses never overlap in time.
    unsafe impl<T: Send> Send for BrokenRing<T> {}
    // SAFETY: as above — the model backend runs one task at a time.
    unsafe impl<T: Send> Sync for BrokenRing<T> {}

    impl<T> BrokenRing<T> {
        /// Builds the twin with the given (power-of-two-rounded) capacity,
        /// notifying `waiter` once per push like the real ring.
        pub fn new(capacity: usize, waiter: &WaitSet) -> Arc<Self> {
            let cap = capacity.max(2).next_power_of_two() as u64;
            let slots = (0..cap)
                .map(|i| BrokenSlot {
                    seq: AtomicU64::new(i),
                    value: UnsafeCell::new(None),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Arc::new(BrokenRing {
                mask: cap - 1,
                slots,
                tail: AtomicU64::new(0),
                head: AtomicU64::new(0),
                wake: waiter.clone(),
            })
        }

        /// Pushes one item — with the publication torn in two: the
        /// sequence word is stored (and the consumer wakeable) before the
        /// payload lands.
        pub fn push(&self, item: T) -> Result<(), T> {
            // ordering: model-only twin — the deterministic scheduler runs
            // sequentially consistent and ignores these arguments; they
            // mirror the real ring's so only the *placement* bug differs.
            let pos = self.tail.load(Ordering::Acquire);
            let slot = &self.slots[(pos & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != pos {
                return Err(item);
            }
            self.tail.store(pos + 1, Ordering::Release);
            // BUG (deliberate): sequence published before the payload
            // write.  The model scheduler can preempt right here.
            // ordering: as above — the bug is the store's position, not
            // its ordering argument.
            slot.seq.store(pos + 1, Ordering::Release);
            // The engine only schedules at facade operations, and the
            // plain cell write below is not one — this explicit yield is
            // the preemption window the real hardware always has between
            // the two stores.
            llhj_sync::thread::yield_now();
            // SAFETY: model-only — the serialised scheduler means this
            // plain write never overlaps a concurrent access in time (the
            // *logical* race is exactly what the checker must catch).
            unsafe { *slot.value.get() = Some(item) };
            self.wake.notify();
            Ok(())
        }

        /// Pops the next item; `Ok(None)` = empty, `Err(())` = observed a
        /// published slot with no payload (the torn publication).
        #[allow(clippy::result_unit_err)]
        pub fn pop(&self) -> Result<Option<T>, ()> {
            // ordering: model-only twin — see `push`; the scheduler is
            // sequentially consistent, the arguments mirror the real ring.
            let pos = self.head.load(Ordering::Acquire);
            let slot = &self.slots[(pos & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                return Ok(None);
            }
            // SAFETY: model-only; see `push`.
            let item = unsafe { (*slot.value.get()).take() };
            // ordering: as above.
            slot.seq.store(pos + self.mask + 1, Ordering::Release);
            self.head.store(pos + 1, Ordering::Release);
            match item {
                Some(item) => Ok(Some(item)),
                None => Err(()),
            }
        }
    }
}

#[cfg(all(test, not(llhj_model)))]
mod tests {
    use super::*;
    use llhj_sync::sync::Arc;
    use llhj_sync::thread;

    #[test]
    fn ring_is_fifo_across_the_spillway() {
        let ring: Ring<u32> = Ring::new(4, false, None);
        for i in 0..100 {
            ring.send(i).unwrap();
        }
        assert_eq!(ring.len(), 100);
        for i in 0..100 {
            assert_eq!(ring.try_recv(), Ok(i));
        }
        assert_eq!(ring.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn spillway_stays_cold_when_the_consumer_keeps_up() {
        let ring: Ring<u32> = Ring::new(8, false, None);
        for i in 0..1000 {
            ring.send(i).unwrap();
            assert_eq!(ring.try_recv(), Ok(i));
        }
        // ordering: single-threaded test; Acquire matches the probe path.
        assert_eq!(ring.overflow_len.load(Ordering::Acquire), 0);
    }

    #[test]
    fn bounded_ring_blocks_the_producer_until_a_pop() {
        let ring = Arc::new(Ring::new(2, true, None));
        for i in 0..2 {
            ring.send(i).unwrap();
        }
        let producer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || ring.send(99u32))
        };
        thread::sleep(Duration::from_millis(20));
        assert_eq!(ring.try_recv(), Ok(0));
        producer.join().unwrap().unwrap();
        assert_eq!(ring.try_recv(), Ok(1));
        assert_eq!(ring.try_recv(), Ok(99));
    }

    #[test]
    fn disconnect_is_observed_after_the_last_frame() {
        let ring: Ring<u32> = Ring::new(4, false, None);
        ring.send(7).unwrap();
        ring.drop_sender();
        assert_eq!(ring.try_recv(), Ok(7));
        assert_eq!(ring.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn receiver_drop_unblocks_a_parked_producer() {
        let ring = Arc::new(Ring::new(2, true, None));
        ring.send(0u32).unwrap();
        ring.send(1).unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || ring.send(2))
        };
        thread::sleep(Duration::from_millis(20));
        ring.drop_receiver();
        // The guarantee is *unblocking*: the producer either observes the
        // dead receiver (Err) or wins the race into the freshly drained
        // ring (Ok; the frame is released at ring teardown) — it must not
        // stay parked.
        let _ = producer.join().unwrap();
    }

    #[test]
    fn cross_thread_transfer_preserves_order() {
        let ring = Arc::new(Ring::new(8, false, None));
        let producer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                for i in 0..10_000u32 {
                    ring.send(i).unwrap();
                }
                ring.drop_sender();
            })
        };
        let mut expected = 0u32;
        loop {
            match ring.try_recv() {
                Ok(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                Err(TryRecvError::Empty) => thread::yield_now(),
                Err(TryRecvError::Disconnected) => break,
            }
        }
        assert_eq!(expected, 10_000);
        producer.join().unwrap();
    }
}
