//! Shared execution machinery of the threaded runtimes.
//!
//! Every chain deployment — [`crate::run_pipeline`], the elastic and
//! autoscaled chains, each chain of a shard mesh — is one
//! [`crate::elastic::ElasticPipeline`], and this module is its data plane:
//! worker threads moving [`MessageBatch`] frames between neighbours, a
//! driver assembling entry frames, a collector vacuuming result queues.
//!
//! * [`Worker`] — the worker thread: event-driven two-input poll loop,
//!   frame handling (batch dispatch, high-water-mark observation, output
//!   forwarding, result emission, in-flight accounting), plus the command
//!   mailbox (rewire / absorb / retire), polled only when both inputs are
//!   empty.  A fixed chain simply never sends a command.
//! * [`EntryBatcher`] / [`EntryState`] — the driver's entry-frame assembly
//!   for one direction / both directions, under the one [`FlushPolicy`]:
//!   flush on an idle entry link once the driver has caught up, batch
//!   only while the entry node or the driver is busy, up to `batch_size`
//!   arrivals or `flush_interval` of age.
//! * [`PunctualTimers`] — a paced driver's guard: holds its timer slack
//!   at 1 ns and runs its sliced real-time pacing wait
//!   ([`PunctualTimers::pace_until`]), which parks until a learned
//!   wake-up margin before each deadline and spins the rest.
//! * [`spawn_collector`] — the collector thread: reads the high-water
//!   marks *before* vacuuming (Section 6.1.3 step 1), drains the
//!   per-worker result rings, emits punctuations, and publishes the
//!   latency EWMA to the metrics bus once per pass.
//! * The shared primitives: [`StreamClock`], [`InFlight`] (quiescence
//!   accounting), [`send_frame`], [`WORKER_PARK`].
//!
//! Everything here is `pub(crate)`: the public API stays in
//! [`crate::pipeline`] and [`crate::elastic`].

use crate::channel::{spsc_unbounded, CancelToken, Receiver, Sender, TryRecvError, WaitSet};
use crate::metrics::MetricsBus;
use crate::options::{Pacing, PipelineOptions};
use llhj_core::driver::{DriverEvent, Injector, StreamEvent};
use llhj_core::homing::HomePolicy;
use llhj_core::message::{
    Direction, Handoff, LeftToRight, MessageBatch, NodeOutput, RightToLeft, WindowSegment,
};
use llhj_core::metrics::{LatencyEwma, DEFAULT_LATENCY_ALPHA};
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::{HighWaterMarks, OutputItem, Punctuation};
use llhj_core::rebalance::shed_ranges;
use llhj_core::result::{ResultTuple, TimedResult};
use llhj_core::stats::{LatencySeries, LatencySummary, NodeCounters};
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_core::tuple::SeqNo;
use llhj_sync::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use llhj_sync::sync::Arc;
use llhj_sync::thread::{self, JoinHandle};
use llhj_sync::time::{Duration, Instant};
use std::collections::VecDeque;

/// Safety-net bound on how long a worker parks between wake-ups.  Workers
/// are woken eagerly — by frame arrivals through their [`WaitSet`] and by
/// the driver at shutdown — so this timeout only bounds the damage of a
/// missed notification; it is not a polling interval.
pub(crate) const WORKER_PARK: Duration = Duration::from_millis(10);

/// Depth, in frames, of a bounded driver entry link: how far the driver
/// may run ahead of the entry node before a full link parks it (the
/// driver's backpressure point).
pub(crate) const ENTRY_FRAMES: usize = 1024;

/// Lock-free depth, in frames, of an unbounded inner link (worker →
/// worker, worker → collector); bursts beyond it spill into the ring's
/// mutex spillway.
pub(crate) const RING_SLOTS: usize = 256;

/// Lock-free depth of a worker's command mailbox: commands travel only
/// while the chain is fenced, a few at a time.
const COMMAND_SLOTS: usize = 8;

// ---------------------------------------------------------------------------
// Core pinning
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", not(llhj_model)))]
mod affinity {
    // `sched_setaffinity` declared directly — std already links libc, and
    // this build environment cannot fetch the `libc` crate.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// `cpu_set_t` is 1024 bits (128 bytes) on glibc; a `[u64; 16]` has
    /// the same size and layout for the mask-passing purpose here.
    const CPU_SET_WORDS: usize = 16;

    pub(super) fn pin_current_thread(core: usize) -> bool {
        if core >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut set = [0u64; CPU_SET_WORDS];
        set[core / 64] |= 1 << (core % 64);
        // SAFETY: `set` is a valid, initialised 128-byte CPU mask living
        // for the duration of the call, and pid 0 means the calling
        // thread; the syscall reads the mask and has no other memory
        // effects.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0 }
    }

    pub(super) fn unpin_current_thread() {
        let set = [u64::MAX; CPU_SET_WORDS];
        // SAFETY: as in `pin_current_thread`; an all-ones mask restores
        // the thread's eligibility for every online core.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr());
        }
    }

    pub(super) const SUPPORTED: bool = true;
}

#[cfg(not(all(target_os = "linux", not(llhj_model))))]
mod affinity {
    pub(super) fn pin_current_thread(_core: usize) -> bool {
        false
    }

    pub(super) fn unpin_current_thread() {}

    pub(super) const SUPPORTED: bool = false;
}

/// True when [`CoreMap`] pinning would actually take effect for a
/// pipeline needing `threads` threads: a Linux host (non-model build)
/// with at least that many cores.  Bench binaries record this next to
/// their numbers so a snapshot states whether placement was controlled.
pub(crate) fn pinning_available(threads: usize) -> bool {
    affinity::SUPPORTED
        && llhj_sync::thread::available_parallelism()
            .map(|n| n.get() >= threads)
            .unwrap_or(false)
}

/// Assigns the pipeline's threads (workers, collector, driver) to cores.
///
/// Built only when `pin_cores` is requested *and*
/// [`pinning_available`] holds — otherwise every caller sees `None` and
/// the run proceeds exactly as before (the documented cores < threads
/// no-op).  Slots wrap modulo the core count so an elastic pipeline that
/// grows beyond the planned width degrades to sharing cores instead of
/// failing.
pub(crate) struct CoreMap {
    cores: usize,
    offset: usize,
}

impl CoreMap {
    pub(crate) fn new(enabled: bool, threads: usize, offset: usize) -> Option<CoreMap> {
        if !enabled || !pinning_available(threads) {
            return None;
        }
        let cores = llhj_sync::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Some(CoreMap { cores, offset })
    }

    /// The core backing pin slot `slot`.
    pub(crate) fn core(&self, slot: usize) -> usize {
        (self.offset + slot) % self.cores
    }
}

/// Pins the calling thread to `core`; worker/collector threads call this
/// first thing on their own stack.
pub(crate) fn pin_thread(core: usize) {
    affinity::pin_current_thread(core);
}

/// Restores the calling thread's affinity to all cores (the driver runs
/// on the caller's thread, which must not stay pinned after the run).
pub(crate) fn unpin_thread() {
    affinity::unpin_current_thread();
}

// ---------------------------------------------------------------------------
// Timer slack
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", not(llhj_model)))]
mod timer_slack {
    use std::ffi::{c_int, c_ulong};

    // `prctl` declared directly, like `sched_setaffinity` above.
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    /// The calling thread's timer slack in ns, `None` if unreadable.
    pub(super) fn get() -> Option<c_ulong> {
        // SAFETY: PR_GET_TIMERSLACK takes no further argument and only
        // returns the calling thread's slack (or -1 on error); it touches
        // no memory of ours.
        let slack = unsafe { prctl(PR_GET_TIMERSLACK) };
        c_ulong::try_from(slack).ok()
    }

    /// Sets the calling thread's timer slack to `ns` (which must not be 0:
    /// 0 means "reset to the default").  Returns whether it took effect.
    pub(super) fn set(ns: c_ulong) -> bool {
        // SAFETY: PR_SET_TIMERSLACK reads its one `unsigned long` argument
        // by value and changes only the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, ns) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", not(llhj_model))))]
mod timer_slack {
    use std::ffi::c_ulong;

    pub(super) fn get() -> Option<c_ulong> {
        None
    }

    pub(super) fn set(_ns: c_ulong) -> bool {
        false
    }
}

/// Holds the calling thread's timer slack at 1 ns while a paced driver
/// replays its schedule, restores the previous slack on drop (also when
/// the replay unwinds), and runs the driver's pacing wait
/// ([`Self::pace_until`]) with the wake-up margin it has learned.
///
/// Linux lets a timed park overshoot its deadline by the thread's timer
/// slack (50 µs by default) so that it can coalesce wake-ups; a paced
/// driver parked until an arrival is due would then inject every arrival
/// that late, and the delay would add to every result's latency.  1 ns is
/// the smallest slack (0 means "reset to the default").  Even at 1 ns a
/// park still wakes one kernel timer wake-up late, a few µs that hardly
/// vary from park to park, so the guard also learns that lateness and
/// the wait parks that much short of a deadline and spins the rest.  The
/// driver still never injects early.  Threads the driver spawns
/// meanwhile — a grow's new workers — inherit the slack; their parks end
/// on notifications, except for the [`WORKER_PARK`] safety net.  The
/// slack is left alone when unpaced, off Linux and under the model
/// backend; the margin stays 0 when unpaced and under the model backend.
pub(crate) struct PunctualTimers {
    restore: Option<std::ffi::c_ulong>,
    /// Moving average, in ns, of how late this thread's timed parks woke
    /// (gain 1/8, each sample clamped to [`MIN_PACING_SLICE`]): how far
    /// short of a deadline the pacing wait stops parking.  `None` — a
    /// margin of 0, never learned — when unpaced and under the model
    /// backend, whose frozen clock would never end a spin.
    margin_ns: Option<u64>,
}

impl PunctualTimers {
    pub(crate) fn new(pacing: Pacing) -> PunctualTimers {
        let (restore, margin_ns) = match pacing {
            // A slack of at most 1 ns is already punctual (and 0 could
            // not be restored: setting 0 resets to the default).
            Pacing::RealTime { .. } => (
                timer_slack::get().filter(|&slack| slack > 1 && timer_slack::set(1)),
                (!cfg!(llhj_model)).then_some(0),
            ),
            Pacing::Unpaced => (None, None),
        };
        PunctualTimers { restore, margin_ns }
    }

    /// The drivers' real-time pacing wait: waits until `deadline`, running
    /// `on_slice` — the idle-driver entry flush poll, plus the autoscaler's
    /// actuation on the elastic driver — before the first park and again
    /// every `slice` (if any).  A driver that is already due never runs
    /// it.  So a frame leaves on an idle link as soon as the driver has
    /// caught up, and a frame held back by a busy link, or one aging
    /// towards `flush_interval`, leaves during an arrival gap without a
    /// timer thread.
    ///
    /// The last park ends the learned margin short of `deadline`, and the
    /// wait spins out the rest, so the event is injected at its due
    /// instant rather than one timer wake-up after it, and never before
    /// it.  Every park that ends on its timeout measures how late it woke
    /// and refines the margin.  The parks are on `cancel` and the spin
    /// polls it, so a cancel interrupts even a multi-second gap at once.
    /// Returns `true` if the wait was cancelled.
    pub(crate) fn pace_until(
        &mut self,
        deadline: Instant,
        slice: Option<Duration>,
        cancel: &CancelToken,
        mut on_slice: impl FnMut(),
    ) -> bool {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            on_slice();
            let margin = Duration::from_nanos(self.margin_ns.unwrap_or(0));
            let park_end = deadline.checked_sub(margin).unwrap_or(now);
            if now >= park_end {
                // Inside the margin: a park would wake after the deadline.
                while Instant::now() < deadline {
                    if cancel.is_cancelled() {
                        return true;
                    }
                    std::hint::spin_loop();
                }
                return false;
            }
            let wake = slice.map_or(park_end, |slice| park_end.min(now + slice));
            if cancel.wait_until(wake) {
                return true;
            }
            self.learn(Instant::now().saturating_duration_since(wake));
        }
    }

    /// Folds one park's wake-up lateness into the margin.  The clamp
    /// keeps the margin at most [`MIN_PACING_SLICE`], so a descheduled
    /// thread cannot turn the wait into a long spin.
    fn learn(&mut self, lateness: Duration) {
        if let Some(margin) = &mut self.margin_ns {
            let sample = lateness.min(MIN_PACING_SLICE).as_nanos() as u64;
            *margin = (7 * *margin + sample) / 8;
        }
    }
}

impl Drop for PunctualTimers {
    fn drop(&mut self) {
        if let Some(slack) = self.restore {
            timer_slack::set(slack);
        }
    }
}

/// The one stream clock of a deployment: the only mapping between wall
/// time and stream time.  The driver paces against [`Self::deadline`] and
/// the workers stamp detections with [`Self::now`], both measured from the
/// same origin, so a latency (detection time − max(t_r, t_s), §3.1 of the
/// paper) never mixes two timelines.  A shard mesh hands its one clock to
/// every chain, split children included.
pub(crate) struct StreamClock {
    pacing: Pacing,
    start: Instant,
    /// Stream time of the most recently injected driver event (drives the
    /// clock in unpaced mode).
    injected_us: AtomicU64,
}

impl StreamClock {
    pub(crate) fn new(pacing: Pacing) -> Self {
        StreamClock {
            pacing,
            start: Instant::now(),
            injected_us: AtomicU64::new(0),
        }
    }

    pub(crate) fn note_injection(&self, at: Timestamp) {
        self.injected_us
            .fetch_max(at.as_micros(), Ordering::Relaxed);
    }

    pub(crate) fn now(&self) -> Timestamp {
        self.at(Instant::now())
    }

    /// The stream time the clock reads at wall instant `wall`.
    fn at(&self, wall: Instant) -> Timestamp {
        match self.pacing {
            Pacing::Unpaced => Timestamp::from_micros(self.injected_us.load(Ordering::Relaxed)),
            Pacing::RealTime { speedup } => {
                // `speedup` is validated finite by `PipelineOptions::
                // validate`; a negative value clamps to a frozen clock
                // instead of travelling through the float→int cast.
                let elapsed =
                    wall.saturating_duration_since(self.start).as_secs_f64() * speedup.max(0.0);
                Timestamp::from_micros(saturating_micros(elapsed))
            }
        }
    }

    /// The wall instant at which the clock reads stream time `at`: when a
    /// paced driver injects an event scheduled at `at`.  Unpaced (or at a
    /// non-positive speedup) every deadline is the origin, already past.
    pub(crate) fn deadline(&self, at: Timestamp) -> Instant {
        let since_origin = at.saturating_since(Timestamp::ZERO);
        self.start + self.pacing.stream_to_wall(since_origin)
    }

    /// Wall time since the clock's origin: the run's elapsed time.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Converts `secs` of stream time to whole microseconds with explicit
/// saturation: NaN and negative values map to 0, values beyond the `u64`
/// range to `u64::MAX`.  (The bare `as` cast has the same limits but hides
/// the policy; the clock's behaviour under degenerate `speedup` values
/// should be a stated contract, not a cast artefact.)
pub(crate) fn saturating_micros(secs: f64) -> u64 {
    let micros = secs * 1e6;
    if micros.is_nan() || micros <= 0.0 {
        0
    } else if micros >= u64::MAX as f64 {
        u64::MAX
    } else {
        micros as u64
    }
}

/// In-flight frame accounting plus the wait set the driver parks on while
/// draining: the counter going to zero is the pipeline's quiescence signal.
pub(crate) struct InFlight {
    count: AtomicI64,
    quiesce: WaitSet,
}

impl InFlight {
    pub(crate) fn new() -> Self {
        InFlight {
            count: AtomicI64::new(0),
            quiesce: WaitSet::new(),
        }
    }

    pub(crate) fn add(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    /// Decrements the counter, waking the driver when it reaches zero.
    pub(crate) fn finish(&self) {
        if self.count.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.quiesce.notify();
        }
    }

    /// Parks until no frame is anywhere in the pipeline.
    pub(crate) fn wait_for_quiescence(&self) {
        loop {
            let seen = self.quiesce.epoch();
            if self.count.load(Ordering::SeqCst) <= 0 {
                return;
            }
            self.quiesce.wait(seen, WORKER_PARK);
        }
    }
}

/// Sends one frame, keeping the global in-flight frame count consistent
/// (the driver's quiescence detection counts frames, not messages).
pub(crate) fn send_frame<R, S>(
    tx: &Sender<MessageBatch<R, S>>,
    frame: MessageBatch<R, S>,
    in_flight: &InFlight,
) {
    if frame.is_empty() {
        return;
    }
    in_flight.add();
    if tx.send(frame).is_err() {
        in_flight.finish();
    }
}

// ---------------------------------------------------------------------------
// Driver-side entry batching
// ---------------------------------------------------------------------------

/// Shortest pacing slice: a `flush_interval` (or controller tick) below
/// this would turn the pacing wait into a busy poll.
pub(crate) const MIN_PACING_SLICE: Duration = Duration::from_micros(50);

/// The drivers' one flush policy: when a direction's pending entry frame
/// leaves.
///
/// A frame is flushed as soon as it holds an arrival, its entry link is
/// idle — the entry worker has taken every frame sent so far — and the
/// driver is idle too: it has caught up with the schedule and is about to
/// wait for the next event.  A node that keeps up under a punctual driver
/// therefore sees one frame per arrival and pays no batching delay.  While
/// the link is busy, or while the driver works through overdue events,
/// arrivals accumulate — that is where batching pays, amortising one
/// channel operation and wake-up over every arrival that queued up
/// meanwhile; a driver behind schedule means the chain is behind too, so
/// a catch-up burst travels in full frames.  Independently of the link, a
/// frame leaves when it holds `cap` arrivals
/// ([`PipelineOptions::batch_size`]), when it holds its stream's last
/// arrival, and when it has been filling for `max_age` of stream time
/// ([`PipelineOptions::flush_interval`]).  Expiries ride along: a
/// frame holding only expiries waits for the next arrival, the age bound
/// or the end of the run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushPolicy {
    cap: usize,
    max_age: Option<TimeDelta>,
}

impl FlushPolicy {
    fn new(options: &PipelineOptions) -> Self {
        FlushPolicy {
            cap: options.batch_size,
            max_age: options.flush_interval,
        }
    }

    /// The flush decision for a pending frame of `arrivals` arrivals that
    /// has been filling for `age` of stream time (`None`: nothing
    /// pending).  `idle` says whether both the driver and the entry link
    /// are idle.
    fn due(&self, arrivals: usize, age: Option<TimeDelta>, stream_ended: bool, idle: bool) -> bool {
        let Some(age) = age else {
            return false;
        };
        if self.max_age.is_some_and(|max| age >= max) {
            return true;
        }
        arrivals > 0 && (arrivals >= self.cap || stream_ended || idle)
    }
}

/// One direction's entry-frame assembly state in the driver: the pending
/// messages, how many of them are arrivals (expiries ride along without
/// counting towards the cap), when the frame started filling (for the age
/// bound), the arrivals not yet settled, and the entry channel the frames
/// leave on.
pub(crate) struct EntryBatcher<M, R, S> {
    pending: Vec<M>,
    arrivals: usize,
    started_at: Option<Timestamp>,
    /// `(seq, ts)` of every arrival pushed that may not have finished its
    /// traversal yet — still pending here, or in a link — in push order,
    /// which is ascending `seq` (a schedule numbers each stream's arrivals
    /// in arrival order).  Pruned against the direction's traversal-end
    /// high-water mark; the expiry barrier consults it.
    unsettled: VecDeque<(SeqNo, Timestamp)>,
    /// Arrivals pushed over the whole run.
    injected: usize,
    /// Length of this direction's stream, `usize::MAX` when unknown (an
    /// online-routed mesh chain, a recovery replay): the frame holding the
    /// last arrival leaves at once.
    stream_len: usize,
    tx: Sender<MessageBatch<R, S>>,
    wrap: fn(Vec<M>) -> MessageBatch<R, S>,
}

impl<M, R, S> EntryBatcher<M, R, S> {
    fn new(tx: Sender<MessageBatch<R, S>>, wrap: fn(Vec<M>) -> MessageBatch<R, S>) -> Self {
        EntryBatcher {
            pending: Vec::new(),
            arrivals: 0,
            started_at: None,
            unsettled: VecDeque::new(),
            injected: 0,
            stream_len: usize::MAX,
            tx,
            wrap,
        }
    }

    /// Queues a control message; it rides the next flush.
    fn push(&mut self, msg: M, at: Timestamp) {
        if self.pending.is_empty() {
            self.started_at = Some(at);
        }
        self.pending.push(msg);
    }

    /// Queues arrival `seq` (timestamp `ts`), counting it towards the cap
    /// and tracking it until the traversal-end mark `mark` passes it.
    fn push_arrival(&mut self, msg: M, seq: SeqNo, ts: Timestamp, at: Timestamp, mark: Timestamp) {
        self.forget_settled(mark);
        self.unsettled.push_back((seq, ts));
        self.push(msg, at);
        self.arrivals += 1;
        self.injected += 1;
    }

    /// Forgets the arrivals older than `mark`, the largest timestamp of
    /// an arrival that has reached the far end of the chain.  Arrivals
    /// travel a direction in FIFO order and leave the driver in timestamp
    /// order, so every arrival sent before that one has passed its home
    /// node too.  An arrival *at* the mark may share its timestamp with
    /// one still behind it, so it stays.
    fn forget_settled(&mut self, mark: Timestamp) {
        while self.unsettled.front().is_some_and(|&(_, ts)| ts < mark) {
            self.unsettled.pop_front();
        }
    }

    /// The position of arrival `seq` among the unsettled arrivals, if it
    /// went out through this batcher and may not have settled yet.  The
    /// last `self.arrivals` positions are the ones still pending here.
    fn unsettled(&mut self, seq: SeqNo, mark: Timestamp) -> Option<usize> {
        self.forget_settled(mark);
        self.unsettled.binary_search_by_key(&seq, |&(s, _)| s).ok()
    }

    /// The expiry barrier (invariant 8) for arrival `seq`, run before its
    /// expiry is queued on the opposite entry: if the arrival has not
    /// settled, sends it if it is still pending here, then parks until
    /// no frame is in flight — every arrival sent so far then rests at
    /// its home node.
    fn settle(
        &mut self,
        seq: SeqNo,
        mark: Timestamp,
        in_flight: &InFlight,
        frames_injected: &mut u64,
    ) {
        let Some(at) = self.unsettled(seq, mark) else {
            return;
        };
        if at >= self.unsettled.len() - self.arrivals {
            self.flush(in_flight, frames_injected);
        }
        in_flight.wait_for_quiescence();
        let sent = self.unsettled.len() - self.arrivals;
        self.unsettled.drain(..sent);
    }

    /// Sends the pending frame (if any) and resets the assembly state.
    fn flush(&mut self, in_flight: &InFlight, frames_injected: &mut u64) {
        if self.pending.is_empty() {
            return;
        }
        send_frame(
            &self.tx,
            (self.wrap)(std::mem::take(&mut self.pending)),
            in_flight,
        );
        *frames_injected += 1;
        self.arrivals = 0;
        self.started_at = None;
    }

    /// Flushes the pending frame if `policy` says it is due at stream
    /// time `now`; `driver_idle` says whether the driver has caught up
    /// with the schedule.
    fn poll(
        &mut self,
        policy: &FlushPolicy,
        now: Timestamp,
        driver_idle: bool,
        in_flight: &InFlight,
        frames_injected: &mut u64,
    ) {
        let age = self.started_at.map(|s| now.saturating_since(s));
        let stream_ended = self.injected == self.stream_len;
        let idle = driver_idle && self.tx.is_empty();
        if policy.due(self.arrivals, age, stream_ended, idle) {
            self.flush(in_flight, frames_injected);
        }
    }

    /// Replaces the entry channel (the elastic pipeline's right entry
    /// moves whenever the rightmost node changes).
    pub(crate) fn set_sender(&mut self, tx: Sender<MessageBatch<R, S>>) {
        self.tx = tx;
    }

    /// The current entry channel (for the metrics occupancy probe).
    pub(crate) fn sender(&self) -> &Sender<MessageBatch<R, S>> {
        &self.tx
    }
}

/// The driver's entry-frame assembly state for both directions, owned by
/// the driver thread of either runtime.  [`Self::inject`] runs once per
/// driver event and [`Self::poll`] whenever the driver is idle (before
/// each wait of its pacing loop); both apply the same [`FlushPolicy`].
pub(crate) struct EntryState<R, S> {
    pub(crate) left: EntryBatcher<LeftToRight<R>, R, S>,
    pub(crate) right: EntryBatcher<RightToLeft<S>, R, S>,
    pub(crate) frames_injected: u64,
    policy: FlushPolicy,
    /// The chain's traversal-end high-water marks: which arrivals have
    /// settled, for the expiry barrier.
    marks: Arc<HighWaterMarks>,
}

impl<R, S> EntryState<R, S> {
    pub(crate) fn new(
        left_tx: Sender<MessageBatch<R, S>>,
        right_tx: Sender<MessageBatch<R, S>>,
        marks: Arc<HighWaterMarks>,
        options: &PipelineOptions,
    ) -> Self {
        EntryState {
            left: EntryBatcher::new(left_tx, MessageBatch::Left),
            right: EntryBatcher::new(right_tx, MessageBatch::Right),
            frames_injected: 0,
            policy: FlushPolicy::new(options),
            marks,
        }
    }

    /// Declares the streams' total arrival counts (a schedule replay knows
    /// them), so each stream's last arrival leaves without waiting.
    pub(crate) fn set_stream_lengths(&mut self, r: usize, s: usize) {
        self.left.stream_len = r;
        self.right.stream_len = s;
    }

    /// Queues one driver event and applies the flush policy to both
    /// directions at the event's stream time.  The driver is busy here —
    /// more events may be due — so only the cap, last-arrival and age
    /// rules can flush; the idle-link rule waits for [`Self::poll`].
    pub(crate) fn inject<P, H>(
        &mut self,
        event: DriverEvent<R, S>,
        injector: &Injector<R, S, P, H>,
        in_flight: &InFlight,
    ) where
        P: JoinPredicate<R, S>,
        H: HomePolicy,
    {
        match event.event {
            StreamEvent::ArrivalR(r) => {
                let (seq, ts) = (r.seq, r.ts);
                let msg = injector.inject_r(r);
                self.left
                    .push_arrival(msg, seq, ts, event.at, self.marks.r())
            }
            StreamEvent::ArrivalS(s) => {
                let (seq, ts) = (s.seq, s.ts);
                let msg = injector.inject_s(s);
                self.right
                    .push_arrival(msg, seq, ts, event.at, self.marks.s())
            }
            StreamEvent::ExpireS(seq) => {
                // An expiry must never overtake its own arrival.  The two
                // travel in opposite directions on different channels, so
                // FIFO order cannot save them — only stream-time
                // separation can, and a frame held back or delayed in a
                // link past the window length destroys it.  So if the
                // arrival has not yet settled at its home node — still
                // pending here (a frame held back by a busy link, a
                // sparse mesh shard's frame outwaiting the window) or
                // still travelling — send it and let the chain settle
                // before the expiry even enters.
                self.right
                    .settle(seq, self.marks.s(), in_flight, &mut self.frames_injected);
                self.left.push(LeftToRight::ExpiryS(seq), event.at);
            }
            StreamEvent::ExpireR(seq) => {
                self.left
                    .settle(seq, self.marks.r(), in_flight, &mut self.frames_injected);
                self.right.push(RightToLeft::ExpiryR(seq), event.at);
            }
        }
        self.flush_due(event.at, false, in_flight);
    }

    /// Applies the flush policy to both directions at stream time `now`
    /// while the driver is idle (caught up with the schedule).
    pub(crate) fn poll(&mut self, now: Timestamp, in_flight: &InFlight) {
        self.flush_due(now, true, in_flight);
    }

    fn flush_due(&mut self, now: Timestamp, driver_idle: bool, in_flight: &InFlight) {
        let frames = &mut self.frames_injected;
        self.left
            .poll(&self.policy, now, driver_idle, in_flight, frames);
        self.right
            .poll(&self.policy, now, driver_idle, in_flight, frames);
    }

    /// Flushes both directions unconditionally.
    pub(crate) fn flush_both(&mut self, in_flight: &InFlight) {
        self.left.flush(in_flight, &mut self.frames_injected);
        self.right.flush(in_flight, &mut self.frames_injected);
    }

    /// Arrivals injected per stream so far.
    pub(crate) fn arrivals(&self) -> (usize, usize) {
        (self.left.injected, self.right.injected)
    }
}

/// How often a paced driver's wait wakes to re-apply the flush policy:
/// half the `flush_interval` in wall time, `None` without an interval.
pub(crate) fn flush_slice(options: &PipelineOptions) -> Option<Duration> {
    options
        .flush_interval
        .map(|interval| (options.stream_to_wall(interval) / 2).max(MIN_PACING_SLICE))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

type Frame<R, S> = MessageBatch<R, S>;

/// Control messages the pipeline sends to a worker through its mailbox.
/// Commands only travel while the pipeline is fenced; a chain that is
/// never steered never sends one.
pub(crate) enum WorkerCommand<R, S> {
    /// Renumber the node and (optionally) replace channel endpoints.
    Rewire {
        id: usize,
        nodes: usize,
        left_rx: Option<Receiver<Frame<R, S>>>,
        right_rx: Option<Receiver<Frame<R, S>>>,
        /// Outer `None` keeps the current sender, `Some(x)` replaces it
        /// with `x` (which may itself be `None`: the node became an end).
        to_left: Option<Option<Sender<Frame<R, S>>>>,
        to_right: Option<Option<Sender<Frame<R, S>>>>,
        done: Sender<ScaleConfirm>,
    },
    /// Absorb one migrated segment arriving from the `from` side, install
    /// it (matching where the node type requires it), ack it, confirm.
    Absorb {
        from: Direction,
        stall: Option<Duration>,
        done: Sender<ScaleConfirm>,
    },
    /// Shed the plan-assigned window slice towards `direction`: export the
    /// range, hand it over as a [`Handoff::Segment`], await the ack,
    /// confirm.  One half of a redistribution edge transfer (the
    /// neighbour executes the matching [`WorkerCommand::Absorb`]).
    Shed {
        direction: Direction,
        r: usize,
        s: usize,
        done: Sender<ScaleConfirm>,
    },
    /// Report the node's stored-window census `(|WR_k|, |WS_k|)` — the
    /// input the control plane feeds the redistribution planner.
    Census { done: Sender<CensusReport> },
    /// Export the node's entire window back to the control plane, leaving
    /// the node empty.  The cross-*shard* half of a mesh split/merge:
    /// unlike [`WorkerCommand::Shed`] no neighbour is involved — the mesh
    /// layer partitions the rows by hash and re-installs them (into this
    /// chain and/or a sibling chain) with [`WorkerCommand::Install`].
    ExportAll { done: Sender<WindowSegment<R, S>> },
    /// Install a segment *silently* — merged without matching.  Valid only
    /// for cross-shard movement, where the rows re-enter a chain at the
    /// pipeline position they held in the source chain and every pair they
    /// could meet was already examined there (matching again would
    /// duplicate results on a fragment-replicate merge).
    Install {
        segment: WindowSegment<R, S>,
        done: Sender<ScaleConfirm>,
    },
    /// Export local state, hand it to the left neighbour, await the ack,
    /// exit the thread.
    Retire {
        absorb_first: bool,
        stall: Option<Duration>,
    },
}

/// A worker's confirmation that it executed a scale command.
pub(crate) struct ScaleConfirm {
    pub(crate) migrated_tuples: usize,
}

/// A worker's reply to [`WorkerCommand::Census`].
pub(crate) struct CensusReport {
    pub(crate) node: usize,
    pub(crate) wr: usize,
    pub(crate) ws: usize,
}

/// Shared context every worker holds.
pub(crate) struct WorkerShared<R, S> {
    pub(crate) hwm: Arc<HighWaterMarks>,
    pub(crate) clock: Arc<StreamClock>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) in_flight: Arc<InFlight>,
    /// This worker's own result ring, drained by the collector.
    pub(crate) results: Sender<TimedResult<R, S>>,
    /// This worker's busy-nanoseconds slot on the metrics bus; bumped
    /// (relaxed) after every frame.  Only a chain that can be steered
    /// has one: the busy time feeds the autoscale controller, and timing
    /// a frame costs an `Instant::now` pair.  A chain deployed from given
    /// nodes never resizes and skips it.
    pub(crate) busy_ns: Option<Arc<AtomicU64>>,
}

/// What a worker reports when its thread exits.
pub(crate) struct WorkerExit {
    pub(crate) counters: NodeCounters,
    pub(crate) idle_wakeups: u64,
    /// Frames this worker sent to a neighbour.  Each is assembled in a
    /// freshly allocated buffer, so this is also its buffer allocations.
    pub(crate) batch_allocs: u64,
}

/// The control plane's handle on one spawned worker.
pub(crate) struct WorkerHandle<R, S> {
    pub(crate) handle: JoinHandle<WorkerExit>,
    /// The worker's command mailbox: a ring, because only the control
    /// plane (the thread owning the pipeline) sends commands.
    pub(crate) commands: Sender<WorkerCommand<R, S>>,
    pub(crate) waitset: WaitSet,
}

/// One worker thread: a pipeline node plus its channel endpoints.
pub(crate) struct Worker<R, S> {
    id: usize,
    nodes: usize,
    node: Box<dyn PipelineNode<R, S>>,
    left_rx: Receiver<Frame<R, S>>,
    right_rx: Receiver<Frame<R, S>>,
    to_left: Option<Sender<Frame<R, S>>>,
    to_right: Option<Sender<Frame<R, S>>>,
    /// Command mailbox, polled only when both inputs are empty: commands
    /// travel while the chain is fenced, when no data frame is queued.
    cmd_rx: Receiver<WorkerCommand<R, S>>,
    waitset: WaitSet,
    shared: WorkerShared<R, S>,
    /// A handoff segment that arrived before this worker processed its
    /// `Absorb`/`Retire` command (neighbour ran ahead); consumed by the
    /// command when it executes.
    pending_segment: Option<Handoff<R, S>>,
    idle_wakeups: u64,
    /// Core to pin to on the worker's own stack, first thing in `run`.
    pin_core: Option<usize>,
    batch_allocs: u64,
}

impl<R, S> Worker<R, S>
where
    R: Clone + Send + 'static,
    S: Clone + Send + 'static,
{
    /// Spawns a worker thread for position `id` of `nodes`, registering
    /// `waitset` with both inputs and with a fresh command mailbox.  The
    /// caller makes the wait set before the worker's input rings, which
    /// bind it at construction (`set_waiter` then only asserts the binding
    /// matches); `pin_core` is the core to pin the thread to, when a
    /// [`CoreMap`] is active.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        id: usize,
        nodes: usize,
        node: Box<dyn PipelineNode<R, S>>,
        left_rx: Receiver<Frame<R, S>>,
        right_rx: Receiver<Frame<R, S>>,
        to_left: Option<Sender<Frame<R, S>>>,
        to_right: Option<Sender<Frame<R, S>>>,
        shared: WorkerShared<R, S>,
        waitset: WaitSet,
        pin_core: Option<usize>,
    ) -> WorkerHandle<R, S> {
        left_rx.set_waiter(&waitset);
        right_rx.set_waiter(&waitset);
        let (commands, cmd_rx) = spsc_unbounded(COMMAND_SLOTS, Some(&waitset));
        let worker = Worker {
            id,
            nodes,
            node,
            left_rx,
            right_rx,
            to_left,
            to_right,
            cmd_rx,
            waitset: waitset.clone(),
            shared,
            pending_segment: None,
            idle_wakeups: 0,
            pin_core,
            batch_allocs: 0,
        };
        WorkerHandle {
            handle: thread::spawn(move || worker.run()),
            commands,
            waitset,
        }
    }

    fn run(mut self) -> WorkerExit {
        if let Some(core) = self.pin_core {
            pin_thread(core);
        }
        let mut out: NodeOutput<R, S, ResultTuple<R, S>> = NodeOutput::new();
        // Alternate which input is polled first so neither direction can
        // starve the other under sustained load.
        let mut poll_left_first = true;
        loop {
            // Epoch snapshot before polling (commands included): anything
            // landing between the polls and the park bumps the epoch first,
            // so the wait returns immediately — no lost wake-ups.
            let seen = self.waitset.epoch();
            let frame = if poll_left_first {
                self.left_rx
                    .try_recv()
                    .or_else(|_| self.right_rx.try_recv())
            } else {
                self.right_rx
                    .try_recv()
                    .or_else(|_| self.left_rx.try_recv())
            };
            poll_left_first = !poll_left_first;
            match frame {
                Ok(frame) => self.handle_frame(frame, &mut out),
                Err(_) => {
                    if let Ok(cmd) = self.cmd_rx.try_recv() {
                        if self.execute(cmd) {
                            break;
                        }
                        continue;
                    }
                    if self.shared.stop.load(Ordering::SeqCst)
                        && self.left_rx.is_empty()
                        && self.right_rx.is_empty()
                    {
                        break;
                    }
                    // Block until either input (or shutdown) notifies the
                    // wait set.  A timed-out park is the only "idle
                    // wake-up" left: it means the safety-net timer fired
                    // with nothing to do.
                    if !self.waitset.wait(seen, WORKER_PARK) {
                        self.idle_wakeups += 1;
                    }
                }
            }
        }
        WorkerExit {
            counters: self.node.node_counters(),
            idle_wakeups: self.idle_wakeups,
            batch_allocs: self.batch_allocs,
        }
    }

    /// Processes one data frame: batch dispatch into the node, high-water
    /// mark observation at the pipeline ends, output forwarding (the
    /// complete output of one frame leaves as at most one frame per
    /// direction), result emission, in-flight accounting.  A handoff frame
    /// overtaking its command is stashed instead.
    fn handle_frame(&mut self, frame: Frame<R, S>, out: &mut NodeOutput<R, S, ResultTuple<R, S>>) {
        if let MessageBatch::Handoff(handoff) = frame {
            // The neighbour's migration ran ahead of this worker's own
            // command; park the segment for the command to consume.  Not
            // part of the in-flight accounting, so nothing to finish.
            assert!(
                self.pending_segment.is_none(),
                "node {}: second handoff segment before the first was absorbed",
                self.id
            );
            assert!(
                matches!(handoff, Handoff::Segment { .. }),
                "node {}: handoff ack arrived outside a retire wait",
                self.id
            );
            self.pending_segment = Some(handoff);
            return;
        }
        let busy_start = self.shared.busy_ns.is_some().then(Instant::now);
        let is_leftmost = self.id == 0;
        let is_rightmost = self.id + 1 == self.nodes;
        self.node.observe_time(self.shared.clock.now());
        out.clear();
        // High-water marks advance only *after* this frame's results are
        // in the result queue (see below): the collector reads the marks
        // before vacuuming, so a mark that advanced ahead of its results
        // would let a punctuation overtake them.  `observed` stashes the
        // traversal-end timestamp until the results are safely enqueued.
        let mut observed: Option<(bool, Timestamp)> = None;
        match frame {
            MessageBatch::Left(mut msgs) => {
                // The rightmost node is where R arrivals complete their
                // pipeline traversal; the last arrival of the frame
                // carries the largest timestamp (FIFO order).
                if is_rightmost {
                    observed = msgs
                        .iter()
                        .rev()
                        .find_map(|m| match m {
                            LeftToRight::ArrivalR(r) => Some(r.ts()),
                            _ => None,
                        })
                        .map(|ts| (true, ts));
                }
                self.node.handle_left_batch(&mut msgs, out);
                debug_assert!(msgs.is_empty(), "handle_left_batch must drain its input");
            }
            MessageBatch::Right(mut msgs) => {
                if is_leftmost {
                    observed = msgs
                        .iter()
                        .rev()
                        .find_map(|m| match m {
                            RightToLeft::ArrivalS(s) => Some(s.ts()),
                            _ => None,
                        })
                        .map(|ts| (false, ts));
                }
                self.node.handle_right_batch(&mut msgs, out);
                debug_assert!(msgs.is_empty(), "handle_right_batch must drain its input");
            }
            MessageBatch::Handoff(_) => unreachable!("stashed above"),
        }
        // Results are enqueued *before* the frame is forwarded: a
        // downstream node may otherwise process the forwarded tuples,
        // reach a pipeline end and advance the high-water mark while this
        // node's results for the very same tuples are still local — and a
        // punctuation would overtake them.  (The model suite encodes this
        // ordering; swapping the two blocks fails the checker.)
        if !out.results.is_empty() {
            let detected_at = self.shared.clock.now();
            for result in out.results.drain(..) {
                let _ = self
                    .shared
                    .results
                    .send(TimedResult::new(result, detected_at));
            }
        }
        // The complete output of the frame leaves as at most one frame
        // per direction: this is where per-message channel cost collapses
        // to per-frame cost.
        if !out.to_right.is_empty() {
            if let Some(tx) = &self.to_right {
                let msgs = std::mem::take(&mut out.to_right);
                send_frame(tx, MessageBatch::Left(msgs), &self.shared.in_flight);
                self.batch_allocs += 1;
            } else {
                out.to_right.clear();
            }
        }
        if !out.to_left.is_empty() {
            if let Some(tx) = &self.to_left {
                let msgs = std::mem::take(&mut out.to_left);
                send_frame(tx, MessageBatch::Right(msgs), &self.shared.in_flight);
                self.batch_allocs += 1;
            } else {
                out.to_left.clear();
            }
        }
        // Only now — with every result of this frame enqueued — may the
        // traversal-end mark advance.  Upstream nodes' results for the
        // same tuples were enqueued even earlier (FIFO chain), so when
        // the collector sees the new mark, every result it promises
        // already sits in a queue (Section 6.1.3 step 1 reads the marks
        // before vacuuming).
        match observed {
            Some((true, ts)) => self.shared.hwm.observe_r(ts),
            Some((false, ts)) => self.shared.hwm.observe_s(ts),
            None => {}
        }
        if let (Some(slot), Some(started)) = (&self.shared.busy_ns, busy_start) {
            slot.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.shared.in_flight.finish();
    }

    /// Executes one scale command.  Returns `true` if the worker retires.
    fn execute(&mut self, cmd: WorkerCommand<R, S>) -> bool {
        match cmd {
            WorkerCommand::Rewire {
                id,
                nodes,
                left_rx,
                right_rx,
                to_left,
                to_right,
                done,
            } => {
                self.id = id;
                self.nodes = nodes;
                self.node
                    .set_position(id, nodes)
                    .expect("migration commands require migration-capable nodes");
                if let Some(rx) = left_rx {
                    self.left_rx = rx;
                }
                if let Some(rx) = right_rx {
                    self.right_rx = rx;
                }
                if let Some(tx) = to_left {
                    self.to_left = tx;
                }
                if let Some(tx) = to_right {
                    self.to_right = tx;
                }
                let _ = done.send(ScaleConfirm { migrated_tuples: 0 });
                false
            }
            WorkerCommand::Absorb { from, stall, done } => {
                let migrated = self.absorb_segment(from, stall);
                let _ = done.send(ScaleConfirm {
                    migrated_tuples: migrated,
                });
                false
            }
            WorkerCommand::Shed {
                direction,
                r,
                s,
                done,
            } => {
                self.shed_segment(direction, r, s);
                // The absorbing side reports the moved tuples; a zero here
                // keeps the control plane's per-transfer sum single-counted.
                let _ = done.send(ScaleConfirm { migrated_tuples: 0 });
                false
            }
            WorkerCommand::Census { done } => {
                let (wr, ws) = self.node.window_census();
                let _ = done.send(CensusReport {
                    node: self.id,
                    wr,
                    ws,
                });
                false
            }
            WorkerCommand::ExportAll { done } => {
                let segment = self
                    .node
                    .export_segment()
                    .expect("migration commands require migration-capable nodes");
                let _ = done.send(segment);
                false
            }
            WorkerCommand::Install { segment, done } => {
                let migrated = segment.len();
                self.node
                    .install_segment_silent(segment)
                    .expect("migration commands require migration-capable nodes");
                let _ = done.send(ScaleConfirm {
                    migrated_tuples: migrated,
                });
                false
            }
            WorkerCommand::Retire {
                absorb_first,
                stall,
            } => {
                if absorb_first {
                    self.absorb_segment(Direction::Right, stall);
                }
                let segment = self
                    .node
                    .export_segment()
                    .expect("migration commands require migration-capable nodes");
                let to_left = self
                    .to_left
                    .as_ref()
                    .expect("a retiring node always has a left neighbour");
                let frame = MessageBatch::Handoff(Handoff::Segment {
                    from: self.id,
                    segment,
                });
                assert!(
                    to_left.send(frame).is_ok(),
                    "node {}: segment handoff failed — left neighbour gone",
                    self.id
                );
                self.await_ack(Direction::Left);
                true
            }
        }
    }

    /// Receives one migrated segment from the `from` input (or takes the
    /// stashed one), installs it — emitting any results the installation
    /// produces (the original handshake join matches the still-unmet
    /// direction of a migrated segment) — and acknowledges back towards
    /// `from`.  Returns the number of migrated tuples.
    fn absorb_segment(&mut self, from: Direction, stall: Option<Duration>) -> usize {
        let handoff = match self.pending_segment.take() {
            Some(h) => h,
            None => self.recv_handoff(from),
        };
        let Handoff::Segment {
            from: sender,
            segment,
        } = handoff
        else {
            unreachable!("ack filtered by recv_handoff / stash assertion");
        };
        if let Some(stall) = stall {
            // Test instrumentation: widen the handoff window so teardown
            // tests can deterministically land a shutdown inside it.
            thread::sleep(stall);
        }
        let migrated = segment.len();
        let mut out: NodeOutput<R, S, ResultTuple<R, S>> = NodeOutput::new();
        self.node
            .import_segment(segment, from, &mut out)
            .expect("migration commands require migration-capable nodes");
        debug_assert!(
            out.to_left.is_empty() && out.to_right.is_empty(),
            "segment installation must not emit pipeline messages"
        );
        if !out.results.is_empty() {
            let detected_at = self.shared.clock.now();
            for result in out.results.drain(..) {
                let _ = self
                    .shared
                    .results
                    .send(TimedResult::new(result, detected_at));
            }
        }
        let back = match from {
            Direction::Left => &self.to_left,
            Direction::Right => &self.to_right,
        };
        let back = back
            .as_ref()
            .expect("an absorbing node has the shedding neighbour on the segment side");
        let _ = back.send(MessageBatch::Handoff(Handoff::Ack { to: sender }));
        migrated
    }

    /// Exports the plan-assigned window slice and hands it towards
    /// `direction`, blocking until the receiving neighbour acknowledges
    /// the installation — the exactly-once-residence guarantee of a
    /// redistribution hop is the same segment-then-ack protocol a
    /// retirement uses.
    fn shed_segment(&mut self, direction: Direction, r: usize, s: usize) {
        let census = self.node.window_census();
        let (range_r, range_s) = shed_ranges(census, r, s, direction);
        let segment = self
            .node
            .export_segment_range(range_r, range_s)
            .expect("migration commands require migration-capable nodes");
        let tx = match direction {
            Direction::Left => &self.to_left,
            Direction::Right => &self.to_right,
        };
        let tx = tx
            .as_ref()
            .expect("the plan only sheds across existing edges");
        let frame = MessageBatch::Handoff(Handoff::Segment {
            from: self.id,
            segment,
        });
        assert!(
            tx.send(frame).is_ok(),
            "node {}: redistribution handoff failed — neighbour gone",
            self.id
        );
        self.await_ack(direction);
    }

    /// Blocks until the neighbour on `side` acknowledges the segment this
    /// node handed over.
    fn await_ack(&mut self, side: Direction) {
        match self.recv_handoff(side) {
            Handoff::Ack { to } => {
                debug_assert_eq!(to, self.id, "ack routed to the wrong node");
            }
            Handoff::Segment { .. } => {
                unreachable!("a node awaiting an ack cannot be handed a segment")
            }
        }
    }

    /// Blocks (through the wait set) until a handoff frame arrives on the
    /// given input.  Only valid while fenced: any data frame here is a
    /// protocol violation.
    fn recv_handoff(&mut self, side: Direction) -> Handoff<R, S> {
        loop {
            let seen = self.waitset.epoch();
            let rx = match side {
                Direction::Left => &self.left_rx,
                Direction::Right => &self.right_rx,
            };
            match rx.try_recv() {
                Ok(MessageBatch::Handoff(handoff)) => return handoff,
                Ok(_) => unreachable!("node {}: data frame during a fenced migration", self.id),
                Err(_) => {
                    self.waitset.wait(seen, WORKER_PARK);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Collector side
// ---------------------------------------------------------------------------

/// Everything the collector thread assembled by the time it exits.
pub(crate) struct CollectorOutcome<R, S> {
    pub(crate) results: Vec<TimedResult<R, S>>,
    pub(crate) output: Vec<OutputItem<TimedResult<R, S>>>,
    pub(crate) latency: LatencySummary,
    pub(crate) series: LatencySeries,
    pub(crate) punctuation_count: u64,
}

/// Spawns the collector thread.  It drains one result ring per worker;
/// a worker's ring reaches it through `joining` before the worker
/// spawns, and leaves once the retired worker's ring is empty and
/// disconnected.
///
/// Step 1 of the paper's Section 6.1.3 is preserved: the high-water marks
/// are read *before* the rings are vacuumed (and before newly joined
/// rings are adopted — a ring joins before its worker can produce), so
/// every punctuation `p` emitted after a batch of results is a valid
/// promise (no later result can carry a smaller timestamp).  Every
/// collected latency is folded into a local EWMA, published to the
/// metrics bus once per pass: no atomic read-modify-write per result.
pub(crate) fn spawn_collector<R, S>(
    joining: Receiver<Receiver<TimedResult<R, S>>>,
    stop: Arc<AtomicBool>,
    stop_signal: WaitSet,
    hwm: Arc<HighWaterMarks>,
    metrics: Arc<MetricsBus>,
    options: &PipelineOptions,
    pin_core: Option<usize>,
) -> JoinHandle<CollectorOutcome<R, S>>
where
    R: Clone + Send + 'static,
    S: Clone + Send + 'static,
{
    let (punctuate, interval) = (options.punctuate, options.collect_interval);
    let latency_bucket = options.latency_bucket;
    thread::spawn(move || {
        if let Some(core) = pin_core {
            pin_thread(core);
        }
        let mut outcome = CollectorOutcome {
            results: Vec::new(),
            output: Vec::new(),
            latency: LatencySummary::new(),
            series: LatencySeries::new(latency_bucket),
            punctuation_count: 0,
        };
        let mut receivers: Vec<Receiver<TimedResult<R, S>>> = Vec::new();
        let mut ewma = LatencyEwma::new(DEFAULT_LATENCY_ALPHA);
        loop {
            let seen = stop_signal.epoch();
            let stopping = stop.load(Ordering::SeqCst);
            // Step 1 (Section 6.1.3): read the high-water marks before
            // vacuuming the queues.
            let safe = hwm.safe_punctuation();
            while let Ok(rx) = joining.try_recv() {
                receivers.push(rx);
            }
            let mut drained_any = false;
            receivers.retain(|rx| loop {
                match rx.try_recv() {
                    Ok(timed) => {
                        drained_any = true;
                        let latency = timed.latency();
                        outcome.latency.record(latency);
                        outcome.series.record(timed.detected_at, latency);
                        ewma.observe(latency);
                        if punctuate {
                            outcome.output.push(OutputItem::Result(timed.clone()));
                        }
                        outcome.results.push(timed);
                    }
                    Err(TryRecvError::Empty) => break true,
                    // A retired worker's ring, drained for good.
                    Err(TryRecvError::Disconnected) => break false,
                }
            });
            if drained_any {
                metrics.publish_latency(outcome.results.len() as u64, ewma.value_us());
            }
            if punctuate && drained_any {
                outcome
                    .output
                    .push(OutputItem::Punctuation(Punctuation { ts: safe }));
                outcome.punctuation_count += 1;
            }
            if stopping && !drained_any {
                break;
            }
            // The vacuum period doubles as the park timeout; the driver's
            // shutdown notification cuts it short so the final drain
            // starts immediately.
            stop_signal.wait(seen, interval);
        }
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_micros_states_the_degenerate_cases() {
        assert_eq!(saturating_micros(f64::NAN), 0);
        assert_eq!(saturating_micros(-1.0), 0);
        assert_eq!(saturating_micros(0.0), 0);
        assert_eq!(saturating_micros(f64::INFINITY), u64::MAX);
        assert_eq!(saturating_micros(1e300), u64::MAX);
        assert_eq!(saturating_micros(2.5), 2_500_000);
    }

    /// The whole flush decision, one row per condition: cap, last
    /// arrival, idle link, busy link, age — and what never flushes.
    #[test]
    fn flush_policy_decision_table() {
        let ms = TimeDelta::from_millis;
        let policy = FlushPolicy {
            cap: 64,
            max_age: Some(ms(2)),
        };
        let no_age_bound = FlushPolicy {
            cap: 64,
            max_age: None,
        };
        // (label, policy, arrivals, age, stream ended, link idle, due)
        let rows = [
            ("empty frame", policy, 0, None, false, true, false),
            (
                "empty frame, stream over",
                policy,
                0,
                None,
                true,
                true,
                false,
            ),
            ("idle link", policy, 1, Some(ms(0)), false, true, true),
            ("busy link", policy, 1, Some(ms(0)), false, false, false),
            (
                "busy link, filling",
                policy,
                63,
                Some(ms(1)),
                false,
                false,
                false,
            ),
            (
                "cap on a busy link",
                policy,
                64,
                Some(ms(0)),
                false,
                false,
                true,
            ),
            (
                "last arrival, busy link",
                policy,
                1,
                Some(ms(0)),
                true,
                false,
                true,
            ),
            (
                "aged on a busy link",
                policy,
                5,
                Some(ms(2)),
                false,
                false,
                true,
            ),
            (
                "aged expiries only",
                policy,
                0,
                Some(ms(3)),
                false,
                false,
                true,
            ),
            (
                "expiries only, idle link",
                policy,
                0,
                Some(ms(1)),
                false,
                true,
                false,
            ),
            (
                "no age bound, busy link",
                no_age_bound,
                5,
                Some(ms(1_000)),
                false,
                false,
                false,
            ),
            (
                "no age bound, idle link",
                no_age_bound,
                5,
                Some(ms(1_000)),
                false,
                true,
                true,
            ),
        ];
        for (label, policy, arrivals, age, ended, idle, due) in rows {
            assert_eq!(policy.due(arrivals, age, ended, idle), due, "{label}");
        }
    }

    fn arrival_r(seq: u64) -> DriverEvent<u32, u32> {
        use llhj_core::tuple::{SeqNo, StreamTuple};
        let at = Timestamp::from_millis(seq);
        DriverEvent {
            at,
            event: StreamEvent::ArrivalR(StreamTuple::new(SeqNo(seq), at, 7)),
        }
    }

    type EqPredicate = llhj_core::predicate::FnPredicate<fn(&u32, &u32) -> bool>;

    fn test_injector() -> Injector<u32, u32, EqPredicate, llhj_core::homing::RoundRobin> {
        fn eq(r: &u32, s: &u32) -> bool {
            r == s
        }
        Injector::new(
            llhj_core::predicate::FnPredicate(eq as fn(&u32, &u32) -> bool),
            llhj_core::homing::RoundRobin,
            1,
        )
    }

    /// The idle signals end to end on a real entry channel: arrivals
    /// injected back to back (the driver is busy) share a frame that
    /// leaves once the driver polls on an idle link; the next frame is
    /// held while the link still holds that one, and leaves once the
    /// worker takes it.
    #[test]
    fn entry_frames_are_held_only_while_the_link_or_driver_is_busy() {
        let (left_tx, left_rx) = crate::channel::spsc_bounded(16, None);
        let (right_tx, _right_rx) = crate::channel::spsc_bounded(16, None);
        let mut entry: EntryState<u32, u32> = EntryState::new(
            left_tx,
            right_tx,
            HighWaterMarks::new(),
            &PipelineOptions::default(),
        );
        entry.set_stream_lengths(4, 0);
        let injector = test_injector();
        let in_flight = InFlight::new();

        entry.inject(arrival_r(0), &injector, &in_flight);
        entry.inject(arrival_r(1), &injector, &in_flight);
        assert_eq!(entry.frames_injected, 0, "busy driver: held back");
        entry.poll(Timestamp::from_millis(1), &in_flight);
        assert_eq!(entry.frames_injected, 1, "idle driver, idle link: sent");

        entry.inject(arrival_r(2), &injector, &in_flight);
        entry.poll(Timestamp::from_millis(2), &in_flight);
        assert_eq!(entry.frames_injected, 1, "busy link: held back");

        assert_eq!(left_rx.try_recv().map(|f| f.arrivals()), Ok(2));
        entry.poll(Timestamp::from_millis(2), &in_flight);
        assert_eq!(entry.frames_injected, 2, "drained link releases it");

        // The stream's last arrival leaves even onto a busy link.
        entry.inject(arrival_r(3), &injector, &in_flight);
        assert_eq!(entry.frames_injected, 3);
        assert_eq!(entry.arrivals(), (4, 0));
    }

    /// A catch-up burst: an arrival and its own expiry injected back to
    /// back.  The arrival is still pending (the driver never idled), so
    /// the expiry barrier sends it and waits until the pipeline settles
    /// before the expiry is queued on the opposite entry.
    #[test]
    fn catch_up_burst_settles_an_arrival_before_its_expiry() {
        use llhj_core::tuple::SeqNo;

        let (left_tx, left_rx) = crate::channel::spsc_bounded(16, None);
        let (right_tx, right_rx) = crate::channel::spsc_bounded(16, None);
        let mut entry: EntryState<u32, u32> = EntryState::new(
            left_tx,
            right_tx,
            HighWaterMarks::new(),
            &PipelineOptions::default(),
        );
        let injector = test_injector();
        let in_flight = Arc::new(InFlight::new());
        // A stand-in entry worker: takes the arrival frame, then settles.
        let worker = thread::spawn({
            let in_flight = Arc::clone(&in_flight);
            move || {
                let frame = left_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("the barrier must send the arrival");
                in_flight.finish();
                frame.arrivals()
            }
        });

        entry.inject(arrival_r(0), &injector, &in_flight);
        let expiry = DriverEvent {
            at: Timestamp::from_millis(5),
            event: StreamEvent::ExpireR(SeqNo(0)),
        };
        entry.inject(expiry, &injector, &in_flight);
        assert_eq!(worker.join().unwrap(), 1, "arrival sent by the barrier");
        assert_eq!(entry.frames_injected, 1, "the expiry rides a later frame");
        entry.flush_both(&in_flight);
        let expiries = right_rx.try_recv().expect("expiry frame");
        assert!(matches!(
            expiries,
            MessageBatch::Right(ref msgs) if msgs == &[RightToLeft::ExpiryR(SeqNo(0))]
        ));
    }

    /// The barrier also covers an arrival that has left the driver: sent
    /// on an idle link, it is still travelling when its expiry comes, so
    /// the expiry waits until the chain settles.  Once the traversal-end
    /// mark has passed an arrival, its expiry goes straight in.
    #[test]
    fn an_expiry_waits_for_its_arrival_in_transit() {
        use llhj_core::tuple::SeqNo;

        let (left_tx, left_rx) = crate::channel::spsc_bounded(16, None);
        let (right_tx, _right_rx) = crate::channel::spsc_bounded(16, None);
        let marks = HighWaterMarks::new();
        let mut entry: EntryState<u32, u32> = EntryState::new(
            left_tx,
            right_tx,
            Arc::clone(&marks),
            &PipelineOptions::default(),
        );
        let injector = test_injector();
        let in_flight = Arc::new(InFlight::new());

        entry.inject(arrival_r(0), &injector, &in_flight);
        entry.poll(Timestamp::from_millis(0), &in_flight);
        assert_eq!(entry.frames_injected, 1, "sent on the idle link");
        // A stand-in chain: takes the frame, holds it, then settles.
        let settled = Arc::new(AtomicBool::new(false));
        let worker = thread::spawn({
            let in_flight = Arc::clone(&in_flight);
            let settled = Arc::clone(&settled);
            move || {
                left_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("arrival frame");
                thread::sleep(Duration::from_millis(20));
                settled.store(true, Ordering::SeqCst);
                in_flight.finish();
            }
        });
        let expiry = DriverEvent {
            at: Timestamp::from_millis(5),
            event: StreamEvent::ExpireR(SeqNo(0)),
        };
        entry.inject(expiry, &injector, &in_flight);
        assert!(
            settled.load(Ordering::SeqCst),
            "the expiry went in while its arrival was still travelling"
        );
        worker.join().unwrap();
        assert_eq!(entry.frames_injected, 1, "nothing pending to send");

        // Arrival 1 is sent; the mark reaching its timestamp is not
        // enough (another arrival may share it), passing it is.
        entry.inject(arrival_r(1), &injector, &in_flight);
        entry.poll(Timestamp::from_millis(1), &in_flight);
        marks.observe_r(Timestamp::from_millis(1));
        assert!(entry.left.unsettled(SeqNo(1), marks.r()).is_some());
        marks.observe_r(Timestamp::from_millis(2));
        assert!(entry.left.unsettled(SeqNo(1), marks.r()).is_none());
        assert!(
            entry.left.unsettled(SeqNo(7), marks.r()).is_none(),
            "an arrival this chain never sent"
        );
    }

    /// The clock is the deployment's one stream↔wall mapping: read at the
    /// deadline of stream time `t`, it shows `t`, at any speedup.  Unpaced,
    /// every deadline is the origin, so the driver never waits.
    #[test]
    fn clock_reads_its_own_deadlines() {
        for speedup in [1.0, 4.0, 0.25] {
            let clock = StreamClock::new(Pacing::RealTime { speedup });
            for ms in [0, 1, 20, 1_500, 86_400_000] {
                let t = Timestamp::from_millis(ms);
                let read = clock.at(clock.deadline(t));
                let off = read.as_micros().abs_diff(t.as_micros());
                assert!(
                    off < 1_000,
                    "speedup {speedup}: read {read} at the deadline of {t}"
                );
            }
        }
        let unpaced = StreamClock::new(Pacing::Unpaced);
        assert!(unpaced.deadline(Timestamp::from_secs(60)) <= Instant::now());
    }

    /// A paced driver's slack reads 1 ns inside the guard and the previous
    /// slack after it — also after a replay that unwinds.  An unpaced
    /// guard leaves the slack alone.
    #[cfg(all(target_os = "linux", not(llhj_model)))]
    #[test]
    fn punctual_timers_hold_one_ns_and_restore_the_slack() {
        const PREVIOUS: std::ffi::c_ulong = 123_456;
        let original = timer_slack::get().expect("PR_GET_TIMERSLACK");
        assert!(timer_slack::set(PREVIOUS));
        let paced = Pacing::RealTime { speedup: 1.0 };
        {
            let _timers = PunctualTimers::new(paced);
            assert_eq!(timer_slack::get(), Some(1));
        }
        assert_eq!(timer_slack::get(), Some(PREVIOUS));

        let mut inside = None;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _timers = PunctualTimers::new(paced);
            inside = timer_slack::get();
            std::panic::resume_unwind(Box::new("replay unwinds"));
        }));
        assert!(unwound.is_err());
        assert_eq!(inside, Some(1), "slack inside the unwinding replay");
        assert_eq!(timer_slack::get(), Some(PREVIOUS), "slack after unwinding");

        {
            let _timers = PunctualTimers::new(Pacing::Unpaced);
            assert_eq!(timer_slack::get(), Some(PREVIOUS));
        }
        assert_eq!(timer_slack::get(), Some(PREVIOUS));
        assert!(timer_slack::set(original));
    }

    /// The pacing wait never returns before its deadline: over 200 short
    /// gaps, first while the margin is learned from the parks' lateness,
    /// then from a margin preset above some gaps, so that both the park
    /// and the spin end waits.
    #[test]
    fn pacing_wait_never_returns_before_its_deadline() {
        let mut timers = PunctualTimers::new(Pacing::RealTime { speedup: 1.0 });
        let cancel = CancelToken::new();
        let mut deadline = Instant::now();
        for i in 0..200u64 {
            if i == 100 {
                timers.margin_ns = Some(40_000);
            }
            deadline += Duration::from_micros(20 + (i * 37) % 81);
            assert!(!timers.pace_until(deadline, None, &cancel, || {}));
            let now = Instant::now();
            assert!(
                now >= deadline,
                "wait {i} returned {:?} early",
                deadline - now
            );
        }
    }

    /// A cancel reaches a wait in its spin phase: with a margin preset far
    /// above the gap, the whole wait spins, and a cancel from another
    /// thread ends it long before the deadline.
    #[test]
    fn cancel_interrupts_the_spin_phase() {
        let mut timers = PunctualTimers::new(Pacing::RealTime { speedup: 1.0 });
        timers.margin_ns = Some(60_000_000_000);
        let cancel = CancelToken::new();
        let canceller = cancel.clone();
        let (spinning_tx, spinning_rx) = llhj_sync::sync::mpsc::channel();
        let start = Instant::now();
        let deadline = start + Duration::from_secs(30);
        let cancelling = thread::spawn(move || {
            spinning_rx.recv().expect("the wait reached its spin phase");
            canceller.cancel();
        });
        // `on_slice` runs just before the spin, so the cancel lands in it.
        let cancelled = timers.pace_until(deadline, None, &cancel, || {
            spinning_tx.send(()).expect("canceller alive");
        });
        cancelling.join().expect("canceller panicked");
        assert!(cancelled);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "cancel was not prompt"
        );
    }

    /// The margin is a bounded moving average: one 5 ms oversleep (a
    /// descheduled thread) leaves it at most `MIN_PACING_SLICE`, and small
    /// samples decay it again.
    #[test]
    fn learned_margin_is_clamped_and_decays() {
        let mut timers = PunctualTimers::new(Pacing::RealTime { speedup: 1.0 });
        if cfg!(llhj_model) {
            // The model's clock is frozen: no margin, the wait only parks.
            timers.learn(Duration::from_micros(10));
            assert_eq!(timers.margin_ns, None);
            return;
        }
        timers.learn(Duration::from_millis(5));
        let after_oversleep = timers.margin_ns.expect("a paced guard learns");
        assert!(after_oversleep > 0);
        assert!(after_oversleep <= MIN_PACING_SLICE.as_nanos() as u64);
        for _ in 0..20 {
            timers.learn(Duration::from_millis(5));
        }
        assert!(timers.margin_ns <= Some(MIN_PACING_SLICE.as_nanos() as u64));
        for _ in 0..100 {
            timers.learn(Duration::from_micros(2));
        }
        let decayed = timers.margin_ns.expect("still learning");
        assert!(decayed < 2_100, "margin {decayed} ns after 2 µs samples");
    }

    /// An unpaced guard never learns a margin, even across a real wait.
    #[test]
    fn unpaced_guard_keeps_a_zero_margin() {
        let mut timers = PunctualTimers::new(Pacing::Unpaced);
        let deadline = Instant::now() + Duration::from_micros(200);
        assert!(!timers.pace_until(deadline, None, &CancelToken::new(), || {}));
        timers.learn(Duration::from_millis(1));
        assert_eq!(timers.margin_ns, None);
    }

    #[test]
    fn frozen_clock_for_non_positive_speedup() {
        let clock = StreamClock::new(Pacing::RealTime { speedup: -3.0 });
        thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now(), Timestamp::ZERO);
    }
}
