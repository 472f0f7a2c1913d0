//! The external window driver.
//!
//! Both handshake-join variants assume "an external driver that is aware of
//! the sliding window specification and determines when tuples enter or
//! leave one of the sliding windows" (Section 4.2.4).  This module builds
//! that driver in an engine-agnostic way: given the raw arrivals of both
//! streams and a window specification per stream, it produces a single
//! totally-ordered schedule of arrival and expiry events.  The threaded
//! runtime replays the schedule against the wall clock, the discrete-event
//! simulator replays it in virtual time, and the baseline algorithms consume
//! it directly — so every algorithm sees exactly the same window semantics.
//!
//! The schedule is compiled in one linear pass.  Each stream is read in
//! arrival order while its live window — the contiguous run of arrivals
//! whose expiry is still to come — yields its expiries, and the two
//! streams' event sequences are merged by time.  Empty windows (`Count(0)`,
//! a zero time span) are rejected: their tuples would have to leave before
//! they arrive.
//!
//! Every tuple is stored once.  The schedule keeps the generated arrival
//! vectors as they were handed to [`DriverSchedule::build`] (an arrival's
//! index is its sequence number) and records each event as a 16-byte slot:
//! its instant plus its kind and sequence number packed in one word.
//! [`DriverSchedule::events`] materialises the owned [`DriverEvent`]s on
//! read, cloning each arrival's payload once.

use crate::homing::HomePolicy;
use crate::message::{LeftToRight, RightToLeft};
use crate::predicate::JoinPredicate;
use crate::time::Timestamp;
use crate::tuple::{PipelineTuple, SeqNo, StreamTuple};
use crate::window::WindowSpec;
use llhj_sync::sync::Arc;
use std::ops::RangeBounds;

/// One driver event: something enters or leaves a sliding window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent<R, S> {
    /// A new R tuple arrives (submitted to the left pipeline end).
    ArrivalR(StreamTuple<R>),
    /// A new S tuple arrives (submitted to the right pipeline end).
    ArrivalS(StreamTuple<S>),
    /// An R tuple leaves its window (submitted to the right pipeline end).
    ExpireR(SeqNo),
    /// An S tuple leaves its window (submitted to the left pipeline end).
    ExpireS(SeqNo),
}

impl<R, S> StreamEvent<R, S> {
    /// True for arrival events.
    pub fn is_arrival(&self) -> bool {
        matches!(self, StreamEvent::ArrivalR(_) | StreamEvent::ArrivalS(_))
    }
}

/// A timestamped driver event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverEvent<R, S> {
    /// The stream time at which the driver submits the event.
    pub at: Timestamp,
    /// What happens.
    pub event: StreamEvent<R, S>,
}

/// The kind of a stored event, kept in the top two bits of its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    ArrivalR,
    ArrivalS,
    ExpireR,
    ExpireS,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::ArrivalR, Kind::ArrivalS, Kind::ExpireR, Kind::ExpireS];

    fn is_arrival(self) -> bool {
        matches!(self, Kind::ArrivalR | Kind::ArrivalS)
    }
}

/// Bits of a slot's packed word below its kind: the sequence number.
const SEQ_BITS: u32 = 62;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// One stored event: its instant, and its kind and sequence number packed
/// in one word.  An arrival's payload stays in the schedule's arrival
/// vector, at the index its sequence number names.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: Timestamp,
    packed: u64,
}

impl Slot {
    /// Packs one event.  Panics if `seq` does not fit its field.
    fn new(at: Timestamp, kind: Kind, seq: u64) -> Self {
        assert!(
            seq <= SEQ_MASK,
            "seq {seq} overflows the {SEQ_BITS}-bit field of a schedule slot"
        );
        Slot {
            at,
            packed: (kind as u64) << SEQ_BITS | seq,
        }
    }

    fn kind(self) -> Kind {
        Kind::ALL[(self.packed >> SEQ_BITS) as usize]
    }

    fn seq(self) -> u64 {
        self.packed & SEQ_MASK
    }
}

/// R and S arrivals among `slots`.
fn arrival_counts(slots: &[Slot]) -> (usize, usize) {
    slots.iter().fold((0, 0), |(r, s), slot| match slot.kind() {
        Kind::ArrivalR => (r + 1, s),
        Kind::ArrivalS => (r, s + 1),
        _ => (r, s),
    })
}

/// The fully-ordered schedule of driver events for one experiment run.
#[derive(Debug, Clone)]
pub struct DriverSchedule<R, S> {
    r: Arc<Vec<(Timestamp, R)>>,
    s: Arc<Vec<(Timestamp, S)>>,
    slots: Vec<Slot>,
    r_count: usize,
    s_count: usize,
}

impl<R, S> DriverSchedule<R, S> {
    /// Builds a schedule from raw arrivals (timestamp, payload) of both
    /// streams and their window specifications.
    ///
    /// Arrivals must be sorted by timestamp within each stream; sequence
    /// numbers are assigned here in arrival order.  Expiry events that fall
    /// beyond the last arrival are retained (they flush the windows), which
    /// callers may or may not replay.  Panics on unsorted arrivals and on an
    /// empty window (`Count(0)` or a zero time span) on either stream.
    pub fn build(
        r_arrivals: Vec<(Timestamp, R)>,
        s_arrivals: Vec<(Timestamp, S)>,
        window_r: WindowSpec,
        window_s: WindowSpec,
    ) -> Self {
        let r_count = r_arrivals.len();
        let s_count = s_arrivals.len();
        let mut slots = Vec::with_capacity(2 * (r_count + s_count));
        slots.extend(Compiler {
            r: StreamCursor::new(&r_arrivals, window_r, "R"),
            s: StreamCursor::new(&s_arrivals, window_s, "S"),
        });
        DriverSchedule {
            r: Arc::new(r_arrivals),
            s: Arc::new(s_arrivals),
            slots,
            r_count,
            s_count,
        }
    }

    /// The ordered events, materialised on read.
    pub fn events(&self) -> Events<'_, R, S> {
        Events {
            slots: &self.slots,
            r: &self.r,
            s: &self.s,
        }
    }

    /// Number of R arrivals in the schedule.
    pub fn r_count(&self) -> usize {
        self.r_count
    }

    /// Number of S arrivals in the schedule.
    pub fn s_count(&self) -> usize {
        self.s_count
    }

    /// A schedule holding only the first `events` events — the crash
    /// recovery suite replays such a prefix to model a driver that died
    /// mid-run with a clean injected prefix.  Only the event slots are
    /// copied; the arrival vectors are shared.  Arrival counts are recounted
    /// over the kept events.
    pub fn truncated(&self, events: usize) -> Self {
        let slots = self.slots[..events.min(self.slots.len())].to_vec();
        let (r_count, s_count) = arrival_counts(&slots);
        DriverSchedule {
            r: Arc::clone(&self.r),
            s: Arc::clone(&self.s),
            slots,
            r_count,
            s_count,
        }
    }

    /// Timestamp of the last arrival (useful to stop replay once all input
    /// has been consumed).
    pub fn last_arrival_ts(&self) -> Option<Timestamp> {
        self.slots
            .iter()
            .rfind(|slot| slot.kind().is_arrival())
            .map(|slot| slot.at)
    }
}

/// A borrowed run of a schedule's events: the whole schedule, or a
/// sub-range of it.  It yields owned [`DriverEvent`]s, each built on read
/// with one clone of its tuple's payload.
pub struct Events<'a, R, S> {
    slots: &'a [Slot],
    r: &'a [(Timestamp, R)],
    s: &'a [(Timestamp, S)],
}

impl<R, S> Clone for Events<'_, R, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R, S> Copy for Events<'_, R, S> {}

impl<'a, R, S> Events<'a, R, S> {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The events in `range` (indexes into this run).  Panics on a range
    /// out of bounds, as slice indexing does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let bounds = (range.start_bound().cloned(), range.end_bound().cloned());
        Events {
            slots: &self.slots[bounds],
            ..*self
        }
    }

    /// R and S arrivals among the events, counted without materialising
    /// any of them.
    pub fn arrivals(&self) -> (usize, usize) {
        arrival_counts(self.slots)
    }

    /// An iterator over the events, in order.
    pub fn iter(&self) -> EventsIter<'a, R, S> {
        EventsIter {
            slots: self.slots.iter(),
            r: self.r,
            s: self.s,
        }
    }
}

impl<R: Clone, S: Clone> Events<'_, R, S> {
    /// The event at `index`, if any.
    pub fn get(&self, index: usize) -> Option<DriverEvent<R, S>> {
        self.slots
            .get(index)
            .map(|&slot| materialise(slot, self.r, self.s))
    }
}

impl<'a, R: Clone, S: Clone> IntoIterator for Events<'a, R, S> {
    type Item = DriverEvent<R, S>;
    type IntoIter = EventsIter<'a, R, S>;

    fn into_iter(self) -> EventsIter<'a, R, S> {
        self.iter()
    }
}

/// Builds the owned event a slot stands for.
fn materialise<R: Clone, S: Clone>(
    slot: Slot,
    r: &[(Timestamp, R)],
    s: &[(Timestamp, S)],
) -> DriverEvent<R, S> {
    let seq = SeqNo(slot.seq());
    let index = slot.seq() as usize;
    let event = match slot.kind() {
        Kind::ArrivalR => {
            let (ts, payload) = &r[index];
            StreamEvent::ArrivalR(StreamTuple::new(seq, *ts, payload.clone()))
        }
        Kind::ArrivalS => {
            let (ts, payload) = &s[index];
            StreamEvent::ArrivalS(StreamTuple::new(seq, *ts, payload.clone()))
        }
        Kind::ExpireR => StreamEvent::ExpireR(seq),
        Kind::ExpireS => StreamEvent::ExpireS(seq),
    };
    DriverEvent { at: slot.at, event }
}

/// The iterator of [`Events::iter`]: exact-size, double-ended, with an
/// O(1) `nth`.
pub struct EventsIter<'a, R, S> {
    slots: std::slice::Iter<'a, Slot>,
    r: &'a [(Timestamp, R)],
    s: &'a [(Timestamp, S)],
}

impl<R: Clone, S: Clone> Iterator for EventsIter<'_, R, S> {
    type Item = DriverEvent<R, S>;

    fn next(&mut self) -> Option<DriverEvent<R, S>> {
        let slot = *self.slots.next()?;
        Some(materialise(slot, self.r, self.s))
    }

    fn nth(&mut self, n: usize) -> Option<DriverEvent<R, S>> {
        let slot = *self.slots.nth(n)?;
        Some(materialise(slot, self.r, self.s))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl<R: Clone, S: Clone> DoubleEndedIterator for EventsIter<'_, R, S> {
    fn next_back(&mut self) -> Option<DriverEvent<R, S>> {
        let slot = *self.slots.next_back()?;
        Some(materialise(slot, self.r, self.s))
    }
}

impl<R: Clone, S: Clone> ExactSizeIterator for EventsIter<'_, R, S> {}

/// The schedule compiler: merges the two streams' event sequences by time.
///
/// Cross-stream ties at the exact same microsecond go to R; this convention
/// is shared by every algorithm that replays the schedule, so all of them
/// agree on the boundary cases.
struct Compiler<'a, R, S> {
    r: StreamCursor<'a, R>,
    s: StreamCursor<'a, S>,
}

impl<R, S> Iterator for Compiler<'_, R, S> {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        match (self.r.peek(), self.s.peek()) {
            (Some((at, expiry)), s) if s.is_none_or(|(s_at, _)| at <= s_at) => {
                Some(self.r.advance(at, expiry, Kind::ArrivalR, Kind::ExpireR))
            }
            (_, Some((at, expiry))) => {
                Some(self.s.advance(at, expiry, Kind::ArrivalS, Kind::ExpireS))
            }
            _ => None,
        }
    }
}

/// One stream of the compiler: its arrivals, read in order.  The live
/// window is the run of arrivals `expired..next` — every tuple that has
/// arrived and not yet left, oldest first — so it needs no storage of its
/// own (under an unbounded window nothing ever leaves).
///
/// The stream's events come out ordered by time and, on equal times, in the
/// order the window decides them: a count window's expiry right before the
/// arrival that triggers it, a time window's expiry before any arrival at
/// its instant.
struct StreamCursor<'a, T> {
    arrivals: &'a [(Timestamp, T)],
    window: WindowSpec,
    next: usize,
    expired: usize,
    stream: &'static str,
}

impl<'a, T> StreamCursor<'a, T> {
    fn new(arrivals: &'a [(Timestamp, T)], window: WindowSpec, stream: &'static str) -> Self {
        assert!(
            window != WindowSpec::Count(0) && window.time_span().is_none_or(|d| !d.is_zero()),
            "the {stream} window {window:?} is empty: its tuples would leave before they arrive"
        );
        StreamCursor {
            arrivals,
            window,
            next: 0,
            expired: 0,
            stream,
        }
    }

    /// The instant of the stream's next event, and whether it is an expiry.
    fn peek(&self) -> Option<(Timestamp, bool)> {
        let arrival = self.arrivals.get(self.next).map(|&(ts, _)| ts);
        let live = self.next - self.expired;
        let expiry = match self.window {
            WindowSpec::Time(span) => {
                (live > 0).then(|| self.arrivals[self.expired].0.saturating_add(span))
            }
            // The oldest of `k` live tuples leaves as the next one arrives.
            WindowSpec::Count(k) => arrival.filter(|_| live >= k),
            WindowSpec::Unbounded => None,
        };
        match (expiry, arrival) {
            (Some(at), next) if next.is_none_or(|ts| at <= ts) => Some((at, true)),
            (_, next) => next.map(|ts| (ts, false)),
        }
    }

    /// Takes the event [`peek`](Self::peek) announced at `at`.
    fn advance(&mut self, at: Timestamp, expiry: bool, arrive: Kind, expire: Kind) -> Slot {
        let (kind, seq) = if expiry {
            self.expired += 1;
            (expire, self.expired - 1)
        } else {
            assert!(
                self.next == 0 || self.arrivals[self.next - 1].0 <= at,
                "{} arrivals must be sorted by timestamp",
                self.stream
            );
            self.next += 1;
            (arrive, self.next - 1)
        };
        Slot::new(at, kind, seq as u64)
    }
}

/// Converts driver events into pipeline messages, assigning home nodes.
///
/// In the paper the home node is decided at the entry node of the pipeline
/// (line 6 of Figures 13/14).  Factoring the decision into this injector
/// keeps the node state machines independent of the placement policy while
/// remaining semantically identical: the injector is invoked exactly when a
/// tuple is submitted to its entry node.
pub struct Injector<R, S, P, H> {
    predicate: P,
    policy: H,
    nodes: usize,
    _marker: std::marker::PhantomData<fn() -> (R, S)>,
}

impl<R, S, P, H> Injector<R, S, P, H> {
    /// Creates an injector for a pipeline of `nodes` nodes.
    pub fn new(predicate: P, policy: H, nodes: usize) -> Self {
        assert!(nodes > 0, "a pipeline needs at least one node");
        Injector {
            predicate,
            policy,
            nodes,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of pipeline nodes the injector targets.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

impl<R, S, P, H> Injector<R, S, P, H>
where
    P: JoinPredicate<R, S>,
    H: HomePolicy,
{
    /// Wraps an R arrival for submission to the leftmost node.
    pub fn inject_r(&self, tuple: StreamTuple<R>) -> LeftToRight<R> {
        let key = self.predicate.r_key(&tuple.payload);
        let home = self.policy.assign(tuple.seq, key, self.nodes);
        LeftToRight::ArrivalR(PipelineTuple::fresh(tuple, home))
    }

    /// Wraps an S arrival for submission to the rightmost node.
    pub fn inject_s(&self, tuple: StreamTuple<S>) -> RightToLeft<S> {
        let key = self.predicate.s_key(&tuple.payload);
        let home = self.policy.assign(tuple.seq, key, self.nodes);
        RightToLeft::ArrivalS(PipelineTuple::fresh(tuple, home))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homing::RoundRobin;
    use crate::predicate::{EquiPredicate, FnPredicate};
    use crate::time::TimeDelta;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// The schedule as `kind stream seq @ secs` strings, e.g. `aR0@1`.
    fn render<R: Clone, S: Clone>(sched: &DriverSchedule<R, S>) -> Vec<String> {
        sched
            .events()
            .iter()
            .map(|e| match &e.event {
                StreamEvent::ArrivalR(t) => format!("aR{}@{}", t.seq.0, e.at.as_secs_f64()),
                StreamEvent::ArrivalS(t) => format!("aS{}@{}", t.seq.0, e.at.as_secs_f64()),
                StreamEvent::ExpireR(q) => format!("eR{}@{}", q.0, e.at.as_secs_f64()),
                StreamEvent::ExpireS(q) => format!("eS{}@{}", q.0, e.at.as_secs_f64()),
            })
            .collect()
    }

    #[test]
    fn schedule_orders_events_and_assigns_seqs() {
        let r = vec![(ts(1), 'a'), (ts(3), 'b')];
        let s = vec![(ts(2), 'x')];
        let sched = DriverSchedule::build(
            r,
            s,
            WindowSpec::Time(TimeDelta::from_secs(10)),
            WindowSpec::Time(TimeDelta::from_secs(10)),
        );
        assert_eq!(sched.r_count(), 2);
        assert_eq!(sched.s_count(), 1);
        assert_eq!(
            render(&sched),
            vec!["aR0@1", "aS0@2", "aR1@3", "eR0@11", "eS0@12", "eR1@13"]
        );
        assert_eq!(sched.last_arrival_ts(), Some(ts(3)));
    }

    #[test]
    fn time_window_expiry_is_arrival_plus_span() {
        // An expiry due at an arrival's instant goes first, and a
        // cross-stream tie goes to R.
        let r = vec![(ts(3), ()), (ts(13), ())];
        let s = vec![(ts(13), ())];
        let sched = DriverSchedule::<(), ()>::build(
            r,
            s,
            WindowSpec::time_secs(10),
            WindowSpec::time_secs(10),
        );
        assert_eq!(
            render(&sched),
            vec!["aR0@3", "eR0@13", "aR1@13", "aS0@13", "eR1@23", "eS0@23"]
        );
    }

    #[test]
    fn count_window_expires_oldest_on_overflow() {
        let r = vec![(ts(1), ()), (ts(2), ()), (ts(3), ()), (ts(4), ())];
        let sched =
            DriverSchedule::<(), ()>::build(r, vec![], WindowSpec::Count(2), WindowSpec::Count(2));
        // The window keeps the last two tuples; nothing flushes them after
        // the last arrival.
        assert_eq!(
            render(&sched),
            vec!["aR0@1", "aR1@2", "eR0@3", "aR2@3", "eR1@4", "aR3@4"]
        );
    }

    #[test]
    fn unbounded_window_never_expires() {
        let r: Vec<_> = (0..100).map(|i| (ts(i), ())).collect();
        let s: Vec<_> = (0..100).map(|i| (ts(i), ())).collect();
        let sched =
            DriverSchedule::<(), ()>::build(r, s, WindowSpec::Unbounded, WindowSpec::Unbounded);
        assert_eq!(sched.events().len(), 200);
        assert!(sched.events().iter().all(|e| e.event.is_arrival()));
    }

    fn build_with(window_r: WindowSpec, window_s: WindowSpec) -> DriverSchedule<(), ()> {
        DriverSchedule::build(vec![(ts(1), ())], vec![(ts(1), ())], window_r, window_s)
    }

    #[test]
    #[should_panic(expected = "the R window Count(0) is empty")]
    fn zero_count_window_on_r_is_rejected() {
        build_with(WindowSpec::Count(0), WindowSpec::Count(1));
    }

    #[test]
    #[should_panic(expected = "the S window Count(0) is empty")]
    fn zero_count_window_on_s_is_rejected() {
        build_with(WindowSpec::Unbounded, WindowSpec::Count(0));
    }

    #[test]
    #[should_panic(expected = "the R window Time(TimeDelta(0)) is empty")]
    fn zero_time_window_on_r_is_rejected() {
        build_with(WindowSpec::Time(TimeDelta::ZERO), WindowSpec::time_secs(1));
    }

    #[test]
    #[should_panic(expected = "the S window Time(TimeDelta(0)) is empty")]
    fn zero_time_window_on_s_is_rejected() {
        build_with(WindowSpec::time_secs(1), WindowSpec::Time(TimeDelta::ZERO));
    }

    #[test]
    fn truncated_clamps_and_recounts_arrivals() {
        let sched = DriverSchedule::<(), ()>::build(
            vec![(ts(1), ()), (ts(3), ())],
            vec![(ts(2), ())],
            WindowSpec::time_secs(10),
            WindowSpec::time_secs(10),
        );
        let none = sched.truncated(0);
        assert!(none.events().is_empty());
        assert_eq!((none.r_count(), none.s_count()), (0, 0));
        assert_eq!(none.last_arrival_ts(), None);
        let two = sched.truncated(2);
        assert_eq!((two.r_count(), two.s_count()), (1, 1));
        let all = sched.truncated(sched.events().len() + 5);
        assert_eq!(render(&all), render(&sched));
        assert_eq!((all.r_count(), all.s_count()), (2, 1));
    }

    #[test]
    fn an_event_is_stored_in_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn slots_pack_every_kind_and_the_widest_seq() {
        for kind in Kind::ALL {
            for seq in [0, 1, SEQ_MASK] {
                let slot = Slot::new(ts(3), kind, seq);
                assert_eq!((slot.at, slot.kind(), slot.seq()), (ts(3), kind, seq));
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows the 62-bit field")]
    fn packing_rejects_a_seq_that_overflows_its_field() {
        Slot::new(ts(1), Kind::ExpireS, SEQ_MASK + 1);
    }

    #[test]
    fn truncated_shares_the_arrival_arrays() {
        let sched = DriverSchedule::build(
            vec![(ts(1), 'a'), (ts(3), 'b')],
            vec![(ts(2), 'x')],
            WindowSpec::time_secs(10),
            WindowSpec::time_secs(10),
        );
        let prefix = sched.truncated(4);
        assert!(Arc::ptr_eq(&prefix.r, &sched.r));
        assert!(Arc::ptr_eq(&prefix.s, &sched.s));
        assert_eq!(Arc::strong_count(&sched.r), 2);
        assert_eq!(render(&prefix), render(&sched)[..4]);
    }

    /// A tie-heavy schedule over both streams with count and time windows.
    fn mixed_schedule() -> DriverSchedule<u32, u32> {
        let r = (0..40).map(|i| (ts(i / 3), i as u32)).collect();
        let s = (0..30).map(|i| (ts(i / 2), 100 + i as u32)).collect();
        DriverSchedule::build(r, s, WindowSpec::Count(4), WindowSpec::time_secs(2))
    }

    #[test]
    fn the_view_agrees_with_a_forward_materialisation() {
        let sched = mixed_schedule();
        let view = sched.events();
        let mut forward = Vec::new();
        let mut it = view.iter();
        for i in 0..view.len() {
            assert_eq!(it.len(), view.len() - i);
            forward.extend(it.next());
        }
        assert!(it.next().is_none());
        assert_eq!(view.len(), forward.len());
        assert_eq!(view.iter().len(), forward.len());
        assert!(view.into_iter().eq(forward.iter().cloned()));
        assert!(view.iter().rev().eq(forward.iter().rev().cloned()));
        for i in 0..=forward.len() {
            assert_eq!(view.get(i).as_ref(), forward.get(i));
            assert_eq!(view.iter().nth(i).as_ref(), forward.get(i));
            let back = forward.len().checked_sub(i + 1).map(|j| &forward[j]);
            assert_eq!(view.iter().nth_back(i).as_ref(), back);
        }
        // `nth` and `next_back` leave the iterator where a slice's would.
        let mut it = view.iter();
        assert_eq!(it.nth(5).as_ref(), Some(&forward[5]));
        assert_eq!(it.len(), forward.len() - 6);
        assert_eq!(it.next_back().as_ref(), forward.last());
        assert_eq!(it.next().as_ref(), Some(&forward[6]));
        for (a, b) in [
            (0, 0),
            (0, forward.len()),
            (7, 19),
            (forward.len(), forward.len()),
        ] {
            let sub = view.slice(a..b);
            assert_eq!(sub.len(), b - a);
            assert!(sub.iter().eq(forward[a..b].iter().cloned()));
            assert!(view.slice(a..).iter().eq(forward[a..].iter().cloned()));
            let arrivals = |events: &[DriverEvent<u32, u32>], r: bool| {
                events
                    .iter()
                    .filter(|e| match e.event {
                        StreamEvent::ArrivalR(_) => r,
                        StreamEvent::ArrivalS(_) => !r,
                        _ => false,
                    })
                    .count()
            };
            let slice = &forward[a..b];
            assert_eq!(
                sub.arrivals(),
                (arrivals(slice, true), arrivals(slice, false))
            );
        }
        assert_eq!(view.arrivals(), (sched.r_count(), sched.s_count()));
    }

    #[test]
    #[should_panic]
    fn a_sub_range_out_of_bounds_panics() {
        let sched = mixed_schedule();
        let len = sched.events().len();
        let _ = sched.events().slice(len + 1..);
    }

    #[test]
    fn the_last_arrival_found_backwards_matches_a_forward_search() {
        let sched = mixed_schedule();
        for kept in 0..=sched.events().len() {
            let prefix = sched.truncated(kept);
            let forward: Vec<_> = prefix.events().iter().collect();
            let last = forward
                .iter()
                .enumerate()
                .filter(|(_, e)| e.event.is_arrival())
                .map(|(i, _)| i)
                .fold(None, |_, i| Some(i));
            assert_eq!(
                prefix.events().iter().rposition(|e| e.event.is_arrival()),
                last
            );
            assert_eq!(prefix.last_arrival_ts(), last.map(|i| forward[i].at));
        }
    }

    #[test]
    fn count_window_expiry_sits_between_the_two_arrivals() {
        // Count-based window of 1 on R with identical timestamps: the second
        // arrival expires the first at the same instant.  The expiry must
        // come after the first arrival (a tuple cannot expire before it
        // arrived) and before the arrival that triggered it.
        let r = vec![(ts(5), 1u32), (ts(5), 2u32)];
        let sched: DriverSchedule<u32, u32> =
            DriverSchedule::build(r, vec![], WindowSpec::Count(1), WindowSpec::Count(1));
        let pos = |pred: &dyn Fn(&StreamEvent<u32, u32>) -> bool| {
            sched.events().iter().position(|e| pred(&e.event)).unwrap()
        };
        let first_arrival = pos(&|e| matches!(e, StreamEvent::ArrivalR(t) if t.seq == SeqNo(0)));
        let expiry = pos(&|e| matches!(e, StreamEvent::ExpireR(SeqNo(0))));
        let second_arrival = pos(&|e| matches!(e, StreamEvent::ArrivalR(t) if t.seq == SeqNo(1)));
        assert!(first_arrival < expiry);
        assert!(expiry < second_arrival);
        assert_eq!(sched.events().len(), 3);
    }

    #[test]
    #[should_panic(expected = "R arrivals must be sorted by timestamp")]
    fn unsorted_arrivals_are_rejected() {
        let r = vec![(ts(5), ()), (ts(3), ())];
        let _ = DriverSchedule::<(), ()>::build(
            r,
            vec![],
            WindowSpec::Unbounded,
            WindowSpec::Unbounded,
        );
    }

    #[test]
    #[should_panic(expected = "S arrivals must be sorted by timestamp")]
    fn unsorted_s_arrivals_are_rejected() {
        let s = vec![(ts(5), ()), (ts(3), ())];
        let _ = DriverSchedule::<(), ()>::build(
            vec![(ts(1), ())],
            s,
            WindowSpec::time_secs(1),
            WindowSpec::time_secs(1),
        );
    }

    #[test]
    fn injector_assigns_round_robin_homes() {
        let pred = FnPredicate(|_: &u32, _: &u32| true);
        let inj = Injector::new(pred, RoundRobin, 3);
        assert_eq!(inj.nodes(), 3);
        for i in 0..6u64 {
            let msg = inj.inject_r(StreamTuple::new(SeqNo(i), ts(i), i as u32));
            match msg {
                LeftToRight::ArrivalR(p) => {
                    assert_eq!(p.home, (i % 3) as usize);
                    assert!(p.is_fresh());
                }
                _ => panic!("expected arrival"),
            }
        }
    }

    #[test]
    fn injector_uses_predicate_keys_for_placement() {
        use crate::homing::HashKey;
        let pred = EquiPredicate::new(|r: &u64| *r, |s: &u64| *s);
        let inj = Injector::new(pred, HashKey, 4);
        // Same key on both sides must land on the same home node, which is
        // what makes hash placement co-partitioning.
        for key in 0..50u64 {
            let r_home = match inj.inject_r(StreamTuple::new(SeqNo(key), ts(1), key)) {
                LeftToRight::ArrivalR(p) => p.home,
                _ => unreachable!(),
            };
            let s_home = match inj.inject_s(StreamTuple::new(SeqNo(1000 + key), ts(1), key)) {
                RightToLeft::ArrivalS(p) => p.home,
                _ => unreachable!(),
            };
            assert_eq!(r_home, s_home);
        }
    }
}
