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
//! arrival order while a FIFO of its live window holds the tuples whose
//! expiry is still to come — O(window) state, nothing for an unbounded
//! window — and the two streams' event sequences are merged by time.
//! Empty windows (`Count(0)`, a zero time span) are rejected: their tuples
//! would have to leave before they arrive.

use crate::homing::HomePolicy;
use crate::message::{LeftToRight, RightToLeft};
use crate::predicate::JoinPredicate;
use crate::time::Timestamp;
use crate::tuple::{PipelineTuple, SeqNo, StreamTuple};
use crate::window::WindowSpec;
use std::collections::VecDeque;
use std::iter::Peekable;
use std::vec::IntoIter;

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

/// The fully-ordered schedule of driver events for one experiment run.
#[derive(Debug, Clone)]
pub struct DriverSchedule<R, S> {
    events: Vec<DriverEvent<R, S>>,
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
        let mut events = Vec::with_capacity(2 * (r_count + s_count));
        events.extend(Compiler {
            r: StreamCursor::new(r_arrivals, window_r, "R"),
            s: StreamCursor::new(s_arrivals, window_s, "S"),
        });
        DriverSchedule {
            events,
            r_count,
            s_count,
        }
    }

    /// The ordered events.
    pub fn events(&self) -> &[DriverEvent<R, S>] {
        &self.events
    }

    /// Consumes the schedule, returning the ordered events.
    pub fn into_events(self) -> Vec<DriverEvent<R, S>> {
        self.events
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
    /// mid-run with a clean injected prefix.  Arrival counts are recounted
    /// over the kept events.
    pub fn truncated(&self, events: usize) -> Self
    where
        R: Clone,
        S: Clone,
    {
        let kept = self.events[..events.min(self.events.len())].to_vec();
        let r_count = kept
            .iter()
            .filter(|e| matches!(e.event, StreamEvent::ArrivalR(_)))
            .count();
        let s_count = kept
            .iter()
            .filter(|e| matches!(e.event, StreamEvent::ArrivalS(_)))
            .count();
        DriverSchedule {
            events: kept,
            r_count,
            s_count,
        }
    }

    /// Timestamp of the last arrival (useful to stop replay once all input
    /// has been consumed).
    pub fn last_arrival_ts(&self) -> Option<Timestamp> {
        self.events
            .iter()
            .filter(|e| e.event.is_arrival())
            .map(|e| e.at)
            .next_back()
    }
}

/// The schedule compiler: merges the two streams' event sequences by time.
///
/// Cross-stream ties at the exact same microsecond go to R; this convention
/// is shared by every algorithm that replays the schedule, so all of them
/// agree on the boundary cases.
struct Compiler<R, S> {
    r: StreamCursor<R>,
    s: StreamCursor<S>,
}

impl<R, S> Iterator for Compiler<R, S> {
    type Item = DriverEvent<R, S>;

    fn next(&mut self) -> Option<DriverEvent<R, S>> {
        let (at, event) = match (self.r.peek(), self.s.peek()) {
            (Some((at, expiry)), s) if s.is_none_or(|(s_at, _)| at <= s_at) => (
                at,
                self.r
                    .advance(expiry, StreamEvent::ArrivalR, StreamEvent::ExpireR),
            ),
            (_, Some((at, expiry))) => (
                at,
                self.s
                    .advance(expiry, StreamEvent::ArrivalS, StreamEvent::ExpireS),
            ),
            _ => return None,
        };
        Some(DriverEvent { at, event })
    }
}

/// One stream of the compiler: its arrivals, read in order, and its live
/// window — the `(arrival instant, seq)` of every tuple whose expiry is
/// still to come, oldest first (left empty under an unbounded window).
///
/// The stream's events come out ordered by time and, on equal times, in the
/// order the window decides them: a count window's expiry right before the
/// arrival that triggers it, a time window's expiry before any arrival at
/// its instant.
struct StreamCursor<T> {
    arrivals: Peekable<IntoIter<(Timestamp, T)>>,
    window: WindowSpec,
    live: VecDeque<(Timestamp, SeqNo)>,
    next_seq: u64,
    last: Timestamp,
    stream: &'static str,
}

impl<T> StreamCursor<T> {
    fn new(arrivals: Vec<(Timestamp, T)>, window: WindowSpec, stream: &'static str) -> Self {
        assert!(
            window != WindowSpec::Count(0) && window.time_span().is_none_or(|d| !d.is_zero()),
            "the {stream} window {window:?} is empty: its tuples would leave before they arrive"
        );
        StreamCursor {
            arrivals: arrivals.into_iter().peekable(),
            window,
            live: VecDeque::new(),
            next_seq: 0,
            last: Timestamp::ZERO,
            stream,
        }
    }

    /// The instant of the stream's next event, and whether it is an expiry.
    fn peek(&mut self) -> Option<(Timestamp, bool)> {
        let arrival = self.arrivals.peek().map(|&(ts, _)| ts);
        let expiry = match self.window {
            WindowSpec::Time(span) => self.live.front().map(|&(ts, _)| ts.saturating_add(span)),
            // The oldest of `k` live tuples leaves as the next one arrives.
            WindowSpec::Count(k) => arrival.filter(|_| self.live.len() >= k),
            WindowSpec::Unbounded => None,
        };
        match (expiry, arrival) {
            (Some(at), next) if next.is_none_or(|ts| at <= ts) => Some((at, true)),
            (_, next) => next.map(|ts| (ts, false)),
        }
    }

    /// Takes the event [`peek`](Self::peek) announced.
    fn advance<E>(
        &mut self,
        expiry: bool,
        arrive: fn(StreamTuple<T>) -> E,
        expire: fn(SeqNo) -> E,
    ) -> E {
        if expiry {
            let (_, seq) = self.live.pop_front().expect("an expiry needs a live tuple");
            return expire(seq);
        }
        let (ts, payload) = self.arrivals.next().expect("an arrival was announced");
        assert!(
            ts >= self.last,
            "{} arrivals must be sorted by timestamp",
            self.stream
        );
        self.last = ts;
        let seq = SeqNo(self.next_seq);
        self.next_seq += 1;
        if self.window != WindowSpec::Unbounded {
            self.live.push_back((ts, seq));
        }
        arrive(StreamTuple::new(seq, ts, payload))
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
    fn render<R, S>(sched: &DriverSchedule<R, S>) -> Vec<String> {
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
        assert_eq!(all.events(), sched.events());
        assert_eq!((all.r_count(), all.s_count()), (2, 1));
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
