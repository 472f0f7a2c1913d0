//! Kang's three-step procedure (Section 2.1 of the paper).
//!
//! Kang, Naughton and Viglas describe the canonical sequential stream-join
//! operator: every arriving tuple (1) scans the opposite window, (2) old
//! tuples are invalidated, and (3) the tuple is inserted into its own
//! window.  The procedure has optimal latency — a pair is reported the
//! moment its later tuple arrives — but it is inherently sequential.
//!
//! In this repository Kang's procedure plays two roles: it is the
//! single-core baseline of the evaluation, and it is the *semantic oracle*
//! for correctness testing — both handshake-join variants must produce
//! exactly the same set of result pairs for any driver schedule.

use llhj_core::driver::{DriverSchedule, StreamEvent};
use llhj_core::predicate::JoinPredicate;
use llhj_core::result::{ResultTuple, TimedResult};
use llhj_core::stats::LatencySummary;
use llhj_core::store::LocalWindow;
use llhj_core::time::Timestamp;
use llhj_core::tuple::SeqNo;

/// Outcome of running Kang's procedure over a complete driver schedule.
#[derive(Debug)]
pub struct KangReport<R, S> {
    /// Every result pair, in detection order.
    pub results: Vec<TimedResult<R, S>>,
    /// Total number of predicate evaluations performed.
    pub comparisons: u64,
    /// Latency statistics (always ~0: detection happens at arrival time).
    pub latency: LatencySummary,
    /// Peak number of tuples simultaneously held in both windows.
    pub peak_window_tuples: usize,
}

impl<R, S> KangReport<R, S> {
    /// The result pairs as a sorted list of `(r_seq, s_seq)` keys; the
    /// canonical representation used to compare algorithms.
    pub fn result_keys(&self) -> Vec<(SeqNo, SeqNo)> {
        let mut keys: Vec<_> = self.results.iter().map(|t| t.result.key()).collect();
        keys.sort_unstable();
        keys
    }
}

/// A sequential sliding-window join following Kang's three-step procedure.
pub struct KangJoin<R, S, P> {
    predicate: P,
    window_r: LocalWindow<R>,
    window_s: LocalWindow<S>,
    comparisons: u64,
    peak: usize,
    _marker: std::marker::PhantomData<fn() -> (R, S)>,
}

impl<R, S, P> KangJoin<R, S, P>
where
    R: Clone,
    S: Clone,
    P: JoinPredicate<R, S>,
{
    /// Creates an empty join operator.
    pub fn new(predicate: P) -> Self {
        KangJoin {
            predicate,
            window_r: LocalWindow::new(),
            window_s: LocalWindow::new(),
            comparisons: 0,
            peak: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Current window sizes `(|W_R|, |W_S|)`.
    pub fn window_sizes(&self) -> (usize, usize) {
        (self.window_r.len(), self.window_s.len())
    }

    /// Processes one driver event, appending any results to `out`.
    pub fn process<F>(&mut self, event: StreamEvent<R, S>, at: Timestamp, mut emit: F)
    where
        F: FnMut(TimedResult<R, S>),
    {
        match event {
            StreamEvent::ArrivalR(r) => {
                // Deliberately always the scalar closure path: Kang is the
                // semantic oracle the columnar band scan is verified against,
                // so it must not share the code under test.
                let pred = &self.predicate;
                self.comparisons += self.window_s.scan_matches(
                    false,
                    |s| pred.matches(&r.payload, s),
                    |s| {
                        emit(TimedResult::new(ResultTuple::new(r.clone(), s, 0), at));
                    },
                );
                self.window_r.insert(r, false);
            }
            StreamEvent::ArrivalS(s) => {
                let pred = &self.predicate;
                self.comparisons += self.window_r.scan_matches(
                    false,
                    |r| pred.matches(r, &s.payload),
                    |r| {
                        emit(TimedResult::new(ResultTuple::new(r, s.clone(), 0), at));
                    },
                );
                self.window_s.insert(s, false);
            }
            StreamEvent::ExpireR(seq) => {
                self.window_r.remove(seq);
            }
            StreamEvent::ExpireS(seq) => {
                self.window_s.remove(seq);
            }
        }
        self.peak = self.peak.max(self.window_r.len() + self.window_s.len());
    }

    /// Runs the complete schedule and returns the report.
    pub fn run(mut self, schedule: &DriverSchedule<R, S>) -> KangReport<R, S> {
        let mut results = Vec::new();
        let mut latency = LatencySummary::new();
        for event in schedule.events() {
            self.process(event.event, event.at, |timed| {
                latency.record(timed.latency());
                results.push(timed);
            });
        }
        KangReport {
            results,
            comparisons: self.comparisons,
            latency,
            peak_window_tuples: self.peak,
        }
    }
}

/// Convenience function: run Kang's procedure over a schedule.
pub fn run_kang<R, S, P>(predicate: P, schedule: &DriverSchedule<R, S>) -> KangReport<R, S>
where
    R: Clone,
    S: Clone,
    P: JoinPredicate<R, S>,
{
    KangJoin::new(predicate).run(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhj_core::predicate::FnPredicate;
    use llhj_core::time::TimeDelta;
    use llhj_core::window::WindowSpec;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn equal_schedule(
        r: Vec<(u64, u32)>,
        s: Vec<(u64, u32)>,
        window: WindowSpec,
    ) -> DriverSchedule<u32, u32> {
        DriverSchedule::build(
            r.into_iter().map(|(t, v)| (ts(t), v)).collect(),
            s.into_iter().map(|(t, v)| (ts(t), v)).collect(),
            window,
            window,
        )
    }

    #[test]
    fn finds_all_pairs_in_unbounded_windows() {
        let sched = equal_schedule(
            vec![(1, 7), (2, 8), (3, 7)],
            vec![(4, 7), (5, 9)],
            WindowSpec::Unbounded,
        );
        let report = run_kang(FnPredicate(|r: &u32, s: &u32| r == s), &sched);
        assert_eq!(
            report.result_keys(),
            vec![(SeqNo(0), SeqNo(0)), (SeqNo(2), SeqNo(0))]
        );
        // Latency is zero: every pair is detected when its later tuple
        // arrives.
        assert_eq!(report.latency.max(), TimeDelta::ZERO);
        assert_eq!(report.results.len(), 2);
    }

    #[test]
    fn respects_time_windows() {
        // S tuple at t=1 with a 2-second window expires at t=3; the R tuple
        // arriving at t=4 must not match it.
        let sched = equal_schedule(vec![(4, 7)], vec![(1, 7)], WindowSpec::time_secs(2));
        let report = run_kang(FnPredicate(|r: &u32, s: &u32| r == s), &sched);
        assert!(report.results.is_empty());
        // With a 5-second window the pair is found.
        let sched = equal_schedule(vec![(4, 7)], vec![(1, 7)], WindowSpec::time_secs(5));
        let report = run_kang(FnPredicate(|r: &u32, s: &u32| r == s), &sched);
        assert_eq!(report.results.len(), 1);
    }

    #[test]
    fn respects_count_windows() {
        // Count window of 1 on both sides: R#0 is evicted by R#1 before S
        // arrives, so only R#1 joins.
        let sched = equal_schedule(vec![(1, 7), (2, 7)], vec![(3, 7)], WindowSpec::Count(1));
        let report = run_kang(FnPredicate(|r: &u32, s: &u32| r == s), &sched);
        assert_eq!(report.result_keys(), vec![(SeqNo(1), SeqNo(0))]);
    }

    #[test]
    fn emits_no_duplicates_for_symmetric_input() {
        let sched = equal_schedule(
            vec![(1, 1), (2, 2), (3, 3)],
            vec![(1, 1), (2, 2), (3, 3)],
            WindowSpec::Unbounded,
        );
        let report = run_kang(FnPredicate(|r: &u32, s: &u32| r == s), &sched);
        let mut keys = report.result_keys();
        keys.dedup();
        assert_eq!(keys.len(), report.results.len());
        assert_eq!(report.results.len(), 3);
    }

    #[test]
    fn tracks_comparisons_and_peak_occupancy() {
        let sched = equal_schedule(
            vec![(1, 1), (2, 2)],
            vec![(3, 1), (4, 2)],
            WindowSpec::Unbounded,
        );
        let report = run_kang(FnPredicate(|r: &u32, s: &u32| r == s), &sched);
        // S#0 scans 2 R tuples, S#1 scans 2 R tuples.
        assert_eq!(report.comparisons, 4);
        assert_eq!(report.peak_window_tuples, 4);
    }
}
