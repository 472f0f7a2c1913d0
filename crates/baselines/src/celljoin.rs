//! CellJoin (Section 2.2.1 of the paper).
//!
//! Gedik, Yu and Bordawekar parallelise Kang's three-step procedure by
//! re-partitioning the opposite window on every arrival and scanning the
//! partitions on all available cores.  The result set is identical to
//! Kang's procedure; what changes is the *cost structure*: the scan work
//! per arrival is divided by the core count, but every arrival pays a
//! repartitioning / dispatch overhead that grows with the core count —
//! which is exactly why the paper dismisses CellJoin as a scalable option
//! on large multicores.
//!
//! This implementation executes sequentially (it is a baseline, not the
//! contribution) but keeps the windows partitioned by core and accounts
//! both the per-core scan work and the per-arrival dispatch overhead, so
//! the simulator and the benchmark harness can report CellJoin's critical
//! path: `dispatch · cores + max_partition_scan`.

use llhj_core::driver::{DriverSchedule, StreamEvent};
use llhj_core::predicate::JoinPredicate;
use llhj_core::result::{ResultTuple, TimedResult};
use llhj_core::store::LocalWindow;
use llhj_core::time::Timestamp;
use llhj_core::tuple::{SeqNo, StreamTuple};

/// Per-run cost accounting of the CellJoin baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellJoinCosts {
    /// Total predicate evaluations over all cores.
    pub comparisons: u64,
    /// Sum over all arrivals of the *largest* per-core scan (the parallel
    /// critical path, excluding dispatch).
    pub critical_path_comparisons: u64,
    /// Number of partition dispatches (arrivals × cores).
    pub dispatches: u64,
}

/// Outcome of running CellJoin over a complete driver schedule.
#[derive(Debug)]
pub struct CellJoinReport<R, S> {
    /// Every result pair, in detection order.
    pub results: Vec<TimedResult<R, S>>,
    /// Cost accounting.
    pub costs: CellJoinCosts,
}

impl<R, S> CellJoinReport<R, S> {
    /// Sorted `(r_seq, s_seq)` result keys for set comparison.
    pub fn result_keys(&self) -> Vec<(SeqNo, SeqNo)> {
        let mut keys: Vec<_> = self.results.iter().map(|t| t.result.key()).collect();
        keys.sort_unstable();
        keys
    }
}

/// The CellJoin operator: windows partitioned over `cores` processing units.
pub struct CellJoin<R, S, P> {
    predicate: P,
    cores: usize,
    partitions_r: Vec<LocalWindow<R>>,
    partitions_s: Vec<LocalWindow<S>>,
    costs: CellJoinCosts,
}

impl<R, S, P> CellJoin<R, S, P>
where
    R: Clone,
    S: Clone,
    P: JoinPredicate<R, S>,
{
    /// Creates a CellJoin instance over the given number of cores.
    pub fn new(cores: usize, predicate: P) -> Self {
        assert!(cores > 0, "CellJoin needs at least one core");
        CellJoin {
            predicate,
            cores,
            partitions_r: (0..cores).map(|_| LocalWindow::new()).collect(),
            partitions_s: (0..cores).map(|_| LocalWindow::new()).collect(),
            costs: CellJoinCosts::default(),
        }
    }

    /// Number of cores the scan is partitioned over.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Current total window occupancy `(|W_R|, |W_S|)`.
    pub fn window_sizes(&self) -> (usize, usize) {
        (
            self.partitions_r.iter().map(LocalWindow::len).sum(),
            self.partitions_s.iter().map(LocalWindow::len).sum(),
        )
    }

    fn partition_of(seq: SeqNo, cores: usize) -> usize {
        (seq.0 % cores as u64) as usize
    }

    /// Processes one driver event.
    pub fn process<F>(&mut self, event: StreamEvent<R, S>, at: Timestamp, mut emit: F)
    where
        F: FnMut(TimedResult<R, S>),
    {
        match event {
            StreamEvent::ArrivalR(r) => {
                let pred = &self.predicate;
                let mut max_partition = 0u64;
                for partition in &self.partitions_s {
                    let cmp = partition.scan_matches(
                        false,
                        |s| pred.matches(&r.payload, s),
                        |s| {
                            emit(TimedResult::new(ResultTuple::new(r.clone(), s, 0), at));
                        },
                    );
                    self.costs.comparisons += cmp;
                    max_partition = max_partition.max(cmp);
                }
                self.costs.critical_path_comparisons += max_partition;
                self.costs.dispatches += self.cores as u64;
                let p = Self::partition_of(r.seq, self.cores);
                self.partitions_r[p].insert(r, false);
            }
            StreamEvent::ArrivalS(s) => {
                let pred = &self.predicate;
                let mut max_partition = 0u64;
                for partition in &self.partitions_r {
                    let cmp = partition.scan_matches(
                        false,
                        |r| pred.matches(r, &s.payload),
                        |r| {
                            emit(TimedResult::new(ResultTuple::new(r, s.clone(), 0), at));
                        },
                    );
                    self.costs.comparisons += cmp;
                    max_partition = max_partition.max(cmp);
                }
                self.costs.critical_path_comparisons += max_partition;
                self.costs.dispatches += self.cores as u64;
                let p = Self::partition_of(s.seq, self.cores);
                self.partitions_s[p].insert(s, false);
            }
            StreamEvent::ExpireR(seq) => {
                let p = Self::partition_of(seq, self.cores);
                self.partitions_r[p].remove(seq);
            }
            StreamEvent::ExpireS(seq) => {
                let p = Self::partition_of(seq, self.cores);
                self.partitions_s[p].remove(seq);
            }
        }
    }

    /// Runs the complete schedule.
    pub fn run(mut self, schedule: &DriverSchedule<R, S>) -> CellJoinReport<R, S> {
        let mut results = Vec::new();
        for event in schedule.events() {
            self.process(event.event, event.at, |t| results.push(t));
        }
        CellJoinReport {
            results,
            costs: self.costs,
        }
    }
}

/// Convenience wrapper mirroring [`crate::kang::run_kang`].
pub fn run_celljoin<R, S, P>(
    cores: usize,
    predicate: P,
    schedule: &DriverSchedule<R, S>,
) -> CellJoinReport<R, S>
where
    R: Clone,
    S: Clone,
    P: JoinPredicate<R, S>,
{
    CellJoin::new(cores, predicate).run(schedule)
}

/// Placeholder for payload type inference in tests.
pub type IntTuple = StreamTuple<u32>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kang::run_kang;
    use llhj_core::predicate::FnPredicate;
    use llhj_core::window::WindowSpec;

    fn sched(
        r: Vec<(u64, u32)>,
        s: Vec<(u64, u32)>,
        window: WindowSpec,
    ) -> DriverSchedule<u32, u32> {
        DriverSchedule::build(
            r.into_iter()
                .map(|(t, v)| (Timestamp::from_secs(t), v))
                .collect(),
            s.into_iter()
                .map(|(t, v)| (Timestamp::from_secs(t), v))
                .collect(),
            window,
            window,
        )
    }

    fn eq_pred() -> FnPredicate<fn(&u32, &u32) -> bool> {
        fn eq(r: &u32, s: &u32) -> bool {
            r == s
        }
        FnPredicate(eq as fn(&u32, &u32) -> bool)
    }

    #[test]
    fn produces_the_same_result_set_as_kang() {
        let schedule = sched(
            vec![(1, 3), (2, 5), (3, 3), (4, 9), (6, 5)],
            vec![(1, 5), (3, 3), (5, 9), (7, 1)],
            WindowSpec::time_secs(3),
        );
        let kang = run_kang(eq_pred(), &schedule);
        for cores in [1, 2, 3, 7] {
            let cell = run_celljoin(cores, eq_pred(), &schedule);
            assert_eq!(cell.result_keys(), kang.result_keys(), "{cores} cores");
        }
    }

    #[test]
    fn critical_path_shrinks_with_more_cores() {
        // A long stream of matching tuples builds up a large window; with
        // more cores each partition scan is shorter.
        let r: Vec<(u64, u32)> = (0..200).map(|i| (i, 1u32)).collect();
        let s: Vec<(u64, u32)> = (0..200).map(|i| (i, 2u32)).collect();
        let schedule = sched(r, s, WindowSpec::Unbounded);
        let one = run_celljoin(1, eq_pred(), &schedule);
        let eight = run_celljoin(8, eq_pred(), &schedule);
        assert_eq!(one.costs.comparisons, eight.costs.comparisons);
        assert!(
            eight.costs.critical_path_comparisons < one.costs.critical_path_comparisons / 4,
            "parallel critical path must shrink: {} vs {}",
            eight.costs.critical_path_comparisons,
            one.costs.critical_path_comparisons
        );
        assert!(eight.costs.dispatches > one.costs.dispatches);
    }

    #[test]
    fn expiry_removes_from_the_right_partition() {
        let schedule = sched(
            vec![(1, 7), (2, 7), (3, 7)],
            vec![(10, 7)],
            WindowSpec::time_secs(5),
        );
        // R#0 and R#1 expire before S arrives at t=10 (window 5s): only R#2
        // (t=3, expires t=8... also expired).  Actually all R expire, so no
        // results.
        let cell = run_celljoin(2, eq_pred(), &schedule);
        assert!(cell.results.is_empty());
        let schedule = sched(
            vec![(6, 7), (7, 7)],
            vec![(10, 7)],
            WindowSpec::time_secs(5),
        );
        let cell = run_celljoin(2, eq_pred(), &schedule);
        assert_eq!(cell.results.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_is_rejected() {
        let _ = CellJoin::<u32, u32, _>::new(0, eq_pred());
    }
}
