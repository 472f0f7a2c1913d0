//! Sliding-window specifications.
//!
//! The join pipeline itself is oblivious to the window definition
//! (Section 4.2.4): an external driver decides when tuples enter and leave
//! the windows and submits arrival / expiry messages.  [`WindowSpec`]
//! captures the two practical window types from Section 2 — time-based and
//! tuple-based.  The schedule compiler in [`crate::driver`] turns a stream
//! of arrivals into its expiry points in one linear pass, tracking the
//! live window as a run of arrival indexes; it rejects empty windows
//! (`Count(0)`, a zero time span), whose tuples would leave before they
//! arrive.

use crate::time::TimeDelta;

/// A sliding-window specification for one input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Time-based window: a tuple stays in the window for the given
    /// (non-zero) span after its arrival timestamp.
    Time(TimeDelta),
    /// Tuple-based window: the window always contains the last `k >= 1`
    /// tuples.
    Count(usize),
    /// Unbounded window: tuples never expire.  Useful for micro-benchmarks
    /// and tests over finite inputs.
    Unbounded,
}

impl WindowSpec {
    /// Convenience constructor for a time-based window given in seconds.
    pub fn time_secs(secs: u64) -> Self {
        WindowSpec::Time(TimeDelta::from_secs(secs))
    }

    /// The window span for time-based windows.
    pub fn time_span(&self) -> Option<TimeDelta> {
        match self {
            WindowSpec::Time(d) => Some(*d),
            _ => None,
        }
    }

    /// Expected number of tuples simultaneously inside the window at a given
    /// steady-state arrival rate (tuples per second).  Used by the cost
    /// model and by the original handshake join to size its segments.
    pub fn expected_tuples(&self, rate_per_sec: f64) -> f64 {
        match self {
            WindowSpec::Time(d) => d.as_secs_f64() * rate_per_sec,
            WindowSpec::Count(k) => *k as f64,
            WindowSpec::Unbounded => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_tuples_matches_rate_times_span() {
        assert_eq!(WindowSpec::time_secs(100).expected_tuples(50.0), 5000.0);
        assert_eq!(WindowSpec::Count(123).expected_tuples(50.0), 123.0);
        assert!(WindowSpec::Unbounded.expected_tuples(1.0).is_infinite());
        assert_eq!(
            WindowSpec::time_secs(7).time_span(),
            Some(TimeDelta::from_secs(7))
        );
        assert_eq!(WindowSpec::Count(1).time_span(), None);
    }
}
