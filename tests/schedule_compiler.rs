//! The linear-merge schedule compiler (`DriverSchedule::build`) against a
//! reference copy of the sort-based compiler it replaced: every event, its
//! instant and its position must be identical, on the end-to-end benchmark's
//! workload shapes and on small seeded inputs full of boundary ties.

use llhj_core::driver::{DriverEvent, DriverSchedule, StreamEvent};
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_core::tuple::{SeqNo, StreamTuple};
use llhj_core::window::WindowSpec;
use llhj_workload::{BandJoinWorkload, EquiJoinWorkload, WorkloadRng};
use std::collections::VecDeque;
use std::fmt::Debug;

/// The reference compiler: every stream's events in generation order (a
/// time window's expiry right before its own arrival, a count window's
/// expiries right before the arrival that triggers them), R's before S's,
/// then one stable sort by instant.
fn reference<R, S>(
    r: Vec<(Timestamp, R)>,
    s: Vec<(Timestamp, S)>,
    window_r: WindowSpec,
    window_s: WindowSpec,
) -> (Vec<DriverEvent<R, S>>, usize, usize) {
    let (r_count, s_count) = (r.len(), s.len());
    let mut events = Vec::new();
    generate(
        &mut events,
        r,
        window_r,
        StreamEvent::ArrivalR,
        StreamEvent::ExpireR,
    );
    generate(
        &mut events,
        s,
        window_s,
        StreamEvent::ArrivalS,
        StreamEvent::ExpireS,
    );
    events.sort_by_key(|e| e.at);
    (events, r_count, s_count)
}

fn generate<T, R, S>(
    events: &mut Vec<DriverEvent<R, S>>,
    arrivals: Vec<(Timestamp, T)>,
    window: WindowSpec,
    arrive: fn(StreamTuple<T>) -> StreamEvent<R, S>,
    expire: fn(SeqNo) -> StreamEvent<R, S>,
) {
    let mut live = VecDeque::new();
    for (i, (ts, payload)) in arrivals.into_iter().enumerate() {
        let seq = SeqNo(i as u64);
        match window {
            WindowSpec::Time(span) => events.push(DriverEvent {
                at: ts.saturating_add(span),
                event: expire(seq),
            }),
            WindowSpec::Count(k) => {
                live.push_back(seq);
                while live.len() > k {
                    let victim = live.pop_front().expect("non-empty");
                    events.push(DriverEvent {
                        at: ts,
                        event: expire(victim),
                    });
                }
            }
            WindowSpec::Unbounded => {}
        }
        events.push(DriverEvent {
            at: ts,
            event: arrive(StreamTuple::new(seq, ts, payload)),
        });
    }
}

/// Compiles the input both ways and asserts the schedules are identical,
/// naming the first differing event rather than dumping both.
fn assert_same<R, S>(
    label: &str,
    r: Vec<(Timestamp, R)>,
    s: Vec<(Timestamp, S)>,
    window_r: WindowSpec,
    window_s: WindowSpec,
) where
    R: Clone + PartialEq + Debug,
    S: Clone + PartialEq + Debug,
{
    let (expected, r_count, s_count) = reference(r.clone(), s.clone(), window_r, window_s);
    let sched = DriverSchedule::build(r, s, window_r, window_s);
    let got = sched.events();
    if let Some(i) =
        (0..expected.len().min(got.len())).find(|&i| got.get(i).as_ref() != Some(&expected[i]))
    {
        panic!(
            "{label}: event {i} differs: expected {:?}, got {:?}",
            expected[i],
            got.get(i)
        );
    }
    assert_eq!(got.len(), expected.len(), "{label}: event count");
    assert_eq!(sched.r_count(), r_count, "{label}: R arrivals");
    assert_eq!(sched.s_count(), s_count, "{label}: S arrivals");
}

#[test]
fn benchmark_workloads_compile_identically() {
    let ten_s = TimeDelta::from_secs(10);
    for seed in [7, 1009] {
        let equi = EquiJoinWorkload {
            rate_per_sec: 10_000.0,
            duration: ten_s,
            domain: 10_000,
            seed,
        };
        let window = WindowSpec::Time(TimeDelta::from_secs(1));
        assert_same(
            &format!("equi_hop seed {seed}"),
            equi.generate_r(),
            equi.generate_s(),
            window,
            window,
        );
        for (rate, window_s, domain, name) in [
            (8000.0, 4, 4000, "band_scan"),
            (4000.0, 2, 2000, "band_elastic"),
        ] {
            let band = BandJoinWorkload::scaled(rate, ten_s, domain, seed);
            let window = WindowSpec::time_secs(window_s);
            assert_same(
                &format!("{name} seed {seed}"),
                band.generate_r(),
                band.generate_s(),
                window,
                window,
            );
        }
    }
}

/// `n` arrivals with gaps of 0-3 µs, so both streams repeat timestamps and
/// meet each other's (and their expiries') instants.
fn tied_arrivals(rng: &mut WorkloadRng, n: usize) -> Vec<(Timestamp, u32)> {
    let mut at = u64::from(rng.gen_range_u32(0, 3));
    (0..n as u32)
        .map(|i| {
            at += u64::from(rng.gen_range_u32(0, 3));
            (Timestamp::from_micros(at), i)
        })
        .collect()
}

#[test]
fn tied_random_inputs_compile_identically() {
    // Time spans equal to the arrival gaps put expiries on arrival instants.
    let windows = [
        WindowSpec::Count(1),
        WindowSpec::Count(2),
        WindowSpec::Count(64),
        WindowSpec::Time(TimeDelta::from_micros(1)),
        WindowSpec::Time(TimeDelta::from_micros(2)),
        WindowSpec::Time(TimeDelta::from_micros(3)),
        WindowSpec::Unbounded,
    ];
    let mut rng = WorkloadRng::seed_from_u64(24);
    for case in 0..600 {
        // Each stream is empty in one case in five, both in one in 25.
        let len = |rng: &mut WorkloadRng| match rng.gen_range_u32(0, 4) {
            0 => 0,
            _ => rng.gen_range_u32(1, 150) as usize,
        };
        let (r_len, s_len) = (len(&mut rng), len(&mut rng));
        let r = tied_arrivals(&mut rng, r_len);
        let s = tied_arrivals(&mut rng, s_len);
        let window_r = windows[rng.gen_range_u32(0, windows.len() as u32 - 1) as usize];
        let window_s = windows[rng.gen_range_u32(0, windows.len() as u32 - 1) as usize];
        assert_same(
            &format!("case {case}: {r_len} R under {window_r:?}, {s_len} S under {window_s:?}"),
            r,
            s,
            window_r,
            window_s,
        );
    }
}
