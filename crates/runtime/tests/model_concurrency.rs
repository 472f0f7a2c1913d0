//! Model-checked concurrency invariants of the runtime's protocol layer.
//!
//! Compiled only under the model backend:
//!
//! ```sh
//! RUSTFLAGS="--cfg llhj_model" cargo test -p llhj-runtime --test model_concurrency
//! ```
//!
//! Each test wraps a protocol scenario in [`llhj_sync::model::explore`],
//! which reruns it under every schedule within the exploration budget
//! (DFS over yield points, preemption-bounded, state-hash pruned).  The
//! scenarios use the *real* runtime types — `WaitSet`, frame channels,
//! `CancelToken`, `MetricsBus`, `HighWaterMarks` — at model scale (a
//! couple of tuples, two or three tasks), because the checker's
//! guarantee is per-schedule exhaustiveness, not per-volume stress.
//! Every loop parks on a `WaitSet` exactly like the real workers do;
//! busy-waiting would (correctly) be reported as a livelock.
//!
//! Six invariant families, per the concurrency and durability chapters
//! in ARCHITECTURE.md:
//!
//! 1. no lost wakeups in the epoch-snapshot `WaitSet` protocol;
//! 2. punctuation high-water marks never pass enqueued results — with
//!    the two historical orderings (the PR 4 vacuum-before-marks
//!    collector, and the forward-before-results node fixed in this PR)
//!    encoded buggy-side, so the checker provably catches both;
//! 3. exactly-once tuple residence across a fence+handoff retire with a
//!    concurrent cancel;
//! 4. torn-read freedom of the single-writer `MetricsBus` publication;
//! 5. the checkpoint capture fence: a blob taken after quiescence covers
//!    every consumed frame, and skipping the fence provably loses one;
//! 6. the lock-free SPSC ring transport: in-order, loss-free delivery
//!    with no lost wakeups across the empty-park and full-park legs —
//!    with a re-broken twin (sequence word published before the payload)
//!    that the checker provably catches.
#![cfg(llhj_model)]

use llhj_core::punctuation::{verify_punctuated_stream, HighWaterMarks, OutputItem, Punctuation};
use llhj_core::time::Timestamp;
use llhj_runtime::channel::{unbounded, CancelToken, Receiver, TryRecvError, WaitSet};
use llhj_runtime::metrics::MetricsBus;
use llhj_sync::model::{explore, explore_expect_violation, ModelOptions, Report};
use llhj_sync::sync::{Arc, Mutex};
use llhj_sync::thread;
use llhj_sync::time::Duration;

/// Every scenario here must exhaust its schedule tree — a budget-capped
/// search would weaken "the race is unreachable" to "we did not look
/// hard enough".
fn assert_exhaustive(report: &Report) {
    assert!(
        report.complete,
        "exploration hit the execution budget ({} runs) before exhausting \
         the tree; raise the budget or shrink the scenario",
        report.executions
    );
}

fn opts() -> ModelOptions {
    ModelOptions {
        max_preemptions: 2,
        max_executions: 200_000,
        max_steps: 20_000,
        state_pruning: true,
    }
}

/// The runtime's worker discipline for draining a channel: snapshot the
/// epoch, poll, park on the snapshot only if the poll came up empty.
fn recv_parked<T>(rx: &Receiver<T>, ws: &WaitSet) -> Option<T> {
    loop {
        let seen = ws.epoch();
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) => {
                ws.wait(seen, Duration::from_millis(10));
            }
            Err(TryRecvError::Disconnected) => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// 1. WaitSet: epoch-snapshot-before-poll has no lost wakeups
// ---------------------------------------------------------------------------

/// Under every interleaving the consumer drains both frames without ever
/// needing the safety-net timeout.
#[test]
fn waitset_snapshot_before_poll_never_loses_wakeups() {
    let report = explore(opts(), || {
        let ws = WaitSet::new();
        let (tx, rx) = unbounded::<u32>();
        rx.set_waiter(&ws);
        let producer = thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let mut got = 0;
        while got < 2 {
            // Snapshot BEFORE polling: a send landing between the poll
            // and the park bumps the epoch past `seen`, so the wait
            // returns immediately.
            let seen = ws.epoch();
            match rx.try_recv() {
                Ok(_) => got += 1,
                Err(TryRecvError::Empty) => {
                    ws.wait(seen, Duration::from_millis(10));
                }
                Err(TryRecvError::Disconnected) => {
                    panic!("producer disconnected with frames missing")
                }
            }
        }
        producer.join().unwrap();
        assert_eq!(
            llhj_sync::model::forced_timeouts(),
            0,
            "a parked worker needed the safety-net timeout: lost wakeup"
        );
    });
    assert_exhaustive(&report);
}

/// The buggy inversion — poll first, snapshot afterwards.  A send landing
/// between the poll and the snapshot is invisible: the consumer parks on
/// an epoch that already includes the notification and nothing but the
/// safety-net timer ever wakes it.  The checker must find the schedule.
#[test]
fn waitset_snapshot_after_poll_loses_a_wakeup() {
    let report = explore_expect_violation(opts(), || {
        let ws = WaitSet::new();
        let (tx, rx) = unbounded::<u32>();
        rx.set_waiter(&ws);
        let producer = thread::spawn(move || {
            tx.send(1).unwrap();
        });
        let mut got = 0;
        while got < 1 {
            match rx.try_recv() {
                Ok(_) => got += 1,
                Err(TryRecvError::Empty) => {
                    // BUG: epoch read after the poll — the producer's
                    // send can land in between, and its notification is
                    // already folded into `seen`.
                    let seen = ws.epoch();
                    ws.wait(seen, Duration::from_millis(10));
                }
                Err(TryRecvError::Disconnected) => unreachable!(),
            }
        }
        producer.join().unwrap();
        assert_eq!(llhj_sync::model::forced_timeouts(), 0, "lost wakeup");
    });
    // The violation must be the lost wakeup itself, not some incidental
    // deadlock or livelock of the encoding.
    let message = &report.violation.as_ref().unwrap().message;
    assert!(
        message.contains("lost wakeup"),
        "wrong violation: {message}"
    );
}

// ---------------------------------------------------------------------------
// 2. Punctuation: high-water marks never pass enqueued results
// ---------------------------------------------------------------------------

/// Model-scale replica of the worker/collector punctuation protocol on a
/// two-node chain (`exec.rs::handle_frame` + the collector loop).  One
/// frame carries two tuples (5 s and 6 s) — the high-water mark a
/// completed frame advances is the frame's *latest* tuple, while the
/// frame's results include the *earlier* one, which is exactly the gap a
/// reordering bug falls into.
///
/// * node 0 (middle) enqueues the frame's results FIRST, then forwards
///   the frame rightward (`enqueue_before_forward`);
/// * node 1 (rightmost) marks the tuples' traversal as complete;
/// * the collector reads the marks BEFORE vacuuming the result queue
///   (`marks_before_vacuum`) and emits the punctuation after the drained
///   results.
///
/// Flipping either boolean re-creates a shipped bug: `marks_before_vacuum
/// = false` is the pre-PR-4 collector ordering, `enqueue_before_forward
/// = false` the forward-before-results node race fixed in this PR.  The
/// output stream is checked with the same `verify_punctuated_stream`
/// oracle the integration tests use.
fn punctuation_scenario(enqueue_before_forward: bool, marks_before_vacuum: bool) {
    const TS_EARLY: u64 = 5_000_000; // 5 s, in micros
    const TS_LATE: u64 = 6_000_000; // 6 s

    let hwm = HighWaterMarks::new();
    // The S side sits far ahead so min(r, s) tracks the R mark.
    hwm.observe_s(Timestamp::from_secs(1_000));
    let ws = WaitSet::new();
    let (res_tx, res_rx) = unbounded::<u64>(); // result timestamps (micros)
    let (fwd_tx, fwd_rx) = unbounded::<(u64, u64)>(); // the frame, travelling right
    res_rx.set_waiter(&ws);

    // Node 0: results for both tuples, then the forwarded frame.
    let node0 = thread::spawn(move || {
        if enqueue_before_forward {
            res_tx.send(TS_EARLY).unwrap();
            res_tx.send(TS_LATE).unwrap();
            fwd_tx.send((TS_EARLY, TS_LATE)).unwrap();
        } else {
            // BUG: the frame races ahead of its own results.
            fwd_tx.send((TS_EARLY, TS_LATE)).unwrap();
            res_tx.send(TS_EARLY).unwrap();
            res_tx.send(TS_LATE).unwrap();
        }
    });

    // Node 1 (rightmost): the frame completed its traversal — advance
    // the R mark to the frame's latest tuple.
    let node1 = {
        let hwm = Arc::clone(&hwm);
        let ws = ws.clone();
        let fwd_ws = WaitSet::new();
        fwd_rx.set_waiter(&fwd_ws);
        thread::spawn(move || {
            let (_early, late) =
                recv_parked(&fwd_rx, &fwd_ws).expect("frame lost before the chain end");
            hwm.observe_r(Timestamp::from_micros(late));
            ws.notify();
        })
    };

    // Collector (this task): read marks, then vacuum, then punctuate
    // (Section 6.1.3) — or the other way round, when modelling the bug.
    let mut out: Vec<OutputItem<u64>> = Vec::new();
    let mut results = 0;
    while results < 2 {
        let seen = ws.epoch();
        let mut drained = Vec::new();
        let p;
        if marks_before_vacuum {
            p = hwm.safe_punctuation();
            while let Ok(ts) = res_rx.try_recv() {
                drained.push(ts);
            }
        } else {
            // BUG (pre-PR-4): vacuum first.  A mark advancing between
            // the vacuum and the read covers results still enqueued.
            while let Ok(ts) = res_rx.try_recv() {
                drained.push(ts);
            }
            p = hwm.safe_punctuation();
        }
        let progressed = !drained.is_empty();
        results += drained.len();
        out.extend(drained.into_iter().map(OutputItem::Result));
        out.push(OutputItem::Punctuation(Punctuation { ts: p }));
        if !progressed {
            ws.wait(seen, Duration::from_millis(10));
        }
    }
    node0.join().unwrap();
    node1.join().unwrap();

    assert_eq!(
        verify_punctuated_stream(&out, |&us| Timestamp::from_micros(us)),
        Ok(()),
        "a punctuation overtook a result: {out:?}"
    );
}

/// Current code: both orderings correct — no schedule violates the
/// punctuation guarantee.
#[test]
fn punctuation_never_passes_results() {
    let report = explore(opts(), || punctuation_scenario(true, true));
    assert_exhaustive(&report);
}

/// Reverting the PR 4 fix (vacuum before reading the marks) must fail
/// the checker deterministically.
#[test]
fn punctuation_pre_pr4_ordering_is_caught() {
    let report = explore_expect_violation(opts(), || punctuation_scenario(true, false));
    let message = &report.violation.as_ref().unwrap().message;
    assert!(
        message.contains("punctuation overtook a result"),
        "wrong violation: {message}"
    );
}

/// Reverting this PR's fix (forward the frame before enqueueing its
/// results) must fail the checker deterministically.
#[test]
fn punctuation_forward_before_results_is_caught() {
    let report = explore_expect_violation(opts(), || punctuation_scenario(false, true));
    let message = &report.violation.as_ref().unwrap().message;
    assert!(
        message.contains("punctuation overtook a result"),
        "wrong violation: {message}"
    );
}

// ---------------------------------------------------------------------------
// 3. Fence + handoff retire vs. concurrent cancel: exactly-once residence
// ---------------------------------------------------------------------------

/// Model-scale replica of the retire leg of the resize protocol: the
/// retiree sheds its segment to the absorber over a handoff channel and
/// may exit only after the absorber's ack; a cancel fires concurrently
/// at every possible point.  Checked invariants, under every schedule:
///
/// * every tuple resides in exactly one store afterwards (nothing lost,
///   nothing duplicated);
/// * the retiree observes the ack before exiting, cancelled or not;
/// * nobody needs the safety-net timeout to make progress.
#[test]
fn handoff_retire_is_exactly_once_under_cancel() {
    let report = explore(opts(), || {
        let cancel = CancelToken::new();
        let (seg_tx, seg_rx) = unbounded::<Vec<u64>>();
        let (ack_tx, ack_rx) = unbounded::<()>();
        let seg_ws = WaitSet::new();
        let ack_ws = WaitSet::new();
        seg_rx.set_waiter(&seg_ws);
        ack_rx.set_waiter(&ack_ws);
        let absorber_store = Arc::new(Mutex::new(vec![40u64, 50]));

        // Absorber: drains the handoff channel even when cancelled (the
        // real worker keeps consuming its mailbox until Retire).
        let absorber = {
            let store = Arc::clone(&absorber_store);
            thread::spawn(move || {
                let segment = recv_parked(&seg_rx, &seg_ws).expect("segment lost in handoff");
                store.lock().unwrap().extend(segment);
                ack_tx.send(()).unwrap();
            })
        };

        // A cancel can land at any point relative to the handoff.
        let canceller = {
            let cancel = cancel.clone();
            thread::spawn(move || cancel.cancel())
        };

        // Retiree (this task): shed the segment, then hold position until
        // the ack — cancellation must not short-circuit the wait, or the
        // segment could still be in flight when the chain is torn down.
        seg_tx.send(vec![10u64, 20, 30]).unwrap();
        let acked = recv_parked(&ack_rx, &ack_ws).is_some();
        assert!(acked, "retiree exited before its ack");

        canceller.join().unwrap();
        absorber.join().unwrap();
        let mut store = absorber_store.lock().unwrap().clone();
        store.sort_unstable();
        assert_eq!(
            store,
            vec![10, 20, 30, 40, 50],
            "tuple residence not exactly-once after handoff under cancel"
        );
        assert_eq!(
            llhj_sync::model::forced_timeouts(),
            0,
            "handoff needed the safety-net timeout"
        );
    });
    assert_exhaustive(&report);
}

/// The buggy retiree that treats cancel as permission to exit early:
/// some schedule tears it down with the segment unacknowledged, which
/// the exit assertion must catch.
#[test]
fn handoff_retire_exiting_on_cancel_is_caught() {
    let report = explore_expect_violation(opts(), || {
        let cancel = CancelToken::new();
        let (seg_tx, seg_rx) = unbounded::<Vec<u64>>();
        let (ack_tx, ack_rx) = unbounded::<()>();
        let seg_ws = WaitSet::new();
        let ack_ws = WaitSet::new();
        seg_rx.set_waiter(&seg_ws);
        ack_rx.set_waiter(&ack_ws);

        let absorber = thread::spawn(move || {
            let seg = recv_parked(&seg_rx, &seg_ws).expect("segment lost");
            assert_eq!(seg, vec![10u64, 20, 30]);
            let _ = ack_tx.send(());
        });
        let canceller = {
            let cancel = cancel.clone();
            thread::spawn(move || cancel.cancel())
        };

        seg_tx.send(vec![10u64, 20, 30]).unwrap();
        let mut acked = false;
        // BUG: bails out on cancel instead of holding for the ack.
        while !cancel.is_cancelled() {
            let seen = ack_ws.epoch();
            match ack_rx.try_recv() {
                Ok(()) => {
                    acked = true;
                    break;
                }
                Err(TryRecvError::Empty) => {
                    ack_ws.wait(seen, Duration::from_millis(10));
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        assert!(
            acked,
            "retiree exited on cancel with its segment unacknowledged"
        );
        canceller.join().unwrap();
        absorber.join().unwrap();
    });
    let message = &report.violation.as_ref().unwrap().message;
    assert!(
        message.contains("unacknowledged"),
        "wrong violation: {message}"
    );
}

// ---------------------------------------------------------------------------
// 4. MetricsBus: single-writer publication, no torn read
// ---------------------------------------------------------------------------

/// The collector is the bus's one latency writer: it folds the EWMA
/// locally and publishes it once per vacuum pass.  A sampler reading
/// concurrently must see nothing yet or a value the collector published
/// — never a torn `f64` — and the final read must see the last publish.
#[test]
fn metrics_latency_publication_is_never_torn() {
    let report = explore(opts(), || {
        let bus = Arc::new(MetricsBus::new());
        let collector = {
            let bus = Arc::clone(&bus);
            thread::spawn(move || {
                bus.publish_latency(1, 10_000.0);
                bus.publish_latency(2, 30_000.0);
            })
        };
        let results = bus.results();
        let ewma = bus.latency_ewma().as_micros();
        assert!(results <= 2, "result counter beyond the last publish");
        assert!(
            [0, 10_000, 30_000].contains(&ewma),
            "EWMA {ewma} was never published: torn read"
        );
        collector.join().unwrap();
        assert_eq!(bus.results(), 2, "result counter lost the last publish");
        assert_eq!(bus.latency_ewma().as_micros(), 30_000);
    });
    assert_exhaustive(&report);
}

// ---------------------------------------------------------------------------
// 5. Checkpoint capture fence: the blob covers every consumed frame
// ---------------------------------------------------------------------------

/// Model-scale replica of `capture_checkpoint`'s fence leg.  The driver
/// has already *consumed* a frame (handed it to the worker's entry
/// channel and counted it in `events_consumed`); the checkpoint it then
/// takes must include that frame's tuples, because recovery replays only
/// the events *after* the recorded consumed count — a blob missing a
/// consumed frame loses its tuples forever.
///
/// The protocol under test: quiesce (parked wait until the in-flight
/// count drops to zero) → export (the worker sheds its whole window) →
/// clone the blob → silent reinstall.  Checked under every schedule:
///
/// * the blob holds the pre-frame rows *and* the consumed frame;
/// * the reinstall is transparent — the worker's post-checkpoint window
///   equals the blob exactly (recovery sees the same state a live run
///   kept);
/// * nobody needs the safety-net timeout.
///
/// `fence_before_export = false` re-breaks it: the export command and
/// the frame travel on different channels, so some schedule captures
/// the window before the frame lands — exactly the torn cut the fence
/// exists to rule out.
fn checkpoint_fence_scenario(fence_before_export: bool) {
    use llhj_sync::sync::atomic::{AtomicUsize, Ordering};

    let store = Arc::new(Mutex::new(vec![10u64, 20]));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let quiesce_ws = WaitSet::new();

    let worker_ws = WaitSet::new();
    let (frame_tx, frame_rx) = unbounded::<Vec<u64>>();
    let (export_tx, export_rx) = unbounded::<()>();
    let (seg_tx, seg_rx) = unbounded::<Vec<u64>>();
    let (install_tx, install_rx) = unbounded::<Vec<u64>>();
    frame_rx.set_waiter(&worker_ws);
    export_rx.set_waiter(&worker_ws);
    install_rx.set_waiter(&worker_ws);
    let driver_ws = WaitSet::new();
    seg_rx.set_waiter(&driver_ws);

    // Worker: applies entry frames; on Export it sheds its whole window
    // and silently reinstalls whatever comes back (the real worker's
    // `ExportAll` + `Install` command pair).
    let worker = {
        let store = Arc::clone(&store);
        let in_flight = Arc::clone(&in_flight);
        let quiesce_ws = quiesce_ws.clone();
        let worker_ws = worker_ws.clone();
        thread::spawn(move || loop {
            let seen = worker_ws.epoch();
            if let Ok(frame) = frame_rx.try_recv() {
                store.lock().unwrap().extend(frame);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                quiesce_ws.notify();
                continue;
            }
            match export_rx.try_recv() {
                Ok(()) => {
                    let segment = std::mem::take(&mut *store.lock().unwrap());
                    seg_tx.send(segment).unwrap();
                    let back =
                        recv_parked(&install_rx, &worker_ws).expect("reinstall lost after export");
                    *store.lock().unwrap() = back;
                    return;
                }
                Err(TryRecvError::Empty) => {
                    worker_ws.wait(seen, Duration::from_millis(10));
                }
                Err(TryRecvError::Disconnected) => return,
            }
        })
    };

    // Driver (this task): consume one frame, then checkpoint.
    in_flight.fetch_add(1, Ordering::SeqCst);
    frame_tx.send(vec![30u64]).unwrap();

    if fence_before_export {
        // The fence: park until the consumed frame has been applied.
        loop {
            let seen = quiesce_ws.epoch();
            if in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
            quiesce_ws.wait(seen, Duration::from_millis(10));
        }
    }
    export_tx.send(()).unwrap();
    let blob = recv_parked(&seg_rx, &driver_ws).expect("export lost");
    install_tx.send(blob.clone()).unwrap();
    worker.join().unwrap();

    let mut captured = blob.clone();
    captured.sort_unstable();
    assert_eq!(
        captured,
        vec![10, 20, 30],
        "checkpoint missed a consumed frame: torn cut"
    );
    let mut resident = store.lock().unwrap().clone();
    resident.sort_unstable();
    assert_eq!(
        resident, captured,
        "silent reinstall diverged from the captured blob"
    );
    assert_eq!(
        llhj_sync::model::forced_timeouts(),
        0,
        "the fence needed the safety-net timeout"
    );
}

/// Current code: fence before export — every schedule captures a
/// consistent cut and reinstalls it transparently.
#[test]
fn checkpoint_fence_captures_a_consistent_cut() {
    let report = explore(opts(), || checkpoint_fence_scenario(true));
    assert_exhaustive(&report);
}

/// Dropping the fence (export racing the consumed frame) must fail the
/// checker deterministically: some schedule exports before the frame
/// lands and the blob misses its tuples.
#[test]
fn checkpoint_without_the_fence_tears_the_cut() {
    let report = explore_expect_violation(opts(), || checkpoint_fence_scenario(false));
    let message = &report.violation.as_ref().unwrap().message;
    assert!(message.contains("torn cut"), "wrong violation: {message}");
}

// ---------------------------------------------------------------------------
// 6. Ring transport: in-order delivery, park handoff, re-broken twin
// ---------------------------------------------------------------------------

/// The unbounded ring flavour at spillway-forcing capacity: a ring of 2
/// slots carrying 4 frames must overflow into the spillway, and the
/// consumer must still see strict FIFO order across the ring/spillway
/// boundary, under every schedule, with no lost wakeups.  This is the
/// configuration of every inner chain edge (worker → worker).
#[test]
fn ring_spsc_delivers_in_order_without_lost_wakeups() {
    let report = explore(opts(), || {
        let ws = WaitSet::new();
        let (tx, rx) = llhj_runtime::channel::spsc_unbounded::<u32>(2, Some(&ws));
        let producer = thread::spawn(move || {
            for i in 0..4u32 {
                tx.send(i).unwrap();
            }
        });
        for expect in 0..4u32 {
            let got = recv_parked(&rx, &ws).expect("frame lost in the ring");
            assert_eq!(got, expect, "ring reordered frames");
        }
        producer.join().unwrap();
        assert_eq!(
            llhj_sync::model::forced_timeouts(),
            0,
            "a parked task needed the safety-net timeout: lost wakeup"
        );
    });
    assert_exhaustive(&report);
}

/// The bounded ring flavour (the driver entry edges): a producer filling
/// a 2-slot ring with 3 frames must park on the ring's `space` event-
/// count and be woken by the consumer's pop — under every schedule the
/// handoff completes without the safety-net timeout, i.e. the
/// snapshot-before-repoll discipline of the full-park leg loses no
/// wakeups either.
#[test]
fn ring_bounded_full_park_handoff_never_strands_the_producer() {
    let report = explore(opts(), || {
        let ws = WaitSet::new();
        let (tx, rx) = llhj_runtime::channel::spsc_bounded::<u32>(2, Some(&ws));
        let producer = thread::spawn(move || {
            for i in 0..3u32 {
                // The third send finds the ring full and parks until the
                // consumer's pop bumps the space eventcount.
                tx.send(i).unwrap();
            }
        });
        for expect in 0..3u32 {
            let got = recv_parked(&rx, &ws).expect("frame lost in the ring");
            assert_eq!(got, expect, "bounded ring reordered frames");
        }
        producer.join().unwrap();
        assert_eq!(
            llhj_sync::model::forced_timeouts(),
            0,
            "the full-park handoff needed the safety-net timeout: lost wakeup"
        );
    });
    assert_exhaustive(&report);
}

/// The re-broken twin: a ring whose producer publishes the slot's
/// sequence word *before* writing the payload.  The checker must find
/// the schedule where the consumer runs between those two steps and
/// observes a published-but-empty slot — the torn publication the real
/// ring's Release-store-after-write discipline rules out.
#[test]
fn broken_ring_torn_publication_is_caught() {
    use llhj_runtime::ring::broken::BrokenRing;
    let report = explore_expect_violation(opts(), || {
        let ws = WaitSet::new();
        let ring = BrokenRing::<u32>::new(2, &ws);
        let producer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                ring.push(7).expect("ring full in a 1-frame scenario");
            })
        };
        loop {
            let seen = ws.epoch();
            match ring.pop() {
                Ok(Some(v)) => {
                    assert_eq!(v, 7);
                    break;
                }
                Ok(None) => {
                    ws.wait(seen, Duration::from_millis(10));
                }
                Err(()) => panic!("torn publication: slot published before its payload"),
            }
        }
        producer.join().unwrap();
    });
    let message = &report.violation.as_ref().unwrap().message;
    assert!(
        message.contains("torn publication"),
        "wrong violation: {message}"
    );
}

/// The published chain width: a sampler racing the control plane's
/// store sees either the old or the new width, never garbage, and the
/// final value is the last store.
#[test]
fn metrics_width_is_never_torn() {
    let report = explore(opts(), || {
        let bus = Arc::new(MetricsBus::new());
        bus.set_nodes(2);
        let control = {
            let bus = Arc::clone(&bus);
            thread::spawn(move || bus.set_nodes(3))
        };
        let sampler = {
            let bus = Arc::clone(&bus);
            thread::spawn(move || {
                let w = bus.nodes();
                assert!(w == 2 || w == 3, "torn width read: {w}");
            })
        };
        control.join().unwrap();
        sampler.join().unwrap();
        assert_eq!(bus.nodes(), 3);
    });
    assert_exhaustive(&report);
}
