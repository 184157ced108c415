//! Negative tests for the linearizability checker: hand-crafted
//! histories that are *not* linearizable as a FIFO queue, each rejected
//! with exactly the expected `Violation` — and each minimized by the
//! shrinker to a 1-minimal witness of the same kind.

use linearize::{check_queue_linearizable, shrink_history, Event, Op, Violation};
use std::mem::discriminant;

fn ev(thread: usize, op: Op, invoke: u64, ret: u64) -> Event {
    Event {
        thread,
        op,
        invoke,
        ret,
    }
}

/// Checks `history` is rejected with exactly `expect`, then that the
/// shrinker preserves the kind and produces a 1-minimal witness:
/// removing any single event either legalizes the history or changes the
/// violation kind.
fn assert_rejected_and_minimized(history: &[Event], expect: &Violation) {
    assert_eq!(check_queue_linearizable(history).as_ref(), Err(expect));

    let (min, min_v) = shrink_history(history).expect("failing history must shrink");
    assert_eq!(
        discriminant(&min_v),
        discriminant(expect),
        "shrinking changed the violation kind to {min_v}"
    );
    assert!(min.len() <= history.len());
    assert_eq!(
        discriminant(&check_queue_linearizable(&min).expect_err("shrunk history must still fail")),
        discriminant(expect)
    );
    for i in 0..min.len() {
        let mut smaller = min.to_vec();
        smaller.remove(i);
        match check_queue_linearizable(&smaller) {
            Ok(()) => {}
            Err(v) => assert_ne!(
                discriminant(&v),
                discriminant(expect),
                "witness not 1-minimal: event {i} is removable"
            ),
        }
    }
}

#[test]
fn value_duplication_is_repeat() {
    // Two dequeuers both return 1: the shape of the MS-queue mutant.
    let h = [
        ev(0, Op::Enq(1), 0, 1),
        ev(1, Op::DeqSome(1), 2, 3),
        ev(2, Op::DeqSome(1), 4, 5),
    ];
    assert_rejected_and_minimized(&h, &Violation::Repeat { value: 1 });
}

#[test]
fn invented_value_is_fresh() {
    // A dequeue returns a value nobody enqueued (a lost/corrupted cell).
    let h = [ev(0, Op::Enq(1), 0, 1), ev(1, Op::DeqSome(2), 2, 3)];
    assert_rejected_and_minimized(&h, &Violation::Fresh { value: 2 });
}

#[test]
fn dequeue_before_its_enqueue_is_fresh() {
    // The value comes out before anyone started putting it in.
    let h = [ev(1, Op::DeqSome(1), 0, 1), ev(0, Op::Enq(1), 2, 3)];
    assert_rejected_and_minimized(&h, &Violation::Fresh { value: 1 });
}

#[test]
fn fifo_inversion_is_ord() {
    // enq(1) completed strictly before enq(2) began, yet 2 came out
    // first while 1 also came out — an order inversion.
    let h = [
        ev(0, Op::Enq(1), 0, 1),
        ev(0, Op::Enq(2), 2, 3),
        ev(1, Op::DeqSome(2), 4, 5),
        ev(1, Op::DeqSome(1), 6, 7),
    ];
    assert_rejected_and_minimized(
        &h,
        &Violation::Ord {
            first: 1,
            second: 2,
        },
    );
}

#[test]
fn empty_dequeue_in_nonempty_window_is_wit() {
    // 1 was enqueued before the null dequeue began and not dequeued
    // until after it returned: the queue was provably non-empty for the
    // dequeue's entire window.
    let h = [
        ev(0, Op::Enq(1), 0, 1),
        ev(1, Op::DeqNull, 2, 3),
        ev(2, Op::DeqSome(1), 4, 5),
    ];
    assert_rejected_and_minimized(
        &h,
        &Violation::Wit {
            witness: 1,
            deq_thread: 1,
        },
    );
}

#[test]
fn lost_enqueue_is_detected() {
    // A "lost" enqueue: the value vanishes, so a later dequeue in a
    // window where it should have been the only element reports empty.
    // Same observable as the Wit pattern — that is the kind the checker
    // must report.
    let h = [
        ev(0, Op::Enq(9), 0, 1),
        ev(1, Op::DeqNull, 10, 11),
        ev(1, Op::DeqNull, 12, 13),
        ev(2, Op::DeqSome(9), 20, 21),
    ];
    assert_rejected_and_minimized(
        &h,
        &Violation::Wit {
            witness: 9,
            deq_thread: 1,
        },
    );
}

#[test]
fn empty_dequeue_covered_by_a_chain_is_wit() {
    // No single value spans the null dequeue's window [10, 20], yet the
    // queue is never empty within it: 1 is in until its dequeue begins
    // at 15, and 2 is in from 13 until its dequeue begins at 25.
    let h = [
        ev(0, Op::Enq(1), 0, 1),
        ev(1, Op::DeqNull, 10, 20),
        ev(2, Op::Enq(2), 12, 13),
        ev(3, Op::DeqSome(1), 15, 16),
        ev(3, Op::DeqSome(2), 25, 26),
    ];
    assert_rejected_and_minimized(
        &h,
        &Violation::Wit {
            witness: 2,
            deq_thread: 1,
        },
    );
}

#[test]
fn violations_survive_concurrency_noise() {
    // The same four defects buried inside overlapping, legal traffic
    // still come out with the right kind after shrinking.
    let mut h = vec![
        // Legal background: 10..13 flow through in order, overlapping.
        ev(3, Op::Enq(10), 0, 6),
        ev(3, Op::Enq(11), 7, 9),
        ev(4, Op::DeqSome(10), 8, 12),
        ev(3, Op::Enq(12), 10, 14),
        ev(4, Op::DeqSome(11), 13, 18),
        ev(4, Op::DeqSome(12), 19, 22),
    ];
    // The defect: value 5 dequeued twice by concurrent dequeuers.
    h.push(ev(0, Op::Enq(5), 1, 2));
    h.push(ev(1, Op::DeqSome(5), 3, 16));
    h.push(ev(2, Op::DeqSome(5), 4, 17));
    assert_rejected_and_minimized(&h, &Violation::Repeat { value: 5 });
}

#[test]
fn valid_histories_do_not_shrink() {
    let h = [
        ev(0, Op::Enq(1), 0, 5),
        ev(1, Op::DeqSome(1), 2, 7),
        ev(1, Op::DeqNull, 8, 9),
    ];
    assert!(check_queue_linearizable(&h).is_ok());
    assert!(shrink_history(&h).is_none());
}
