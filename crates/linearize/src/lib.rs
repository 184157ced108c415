//! # linearize — exact queue linearizability checking
//!
//! The paper proves SBQ linearizable with the aspect-oriented framework of
//! Henzinger, Sezgin & Vafeiadis (CONCUR 2013): a complete concurrent
//! queue history (with unique enqueued values) is linearizable iff it is
//! free of four violation patterns (§5.3.2). [`check_queue_linearizable`]
//! decides every such history exactly, in polynomial time and without
//! searching linearization orders (Emmi & Enea, POPL 2018, show queues
//! admit such a check). Operation `o` *precedes* `p` when `o` returns
//! before `p` is invoked; the patterns are:
//!
//! * **VFresh** — a dequeue returns a value that was never enqueued, or
//!   returns before its value's enqueue is invoked;
//! * **VRepeat** — two dequeues return the value of the same enqueue;
//! * **VOrd** — FIFO order inversion: `enqueue(a)` precedes `enqueue(b)`,
//!   `b` is dequeued, but `a` either is never dequeued or `b`'s dequeue
//!   precedes `a`'s;
//! * **VWit** — a dequeue returns NULL (empty) although the queue cannot
//!   be empty at any point of its interval. Let `P(n)` be the values that
//!   must be fully gone before the empty dequeue `n` linearizes: every
//!   value with an operation preceding `n`, closed under taking in `y`
//!   whenever an operation on `y` precedes an operation on a value
//!   already in `P(n)`. `n` is a violation iff `P(n)` holds a value that
//!   is never dequeued or has an operation invoked after `n` returns.
//!
//! Pairwise VOrd is exact once empty dequeues are set aside, and the
//! closure covers an empty dequeue hidden behind a chain of values.
//! [`shrink_history`] minimizes a failing history while preserving the
//! violation kind — the fuzzer's counterexample reducer.
//!
//! Timestamps are arbitrary `u64`s; the only requirement is that for any
//! two events where one *returns before the other is invoked*, the
//! recorded numbers reflect it. A shared atomic counter (native runs) or
//! the simulated clock (simulator runs) both qualify.

use std::collections::HashMap;

/// One completed queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `enqueue(value)`; values must be unique across the history.
    Enq(u64),
    /// A dequeue that returned `value`.
    DeqSome(u64),
    /// A dequeue that reported the queue empty.
    DeqNull,
}

/// A recorded operation with its execution interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Executing thread (diagnostics only).
    pub thread: usize,
    /// The operation and its payload.
    pub op: Op,
    /// Invocation timestamp.
    pub invoke: u64,
    /// Return timestamp; must be `>= invoke`.
    pub ret: u64,
}

/// A detected linearizability violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Dequeued value was never enqueued, or its dequeue returned before
    /// its enqueue was invoked.
    Fresh { value: u64 },
    /// Value dequeued more than once.
    Repeat { value: u64 },
    /// FIFO inversion between the enqueues of `first` and `second`.
    Ord { first: u64, second: u64 },
    /// Empty-dequeue although `witness` had to be in the queue: it is in
    /// the dequeue's `P(n)` (see the crate docs) yet is never dequeued or
    /// has an operation invoked after the empty dequeue returned.
    Wit { witness: u64, deq_thread: usize },
    /// Malformed history (duplicate enqueue value, interval with
    /// `ret < invoke`, ...): the *recording* is broken, not the queue.
    Malformed { reason: String },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Fresh { value } => write!(
                f,
                "VFresh: value {value} dequeued without an enqueue invoked before"
            ),
            Violation::Repeat { value } => write!(f, "VRepeat: value {value} dequeued twice"),
            Violation::Ord { first, second } => write!(
                f,
                "VOrd: enq({first}) completed before enq({second}) began, but FIFO was inverted"
            ),
            Violation::Wit {
                witness,
                deq_thread,
            } => write!(
                f,
                "VWit: thread {deq_thread} saw empty, but {witness} had to be enqueued before and dequeued after"
            ),
            Violation::Malformed { reason } => write!(f, "malformed history: {reason}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    invoke: u64,
    ret: u64,
}

/// One enqueued value: its enqueue's interval and, if it was dequeued,
/// its dequeue's.
struct Value {
    value: u64,
    enq: Interval,
    deq: Option<Interval>,
}

impl Value {
    /// When the value's earliest operation returns.
    fn first_ret(&self) -> u64 {
        self.deq.map_or(self.enq.ret, |d| d.ret.min(self.enq.ret))
    }

    /// When the value's latest operation is invoked; `None` when it is
    /// never dequeued, since it then stays in the queue past every time.
    fn last_invoke(&self) -> Option<u64> {
        self.deq.map(|d| d.invoke.max(self.enq.invoke))
    }
}

/// The later of two [`Value::last_invoke`]-style times (`None` = never).
fn later(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    a.zip(b).map(|(a, b)| a.max(b))
}

/// Whether `time` (`None` = never) falls after `t`.
fn after(time: Option<u64>, t: u64) -> bool {
    time.is_none_or(|time| time > t)
}

/// Decides whether a complete queue history is linearizable. Returns the
/// first violation in history order, checking the kinds in turn:
/// malformed records and repeats in one pass over the events, then
/// fresh values, FIFO inversions and empty dequeues.
///
/// Requirements on the input: every operation has completed (no pending
/// calls — complete your histories by joining all threads first), and
/// enqueued values are unique.
pub fn check_queue_linearizable(events: &[Event]) -> Result<(), Violation> {
    let mut enq_of: HashMap<u64, Interval> = HashMap::new();
    let mut deq_of: HashMap<u64, Interval> = HashMap::new();
    for e in events {
        if e.ret < e.invoke {
            return Err(Violation::Malformed {
                reason: format!("event {e:?} returns before invocation"),
            });
        }
        let iv = Interval {
            invoke: e.invoke,
            ret: e.ret,
        };
        match e.op {
            Op::Enq(v) => {
                if enq_of.insert(v, iv).is_some() {
                    return Err(Violation::Malformed {
                        reason: format!("value {v} enqueued twice"),
                    });
                }
            }
            Op::DeqSome(v) => {
                if deq_of.insert(v, iv).is_some() {
                    return Err(Violation::Repeat { value: v });
                }
            }
            Op::DeqNull => {}
        }
    }

    // VFresh: every dequeue is of a value whose enqueue was invoked no
    // later than the dequeue returned.
    for e in events {
        if let Op::DeqSome(v) = e.op {
            if enq_of.get(&v).is_none_or(|enq| e.ret < enq.invoke) {
                return Err(Violation::Fresh { value: v });
            }
        }
    }

    // Every enqueued value, in history order.
    let values: Vec<Value> = events
        .iter()
        .filter_map(|e| match e.op {
            Op::Enq(v) => Some(Value {
                value: v,
                enq: enq_of[&v],
                deq: deq_of.get(&v).copied(),
            }),
            _ => None,
        })
        .collect();
    check_ord(&values)?;
    check_wit(events, &values)
}

/// VOrd: for `a`, `b` with `enq(a)` preceding `enq(b)` and `b` dequeued,
/// `a` must be dequeued and `deq(b)` must not precede `deq(a)`. Reports
/// the first such `b` in history order, then its first `a`.
fn check_ord(values: &[Value]) -> Result<(), Violation> {
    // Enqueues by return time, each with the latest dequeue invocation
    // among it and every enqueue returning earlier.
    let mut by_ret: Vec<(u64, Option<u64>)> = values
        .iter()
        .map(|x| (x.enq.ret, x.deq.map(|d| d.invoke)))
        .collect();
    by_ret.sort_unstable_by_key(|&(ret, _)| ret);
    let mut latest = Some(0);
    for entry in &mut by_ret {
        latest = later(latest, entry.1);
        entry.1 = latest;
    }
    for b in values {
        let Some(db) = b.deq else { continue };
        let before = by_ret.partition_point(|&(ret, _)| ret < b.enq.invoke);
        if before == 0 || !after(by_ret[before - 1].1, db.ret) {
            continue;
        }
        let a = values
            .iter()
            .find(|a| a.enq.ret < b.enq.invoke && after(a.deq.map(|d| d.invoke), db.ret))
            .expect("the running maximum names a violating enqueue");
        return Err(Violation::Ord {
            first: a.value,
            second: b.value,
        });
    }
    Ok(())
}

/// VWit: an empty dequeue `n` is a violation iff its closure `P(n)` (see
/// the crate docs) holds a value with [`Value::last_invoke`] after `n`
/// returns. Sorted by first return, `P(n)` is a prefix of the values: it
/// takes in values while their first return precedes the latest
/// invocation seen so far (starting from `n`'s own). The prefix only
/// grows with `n`'s invocation, so one sweep over the empty dequeues in
/// invocation order computes every `P(n)`. Reports the first violating
/// empty dequeue in history order, with its first late value.
fn check_wit(events: &[Event], values: &[Value]) -> Result<(), Violation> {
    let mut by_ret: Vec<usize> = (0..values.len()).collect();
    by_ret.sort_by_key(|&k| values[k].first_ret());
    let mut nulls: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].op == Op::DeqNull)
        .collect();
    nulls.sort_by_key(|&i| events[i].invoke);

    // The lowest-indexed violating empty dequeue and the length of its
    // prefix.
    let mut first: Option<(usize, usize)> = None;
    let (mut len, mut latest) = (0, Some(0));
    for i in nulls {
        let n = events[i];
        while len < by_ret.len()
            && latest.is_none_or(|t| values[by_ret[len]].first_ret() < t.max(n.invoke))
        {
            latest = later(latest, values[by_ret[len]].last_invoke());
            len += 1;
        }
        if after(latest, n.ret) && first.is_none_or(|(j, _)| i < j) {
            first = Some((i, len));
        }
    }
    let Some((i, len)) = first else { return Ok(()) };
    let n = events[i];
    let witness = by_ret[..len]
        .iter()
        .copied()
        .filter(|&k| after(values[k].last_invoke(), n.ret))
        .min()
        .expect("a violating prefix holds a late value");
    Err(Violation::Wit {
        witness: values[witness].value,
        deq_thread: n.thread,
    })
}

/// Minimizes a failing history: greedily removes events, keeping a
/// removal only if the checker still reports a violation of the *same
/// kind* (enum discriminant), and repeats to a fixpoint. Returns the
/// minimized history and its violation, or `None` if the input history
/// passes the checker. The result is 1-minimal: removing any single
/// further event changes or clears the verdict.
pub fn shrink_history(events: &[Event]) -> Option<(Vec<Event>, Violation)> {
    let first = check_queue_linearizable(events).err()?;
    let kind = std::mem::discriminant(&first);
    let mut cur = events.to_vec();
    let mut violation = first;
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            match check_queue_linearizable(&cand) {
                Err(v) if std::mem::discriminant(&v) == kind => {
                    cur = cand;
                    violation = v;
                    progressed = true;
                    // Do not advance: the element now at `i` is unprobed.
                }
                _ => i += 1,
            }
        }
        if !progressed {
            return Some((cur, violation));
        }
    }
}

/// Convenience recorder: collects events with timestamps from a shared
/// atomic counter, one recorder per thread, merged at the end.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<Event>,
}

impl Recorder {
    /// Creates an empty per-thread recorder.
    pub fn new() -> Self {
        Recorder { events: Vec::new() }
    }

    /// Records one completed operation.
    pub fn record(&mut self, thread: usize, op: Op, invoke: u64, ret: u64) {
        self.events.push(Event {
            thread,
            op,
            invoke,
            ret,
        });
    }

    /// Merges several per-thread recorders into one history.
    pub fn merge(recorders: impl IntoIterator<Item = Recorder>) -> Vec<Event> {
        recorders.into_iter().flat_map(|r| r.events).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread: usize, op: Op, invoke: u64, ret: u64) -> Event {
        Event {
            thread,
            op,
            invoke,
            ret,
        }
    }

    #[test]
    fn empty_history_ok() {
        assert_eq!(check_queue_linearizable(&[]), Ok(()));
    }

    #[test]
    fn sequential_fifo_ok() {
        let h = vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::Enq(2), 2, 3),
            ev(0, Op::DeqSome(1), 4, 5),
            ev(0, Op::DeqSome(2), 6, 7),
            ev(0, Op::DeqNull, 8, 9),
        ];
        assert_eq!(check_queue_linearizable(&h), Ok(()));
    }

    #[test]
    fn detects_fresh() {
        let h = vec![ev(0, Op::DeqSome(9), 0, 1)];
        assert_eq!(
            check_queue_linearizable(&h),
            Err(Violation::Fresh { value: 9 })
        );
    }

    #[test]
    fn detects_repeat() {
        let h = vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::DeqSome(1), 2, 3),
            ev(1, Op::DeqSome(1), 2, 3),
        ];
        assert_eq!(
            check_queue_linearizable(&h),
            Err(Violation::Repeat { value: 1 })
        );
    }

    #[test]
    fn detects_ord_when_first_never_dequeued() {
        let h = vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::Enq(2), 2, 3),
            ev(1, Op::DeqSome(2), 4, 5),
        ];
        assert_eq!(
            check_queue_linearizable(&h),
            Err(Violation::Ord {
                first: 1,
                second: 2
            })
        );
    }

    #[test]
    fn detects_ord_inverted_dequeues() {
        let h = vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::Enq(2), 2, 3),
            ev(1, Op::DeqSome(2), 4, 5),
            ev(1, Op::DeqSome(1), 6, 7), // invoked after deq(2) returned
        ];
        assert_eq!(
            check_queue_linearizable(&h),
            Err(Violation::Ord {
                first: 1,
                second: 2
            })
        );
    }

    #[test]
    fn overlapping_enqueues_any_order_ok() {
        // enq(1) and enq(2) overlap: either dequeue order linearizes.
        let h = vec![
            ev(0, Op::Enq(1), 0, 10),
            ev(1, Op::Enq(2), 0, 10),
            ev(2, Op::DeqSome(2), 11, 12),
            ev(2, Op::DeqSome(1), 13, 14),
        ];
        assert_eq!(check_queue_linearizable(&h), Ok(()));
    }

    #[test]
    fn overlapping_dequeues_any_order_ok() {
        let h = vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::Enq(2), 2, 3),
            // Two dequeues overlap; (2) may "return first".
            ev(1, Op::DeqSome(2), 4, 9),
            ev(2, Op::DeqSome(1), 4, 9),
        ];
        assert_eq!(check_queue_linearizable(&h), Ok(()));
    }

    #[test]
    fn detects_wit() {
        let h = vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(1, Op::DeqNull, 2, 3), // 1 is inside and undequeued
            ev(2, Op::DeqSome(1), 4, 5),
        ];
        assert!(matches!(
            check_queue_linearizable(&h),
            Err(Violation::Wit { witness: 1, .. })
        ));
    }

    #[test]
    fn null_concurrent_with_enqueue_ok() {
        // enq(1) overlaps the null dequeue: the null can linearize first.
        let h = vec![
            ev(0, Op::Enq(1), 0, 5),
            ev(1, Op::DeqNull, 2, 3),
            ev(1, Op::DeqSome(1), 6, 7),
        ];
        assert_eq!(check_queue_linearizable(&h), Ok(()));
    }

    #[test]
    fn null_concurrent_with_removing_dequeue_ok() {
        // x's dequeue overlaps the null: x may leave before the null
        // linearizes.
        let h = vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(1, Op::DeqSome(1), 2, 10),
            ev(2, Op::DeqNull, 3, 9),
        ];
        assert_eq!(check_queue_linearizable(&h), Ok(()));
    }

    #[test]
    fn rejects_malformed_duplicate_enqueue() {
        let h = vec![ev(0, Op::Enq(1), 0, 1), ev(1, Op::Enq(1), 2, 3)];
        assert!(matches!(
            check_queue_linearizable(&h),
            Err(Violation::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_malformed_interval() {
        let h = vec![ev(0, Op::Enq(1), 5, 1)];
        assert!(matches!(
            check_queue_linearizable(&h),
            Err(Violation::Malformed { .. })
        ));
    }

    /// The reported violation is the first in history order, the same on
    /// every call: each call hashes with fresh `HashMap` keys, so a check
    /// that iterated its maps would wander between equal violations.
    #[test]
    fn reports_the_first_violation_in_history_order() {
        // Eight sequential FIFO inversions: enq(a), enq(b), deq b, deq a.
        let mut inversions = Vec::new();
        for k in 0..8u64 {
            let (a, b, t) = (10 * k + 1, 10 * k + 2, 10 * k);
            inversions.push(ev(0, Op::Enq(a), t, t + 1));
            inversions.push(ev(0, Op::Enq(b), t + 2, t + 3));
            inversions.push(ev(1, Op::DeqSome(b), t + 4, t + 5));
            inversions.push(ev(1, Op::DeqSome(a), t + 6, t + 7));
        }
        assert_eq!(inversions.len(), 32);
        let fresh = [
            ev(0, Op::DeqSome(5), 0, 1),
            ev(0, Op::DeqSome(6), 2, 3),
            ev(0, Op::DeqSome(7), 4, 5),
        ];
        for _ in 0..16 {
            assert_eq!(
                check_queue_linearizable(&inversions),
                Err(Violation::Ord {
                    first: 1,
                    second: 2
                })
            );
            assert_eq!(
                check_queue_linearizable(&fresh),
                Err(Violation::Fresh { value: 5 })
            );
        }
    }

    #[test]
    fn shrink_returns_none_on_valid_history() {
        let h = vec![ev(0, Op::Enq(1), 0, 1), ev(0, Op::DeqSome(1), 2, 3)];
        assert!(shrink_history(&h).is_none());
    }

    #[test]
    fn shrink_minimizes_and_preserves_kind() {
        // A long valid prefix followed by a duplicated dequeue.
        let mut h = Vec::new();
        let mut t = 0;
        for v in 1..=20u64 {
            h.push(ev(0, Op::Enq(v), t, t + 1));
            t += 2;
        }
        for v in 1..=20u64 {
            h.push(ev(0, Op::DeqSome(v), t, t + 1));
            t += 2;
        }
        h.push(ev(1, Op::DeqSome(7), t, t + 1));
        let (min, v) = shrink_history(&h).expect("history must fail");
        assert_eq!(v, Violation::Repeat { value: 7 });
        // 1-minimal: two dequeues of 7 are all it takes (the enqueue is
        // not needed for VRepeat).
        assert_eq!(min.len(), 2);
        for i in 0..min.len() {
            let mut sub = min.clone();
            sub.remove(i);
            assert!(
                !matches!(
                    check_queue_linearizable(&sub),
                    Err(Violation::Repeat { .. })
                ),
                "shrunk history is not 1-minimal"
            );
        }
    }

    #[test]
    fn recorder_merge_collects_everything() {
        let mut r1 = Recorder::new();
        let mut r2 = Recorder::new();
        r1.record(0, Op::Enq(1), 0, 1);
        r2.record(1, Op::DeqSome(1), 2, 3);
        let h = Recorder::merge([r1, r2]);
        assert_eq!(h.len(), 2);
        assert_eq!(check_queue_linearizable(&h), Ok(()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simrng::SimRng;

    /// Generates a random *valid* sequential history by simulating a real
    /// FIFO queue, then perturbs nothing: the checker must accept it.
    fn valid_history(ops: Vec<bool>) -> Vec<Event> {
        let mut q = std::collections::VecDeque::new();
        let mut t = 0u64;
        let mut next_v = 1u64;
        let mut h = Vec::new();
        for is_enq in ops {
            let (i, r) = (t, t + 1);
            t += 2;
            if is_enq {
                q.push_back(next_v);
                h.push(Event {
                    thread: 0,
                    op: Op::Enq(next_v),
                    invoke: i,
                    ret: r,
                });
                next_v += 1;
            } else {
                match q.pop_front() {
                    Some(v) => h.push(Event {
                        thread: 0,
                        op: Op::DeqSome(v),
                        invoke: i,
                        ret: r,
                    }),
                    None => h.push(Event {
                        thread: 0,
                        op: Op::DeqNull,
                        invoke: i,
                        ret: r,
                    }),
                }
            }
        }
        h
    }

    #[test]
    fn accepts_all_valid_sequential_histories() {
        let mut rng = SimRng::seed_from_u64(0x11a2);
        for _ in 0..256 {
            let n = rng.gen_usize(200);
            let ops: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let h = valid_history(ops);
            assert_eq!(check_queue_linearizable(&h), Ok(()));
        }
    }

    /// Random linearizable *concurrent* histories: execute a sequential
    /// queue at increasing linearization points, then widen every
    /// operation's interval around its point. By construction a legal
    /// order exists, so the checker must accept
    /// every history despite the overlapping intervals.
    #[test]
    fn accepts_randomized_concurrent_linearizable_histories() {
        let mut rng = SimRng::seed_from_u64(0x77aa);
        for round in 0..64 {
            let n = 4 + rng.gen_usize(40);
            let mut q = std::collections::VecDeque::new();
            let mut next_v = 1u64;
            let mut h = Vec::new();
            for k in 0..n {
                let lp = (k as u64 + 1) * 10;
                let invoke = lp - rng.gen_range_inclusive(0, 9);
                let ret = lp + rng.gen_range_inclusive(0, 9);
                let op = if rng.gen_bool(0.5) {
                    q.push_back(next_v);
                    next_v += 1;
                    Op::Enq(next_v - 1)
                } else {
                    match q.pop_front() {
                        Some(v) => Op::DeqSome(v),
                        None => Op::DeqNull,
                    }
                };
                h.push(Event {
                    thread: k % 4,
                    op,
                    invoke,
                    ret,
                });
            }
            assert_eq!(check_queue_linearizable(&h), Ok(()), "round {round}");
        }
    }

    /// Swapping the values of two distinct non-adjacent dequeues in a
    /// long valid history must produce a detectable violation.
    #[test]
    fn detects_injected_order_swap() {
        for n in 4usize..40 {
            // Build: n enqueues then n dequeues, all sequential.
            let ops: Vec<bool> = (0..n).map(|_| true).chain((0..n).map(|_| false)).collect();
            let mut h = valid_history(ops);
            // Swap the first and last dequeue's values.
            let d1 = 2 * n - n; // first dequeue index in h
            let d2 = h.len() - 1;
            let (a, b) = match (h[d1].op, h[d2].op) {
                (Op::DeqSome(a), Op::DeqSome(b)) => (a, b),
                _ => unreachable!(),
            };
            h[d1].op = Op::DeqSome(b);
            h[d2].op = Op::DeqSome(a);
            assert!(check_queue_linearizable(&h).is_err(), "n={n}");
        }
    }
}
