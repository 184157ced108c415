//! The test oracle: a Wing & Gong-style search over linearization orders,
//! exhaustive and unbudgeted, so it decides every history it is given.
//! It shares no code with `check_queue_linearizable`, and the two must
//! agree on every small history and on a large seeded random sample.

use linearize::{check_queue_linearizable, Event, Op, Violation};
use simrng::SimRng;
use std::collections::{HashSet, VecDeque};

fn ev(thread: usize, op: Op, invoke: u64, ret: u64) -> Event {
    Event {
        thread,
        op,
        invoke,
        ret,
    }
}

/// Undo record for one applied operation in the search.
enum Applied {
    PushedBack,
    PoppedFront(u64),
    Nothing,
}

/// Depth-first search over linearization orders of a FIFO history.
///
/// At each step the candidates are the *minimal* remaining operations —
/// those whose invocation precedes every remaining operation's return
/// (no remaining op finished strictly before they began, so they may
/// legally take the next linearization point). A candidate is applied to
/// the abstract `VecDeque` queue model and the search recurses; visited
/// `(done-set, queue-contents)` states are memoized exactly, which makes
/// revisits O(1) rejections.
struct Search<'a> {
    ev: &'a [Event],
    done: Vec<bool>,
    ndone: usize,
    queue: VecDeque<u64>,
    seen: HashSet<(Vec<bool>, Vec<u64>)>,
}

impl Search<'_> {
    /// Applies operation `i` to the queue model, or `None` if illegal in
    /// the current state.
    fn apply(&mut self, i: usize) -> Option<Applied> {
        match self.ev[i].op {
            Op::Enq(v) => {
                self.queue.push_back(v);
                Some(Applied::PushedBack)
            }
            Op::DeqSome(v) if self.queue.front() == Some(&v) => {
                self.queue.pop_front();
                Some(Applied::PoppedFront(v))
            }
            Op::DeqNull if self.queue.is_empty() => Some(Applied::Nothing),
            Op::DeqSome(_) | Op::DeqNull => None,
        }
    }

    fn unapply(&mut self, a: Applied) {
        match a {
            Applied::PushedBack => {
                self.queue.pop_back();
            }
            Applied::PoppedFront(v) => self.queue.push_front(v),
            Applied::Nothing => {}
        }
    }

    /// True iff the remaining operations have a legal order.
    fn dfs(&mut self) -> bool {
        if self.ndone == self.ev.len() {
            return true;
        }
        // The key is exact, not a digest, so the memo can never prune a
        // live branch.
        if !self
            .seen
            .insert((self.done.clone(), self.queue.iter().copied().collect()))
        {
            return false;
        }
        let min_ret = (0..self.ev.len())
            .filter(|&i| !self.done[i])
            .map(|i| self.ev[i].ret)
            .min()
            .expect("ndone < len");
        for i in 0..self.ev.len() {
            if self.done[i] || self.ev[i].invoke > min_ret {
                continue;
            }
            let Some(undo) = self.apply(i) else { continue };
            self.done[i] = true;
            self.ndone += 1;
            let found = self.dfs();
            self.done[i] = false;
            self.ndone -= 1;
            self.unapply(undo);
            if found {
                return true;
            }
        }
        false
    }
}

/// The oracle's verdict: does a legal sequential FIFO order exist?
fn oracle(events: &[Event]) -> bool {
    Search {
        ev: events,
        done: vec![false; events.len()],
        ndone: 0,
        queue: VecDeque::new(),
        seen: HashSet::new(),
    }
    .dfs()
}

/// True iff some value is enqueued twice: such a recording is malformed
/// and outside the oracle's queue model.
fn duplicate_enqueue(events: &[Event]) -> bool {
    let mut seen = HashSet::new();
    events.iter().any(|e| match e.op {
        Op::Enq(v) => !seen.insert(v),
        _ => false,
    })
}

/// Asserts the checker and the oracle agree on `h` and returns their
/// verdict; a malformed history must be reported as such and counts as
/// rejected.
fn assert_agree(h: &[Event]) -> bool {
    let got = check_queue_linearizable(h);
    if duplicate_enqueue(h) {
        assert!(matches!(got, Err(Violation::Malformed { .. })), "{h:?}");
        return false;
    }
    assert_eq!(got.is_ok(), oracle(h), "checker says {got:?} on {h:?}");
    got.is_ok()
}

#[test]
fn oracle_accepts_valid_histories() {
    let histories: Vec<Vec<Event>> = vec![
        vec![],
        vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::Enq(2), 2, 3),
            ev(0, Op::DeqSome(1), 4, 5),
            ev(0, Op::DeqSome(2), 6, 7),
            ev(0, Op::DeqNull, 8, 9),
        ],
        // Overlapping enqueues: either linearization order works.
        vec![
            ev(0, Op::Enq(1), 0, 10),
            ev(1, Op::Enq(2), 0, 10),
            ev(2, Op::DeqSome(2), 11, 12),
            ev(2, Op::DeqSome(1), 13, 14),
        ],
        // Null concurrent with the removing dequeue.
        vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(1, Op::DeqSome(1), 2, 10),
            ev(2, Op::DeqNull, 3, 9),
        ],
    ];
    for h in &histories {
        assert!(oracle(h), "{h:?}");
        assert_eq!(check_queue_linearizable(h), Ok(()));
    }
}

/// The oracle must reject the checker's violation histories on its own
/// (no legal order of the queue model exists), including both shapes
/// the checker once missed: a dequeue before its enqueue, and an empty
/// dequeue covered by a chain of values.
#[test]
fn oracle_rejects_violations_on_its_own() {
    let histories: Vec<Vec<Event>> = vec![
        // FIFO inversion with strictly ordered dequeues.
        vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::Enq(2), 2, 3),
            ev(1, Op::DeqSome(2), 4, 5),
            ev(1, Op::DeqSome(1), 6, 7),
        ],
        // Value dequeued twice.
        vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(0, Op::DeqSome(1), 2, 3),
            ev(1, Op::DeqSome(1), 4, 5),
        ],
        // Value never enqueued.
        vec![ev(0, Op::DeqSome(9), 0, 1)],
        // Value dequeued before its enqueue began.
        vec![ev(1, Op::DeqSome(1), 0, 1), ev(0, Op::Enq(1), 2, 3)],
        // Empty dequeue in a non-empty window.
        vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(1, Op::DeqNull, 2, 3),
            ev(2, Op::DeqSome(1), 4, 5),
        ],
        // Empty dequeue covered by 1 until 2 is surely in.
        vec![
            ev(0, Op::Enq(1), 0, 1),
            ev(1, Op::DeqNull, 10, 20),
            ev(2, Op::Enq(2), 12, 13),
            ev(3, Op::DeqSome(1), 15, 16),
            ev(3, Op::DeqSome(2), 25, 26),
        ],
    ];
    for h in &histories {
        assert!(!oracle(h), "{h:?}");
        assert!(check_queue_linearizable(h).is_err(), "{h:?}");
    }
}

/// Every history of up to three operations with timestamps in `0..=5`,
/// ties included. Values are numbered in order of first use, which
/// covers every history up to renaming.
#[test]
fn agrees_on_every_history_of_up_to_three_operations() {
    let intervals: Vec<(u64, u64)> = (0..=5).flat_map(|i| (i..=5).map(move |r| (i, r))).collect();
    let mut h = Vec::new();
    let mut checked = 0usize;
    enumerate(&mut h, 0, &intervals, &mut checked);
    // 21 intervals; 3, 13 and 71 operation sequences of length 1, 2 and
    // 3 up to renaming. Pinned so the enumeration cannot silently shrink.
    assert_eq!(checked, 1 + 3 * 21 + 13 * 21 * 21 + 71 * 21 * 21 * 21);
}

fn enumerate(h: &mut Vec<Event>, values: u64, intervals: &[(u64, u64)], checked: &mut usize) {
    assert_agree(h);
    *checked += 1;
    if h.len() == 3 {
        return;
    }
    let ops = (1..=values + 1)
        .flat_map(|v| [Op::Enq(v), Op::DeqSome(v)])
        .chain([Op::DeqNull]);
    for op in ops {
        let used = match op {
            Op::Enq(v) | Op::DeqSome(v) => values.max(v),
            Op::DeqNull => values,
        };
        for &(invoke, ret) in intervals {
            h.push(ev(h.len(), op, invoke, ret));
            enumerate(h, used, intervals, checked);
            h.pop();
        }
    }
}

/// Histories per generator in the random agreement test; the full
/// sample runs in release builds.
const RANDOM_HISTORIES: usize = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};

/// An arbitrary history of up to ten operations: unique enqueues, and
/// dequeues of any value up to one past the last enqueued, all over a
/// short timeline so intervals overlap and tie often.
fn arbitrary(rng: &mut SimRng) -> Vec<Event> {
    let n = 1 + rng.gen_usize(10);
    let span = 2 * n as u64;
    let mut next = 1;
    (0..n)
        .map(|t| {
            let op = match rng.gen_usize(3) {
                0 => {
                    next += 1;
                    Op::Enq(next - 1)
                }
                1 => Op::DeqSome(1 + rng.gen_range_inclusive(0, next - 1)),
                _ => Op::DeqNull,
            };
            let invoke = rng.gen_range_inclusive(0, span);
            ev(t, op, invoke, invoke + rng.gen_range_inclusive(0, n as u64))
        })
        .collect()
}

/// A linearizable history of up to ten operations — a sequential queue
/// run at increasing linearization points, each interval widened around
/// its point — then at most one random perturbation, which may or may
/// not break it.
fn perturbed(rng: &mut SimRng) -> Vec<Event> {
    let n = 1 + rng.gen_usize(10);
    let mut q = VecDeque::new();
    let mut next = 1;
    let mut h: Vec<Event> = (0..n)
        .map(|k| {
            let lp = (k as u64 + 1) * 4;
            let op = if rng.gen_bool(0.5) {
                q.push_back(next);
                next += 1;
                Op::Enq(next - 1)
            } else {
                q.pop_front().map_or(Op::DeqNull, Op::DeqSome)
            };
            let invoke = lp - rng.gen_range_inclusive(0, 6).min(lp);
            ev(k, op, invoke, lp + rng.gen_range_inclusive(0, 6))
        })
        .collect();
    let i = rng.gen_usize(n);
    let j = rng.gen_usize(n);
    match rng.gen_usize(6) {
        // Swap two operations (and so their values).
        0 => {
            let (a, b) = (h[i].op, h[j].op);
            h[i].op = b;
            h[j].op = a;
        }
        // An empty dequeue where a value came out, or the reverse.
        1 => {
            h[i].op = match h[i].op {
                Op::DeqSome(_) => Op::DeqNull,
                Op::DeqNull => Op::DeqSome(1 + rng.gen_range_inclusive(0, next - 1)),
                op => op,
            }
        }
        // Move an interval.
        2 => {
            let shift = rng.gen_range_inclusive(0, 8);
            let len = h[i].ret - h[i].invoke;
            h[i].invoke = if rng.gen_bool(0.5) {
                h[i].invoke + shift
            } else {
                h[i].invoke.saturating_sub(shift)
            };
            h[i].ret = h[i].invoke + len;
        }
        // Lose an operation.
        3 => {
            h.remove(i);
        }
        // Repeat a dequeue.
        4 => {
            if let Op::DeqSome(_) = h[i].op {
                let mut again = h[i];
                again.invoke = h[j].invoke;
                again.ret = h[j].ret;
                h.push(again);
            }
        }
        _ => {}
    }
    h
}

#[test]
fn agrees_on_random_histories() {
    let mut rng = SimRng::seed_from_u64(0x0bac1e);
    let mut rejected = [0usize; 2];
    for _ in 0..RANDOM_HISTORIES {
        let histories = [arbitrary(&mut rng), perturbed(&mut rng)];
        for (count, h) in rejected.iter_mut().zip(&histories) {
            *count += usize::from(!assert_agree(h));
        }
    }
    // Both generators must exercise both verdicts.
    for r in rejected {
        assert!(
            r > RANDOM_HISTORIES / 10 && r < RANDOM_HISTORIES * 9 / 10,
            "{rejected:?}"
        );
    }
}
