//! native-pairs: two OS threads, each enqueueing then dequeueing on one
//! fresh `sbq::native::Sbq<u64>` per repetition. None of the simulator
//! layers run here.

use crate::tracer::Tracer;
use crate::workload::{layer_median, seeded_counts, Rep, Sizes, Tally, Workload};
use obs::Histogram;
use sbq::native::{Sbq, SbqHandle};
use simrng::SimRng;
use std::collections::VecDeque;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

const THREADS: usize = 2;

/// Consecutive empty dequeues after which a thread gives up. In a
/// pairs workload every dequeue follows the thread's own enqueue, so a
/// correct queue is never empty when dequeued.
const EMPTY_LIMIT: u64 = 1 << 20;

/// The value thread `tid` enqueues as its `seq`-th element.
fn value(tid: usize, seq: u64) -> u64 {
    ((tid as u64 + 1) << 40) | seq
}

/// What one thread did, for the conservation check.
#[derive(Default)]
struct PairsOut {
    enq_sum: u64,
    /// Count and sum of the values dequeued, by producing thread.
    deq_count: [u64; THREADS],
    deq_sum: [u64; THREADS],
    foreign: u64,
    empty_deqs: u64,
    gave_up: bool,
    /// Host latencies, ns, traced repetitions only.
    enq_ns: Histogram,
    deq_ns: Histogram,
    tr: Option<Tracer>,
}

fn timed<T>(on: bool, f: impl FnOnce() -> T) -> (T, Option<(Instant, Instant)>) {
    if !on {
        return (f(), None);
    }
    let start = Instant::now();
    let out = f();
    (out, Some((start, Instant::now())))
}

fn pairs_thread(
    mut h: SbqHandle<u64>,
    tid: usize,
    n: u64,
    start: &Barrier,
    mut tr: Tracer,
) -> PairsOut {
    let mut out = PairsOut::default();
    start.wait();
    for seq in 1..=n {
        let v = value(tid, seq);
        let ((), t) = timed(tr.on, || h.enqueue(v));
        if let Some((a, b)) = t {
            out.enq_ns.record((b - a).as_nanos() as u64);
            tr.record("Sbq::enqueue", a, b);
        }
        out.enq_sum += v;
        let mut empties = 0;
        let got = loop {
            let (got, t) = timed(tr.on, || h.dequeue());
            if let Some((a, b)) = t {
                out.deq_ns.record((b - a).as_nanos() as u64);
                tr.record("Sbq::dequeue", a, b);
            }
            match got {
                Some(v) => break Some(v),
                None if empties == EMPTY_LIMIT => break None,
                None => empties += 1,
            }
        };
        out.empty_deqs += empties;
        let Some(got) = got else {
            out.gave_up = true;
            break;
        };
        match ((got >> 40) as usize)
            .checked_sub(1)
            .filter(|&t| t < THREADS)
        {
            Some(t) => {
                out.deq_count[t] += 1;
                out.deq_sum[t] += got;
            }
            None => out.foreign += 1,
        }
    }
    out.tr = Some(tr);
    out
}

/// True iff, for every thread, the values dequeued from it by all
/// threads match in count and sum the values it enqueued.
fn conserved(outs: &[PairsOut], pairs: &[u64]) -> bool {
    let clean = outs.iter().all(|o| !o.gave_up && o.foreign == 0);
    clean
        && (0..THREADS).all(|t| {
            let count: u64 = outs.iter().map(|o| o.deq_count[t]).sum();
            let sum: u64 = outs.iter().map(|o| o.deq_sum[t]).sum();
            count == pairs[t] && sum == outs[t].enq_sum
        })
}

pub struct NativePairs {
    pairs: Vec<u64>,
}

impl NativePairs {
    pub fn new(seed: u64, sizes: &Sizes) -> NativePairs {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0a71_7e00);
        NativePairs {
            pairs: seeded_counts(&mut rng, THREADS, sizes.native_pairs),
        }
    }
}

impl Workload for NativePairs {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let q = tr.span("Sbq::new", |_| Arc::new(Sbq::<u64>::new(THREADS)));
        let new_ms = t0.elapsed().as_secs_f64() * 1e3;
        let handles = tr.span("Sbq::handle", |_| {
            (0..THREADS).map(|_| q.handle()).collect::<Vec<_>>()
        });
        // The workers and this thread meet here; the measured phase starts
        // when this thread passes.
        let start = Barrier::new(THREADS + 1);
        let (past, outs, end) = std::thread::scope(|s| {
            let workers: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(tid, h)| {
                    let (n, child, start) = (self.pairs[tid], tr.child(tid as u32 + 1), &start);
                    s.spawn(move || pairs_thread(h, tid, n, start, child))
                })
                .collect();
            start.wait();
            let past = Instant::now();
            let outs: Vec<PairsOut> = workers
                .into_iter()
                .map(|w| w.join().expect("a pairs thread panicked"))
                .collect();
            (past, outs, Instant::now())
        });
        tr.instant("start_barrier", past);
        let mut outs = outs;
        for o in &mut outs {
            if let Some(child) = o.tr.take() {
                tr.merge(child);
            }
        }
        let ops = 2 * self.pairs.iter().sum::<u64>();
        let mut tally = Tally::default();
        tally.check(ops, conserved(&outs, &self.pairs));
        let mut layer = Vec::new();
        if tr.on {
            let mut enq = Histogram::new();
            let mut deq = Histogram::new();
            for o in &outs {
                enq.merge(&o.enq_ns);
                deq.merge(&o.deq_ns);
            }
            let empty: u64 = outs.iter().map(|o| o.empty_deqs).sum();
            layer = vec![
                ("sbq.native.new_ms", new_ms),
                ("sbq.native.enq_ns_p50", enq.p50() as f64),
                ("sbq.native.enq_ns_p99", enq.p99() as f64),
                ("sbq.native.deq_ns_p50", deq.p50() as f64),
                ("sbq.native.deq_ns_p99", deq.p99() as f64),
                (
                    "sbq.native.empty_deq_share",
                    empty as f64 / deq.count().max(1) as f64,
                ),
            ];
        }
        Rep {
            setup_ns: (past - t0).as_nanos() as u64,
            measured_ns: (end - past).as_nanos() as u64,
            ops,
            tally,
            layer,
        }
    }

    fn layers(&self, traced: &[Rep]) -> Vec<(&'static str, f64)> {
        [
            "sbq.native.new_ms",
            "sbq.native.enq_ns_p50",
            "sbq.native.enq_ns_p99",
            "sbq.native.deq_ns_p50",
            "sbq.native.deq_ns_p99",
            "sbq.native.empty_deq_share",
        ]
        .into_iter()
        .map(|name| (name, layer_median(traced, name)))
        .collect()
    }

    fn counters(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// The native-pairs pattern on a `Mutex<VecDeque<u64>>`: host ops/s of a
/// reference no change to this repository can move, so a shift in it
/// measures the host, not the code.
pub fn mutex_vecdeque_ops_per_s(pairs: u64) -> f64 {
    let q = Mutex::new(VecDeque::<u64>::new());
    let start = Barrier::new(THREADS);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (q, start) = (&q, &start);
            s.spawn(move || {
                start.wait();
                for seq in 1..=pairs {
                    q.lock()
                        .expect("no holder panics")
                        .push_back(value(tid, seq));
                    let got = q.lock().expect("no holder panics").pop_front();
                    assert!(got.is_some(), "a pairs dequeue found the queue empty");
                }
            });
        }
    });
    (2 * THREADS as u64 * pairs) as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_catches_a_lost_value() {
        let outs = |extra: u64| {
            [
                PairsOut {
                    enq_sum: value(0, 1) + extra,
                    ..PairsOut::default()
                },
                PairsOut {
                    enq_sum: value(1, 1),
                    deq_count: [1, 1],
                    deq_sum: [value(0, 1), value(1, 1)],
                    ..PairsOut::default()
                },
            ]
        };
        assert!(conserved(&outs(0), &[1, 1]));
        assert!(!conserved(&outs(1), &[1, 1]));
    }
}
