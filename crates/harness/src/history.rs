//! Backend-generic history recording: drive per-thread op streams over
//! any queue on any backend, recording every operation through
//! [`linearize::Recorder`], and merge the result into one canonically
//! sorted history. This is the single copy of the setup/attach/drive
//! boilerplate the per-backend test harnesses and the fuzzer used to
//! duplicate.

use crate::backend::{Backend, BackendReport, Job};
use crate::queues::{QueueAdapter, QueueKind, QueueParams, QueueVisitor, Substrate};
use absmem::ThreadCtx;
use linearize::{Event, Op, Recorder};
use obs::{InstantKind, ObsSink, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// One history-recording run: thread `t` executes `ops[t]` (`true` =
/// enqueue, `false` = dequeue) after a start barrier.
#[derive(Debug, Clone)]
pub struct DriveSpec {
    pub params: QueueParams,
    /// Per-thread op streams; one backend thread per entry.
    pub ops: Vec<Vec<bool>>,
    /// After the op phase, rendezvous at a barrier and drain the queue to
    /// empty (recording the dequeues). Because no enqueue survives the
    /// barrier, a drained history conserves elements *exactly*: the
    /// dequeued multiset equals the enqueued multiset, a
    /// schedule-independent fact used to cross-check backends.
    pub drain: bool,
    /// Optional observability sink. When set, every operation is also
    /// recorded as a typed span (plus barrier instants) using the *same*
    /// `invoke`/`ret` timestamps the history recorder reads — no extra
    /// backend interaction, so enabling observability cannot perturb the
    /// run (`tests/obs_trace.rs` pins this).
    pub obs: Option<Arc<ObsSink>>,
    /// Per-thread pacing stride: entry `t` = `k > 0` makes thread `t`
    /// call [`ThreadCtx::wait_tick`] before every `k`-th main-loop op
    /// (`k = 1` paces every op; `k = batch` paces bursts). `0`, a missing
    /// entry, or an empty vector leaves the thread unpaced. The drain
    /// phase is never paced. On the simulator a paced thread blocks until
    /// a `TickGate` component releases it; backends without a tick source
    /// (native) return immediately, so pacing is a scheduling constraint,
    /// never a correctness dependency.
    pub pace: Vec<u64>,
}

impl DriveSpec {
    /// A spec without observability (the common case).
    pub fn new(params: QueueParams, ops: Vec<Vec<bool>>, drain: bool) -> DriveSpec {
        DriveSpec {
            params,
            ops,
            drain,
            obs: None,
            pace: Vec::new(),
        }
    }
}

/// Result of a history-recording run.
#[derive(Debug)]
pub struct DriveOutcome {
    /// The complete recorded history, canonically sorted.
    pub history: Vec<Event>,
    pub report: BackendReport,
}

/// The value thread `tid` enqueues as its `seq`-th element (`seq` starts
/// at 1): unique process-wide and nonzero, inside the basket element
/// domain.
#[inline]
pub fn history_value(tid: usize, seq: u64) -> u64 {
    ((tid as u64 + 1) << 40) | seq
}

/// Canonical history order: merged per-thread recorders are sorted by
/// `(invoke, ret, thread, op)` so the outcome does not depend on the
/// incidental order threads parked their recorders in.
pub fn sort_history(history: &mut [Event]) {
    fn op_key(op: &Op) -> (u8, u64) {
        match *op {
            Op::Enq(v) => (0, v),
            Op::DeqSome(v) => (1, v),
            Op::DeqNull => (2, 0),
        }
    }
    history.sort_by_key(|e| (e.invoke, e.ret, e.thread, op_key(&e.op)));
}

/// FNV-1a fold over a (sorted) history, for determinism fingerprints.
pub fn history_digest(history: &[Event]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for e in history {
        let (tag, v) = match e.op {
            Op::Enq(v) => (1u64, v),
            Op::DeqSome(v) => (2, v),
            Op::DeqNull => (3, 0),
        };
        mix(e.thread as u64);
        mix(tag);
        mix(v);
        mix(e.invoke);
        mix(e.ret);
    }
    h
}

/// The multiset of successfully dequeued values, sorted — equal across
/// backends for drained runs of the same spec.
pub fn dequeue_multiset(history: &[Event]) -> Vec<u64> {
    let mut vals: Vec<u64> = history
        .iter()
        .filter_map(|e| match e.op {
            Op::DeqSome(v) => Some(v),
            _ => None,
        })
        .collect();
    vals.sort_unstable();
    vals
}

/// The multiset of enqueued values, sorted.
pub fn enqueue_multiset(history: &[Event]) -> Vec<u64> {
    let mut vals: Vec<u64> = history
        .iter()
        .filter_map(|e| match e.op {
            Op::Enq(v) => Some(v),
            _ => None,
        })
        .collect();
    vals.sort_unstable();
    vals
}

/// Runs `spec` over a statically chosen adapter type `Q`;
/// [`record_history`] routes every kind through here.
fn record_history_as<B, Q>(backend: &mut B, spec: DriveSpec) -> DriveOutcome
where
    B: Backend,
    Q: QueueAdapter<B::Ctx> + 'static,
{
    let qp = spec.params;
    let drain = spec.drain;
    let base = Arc::new(AtomicU64::new(0));
    let recorders: Arc<Mutex<Vec<Recorder>>> = Arc::new(Mutex::new(Vec::new()));

    let programs: Vec<Job<B::Ctx>> = spec
        .ops
        .iter()
        .enumerate()
        .map(|(t, ops)| {
            let ops = ops.clone();
            let base = Arc::clone(&base);
            let recorders = Arc::clone(&recorders);
            let sink = spec.obs.clone();
            let pace = spec.pace.get(t).copied().unwrap_or(0);
            Box::new(move |ctx: &mut B::Ctx| {
                let mut q = Q::attach(base.load(SeqCst), ctx, &qp);
                let tid = ctx.thread_id();
                let mut rec = Recorder::new();
                let mut tobs = sink.as_ref().map(|s| s.thread(tid));
                let mut seq = 0u64;
                ctx.barrier();
                if let Some(o) = &mut tobs {
                    o.instant(InstantKind::Barrier, ctx.now(), 0);
                }
                for (i, &is_enq) in ops.iter().enumerate() {
                    if pace > 0 && (i as u64).is_multiple_of(pace) {
                        ctx.wait_tick();
                    }
                    let invoke = ctx.now();
                    if is_enq {
                        seq += 1;
                        let v = history_value(tid, seq);
                        q.enqueue(ctx, v);
                        let ret = ctx.now();
                        rec.record(tid, Op::Enq(v), invoke, ret);
                        if let Some(o) = &mut tobs {
                            o.span(SpanKind::Enqueue, invoke, ret, v);
                        }
                    } else {
                        let op = match q.dequeue(ctx) {
                            Some(v) => Op::DeqSome(v),
                            None => Op::DeqNull,
                        };
                        let ret = ctx.now();
                        if let Some(o) = &mut tobs {
                            match op {
                                Op::DeqSome(v) => o.span(SpanKind::Dequeue, invoke, ret, v),
                                _ => o.span(SpanKind::DequeueEmpty, invoke, ret, 0),
                            }
                        }
                        rec.record(tid, op, invoke, ret);
                    }
                }
                if drain {
                    ctx.barrier();
                    if let Some(o) = &mut tobs {
                        o.instant(InstantKind::Barrier, ctx.now(), 0);
                    }
                    loop {
                        let invoke = ctx.now();
                        match q.dequeue(ctx) {
                            Some(v) => {
                                let ret = ctx.now();
                                rec.record(tid, Op::DeqSome(v), invoke, ret);
                                if let Some(o) = &mut tobs {
                                    o.span(SpanKind::Drain, invoke, ret, v);
                                }
                            }
                            None => break,
                        }
                    }
                }
                if let (Some(s), Some(o)) = (&sink, tobs.take()) {
                    s.submit(o);
                }
                // Recover from a poisoned lock: if a sibling job panicked,
                // its panic (not a PoisonError) should be what surfaces.
                recorders
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(rec);
            }) as Job<B::Ctx>
        })
        .collect();

    let b2 = Arc::clone(&base);
    let report = backend.run(
        Box::new(move |ctx| {
            let addr = Q::create(ctx, &qp);
            b2.store(addr, SeqCst);
        }),
        programs,
    );

    let recorders = std::mem::take(&mut *recorders.lock().unwrap_or_else(|e| e.into_inner()));
    let mut history = Recorder::merge(recorders);
    sort_history(&mut history);
    DriveOutcome { history, report }
}

struct Driver<'a, B: Backend> {
    backend: &'a mut B,
    spec: DriveSpec,
}

impl<B> QueueVisitor<B::Ctx> for Driver<'_, B>
where
    B: Backend,
    B::Ctx: Substrate,
{
    type Out = DriveOutcome;

    fn visit<Q: QueueAdapter<B::Ctx> + 'static>(self) -> DriveOutcome {
        record_history_as::<B, Q>(self.backend, self.spec)
    }
}

/// Runs `spec` over queue `kind` on `backend` and returns the sorted
/// history plus the backend's report.
pub fn record_history<B>(backend: &mut B, kind: QueueKind, spec: DriveSpec) -> DriveOutcome
where
    B: Backend,
    B::Ctx: Substrate,
{
    kind.visit::<B::Ctx, _>(Driver { backend, spec })
}

/// A simple deterministic op-stream pattern for suite tests: each thread
/// alternates enqueues with a dequeue every `deq_every`-th step, `per`
/// enqueues total.
pub fn mixed_ops(threads: usize, per: u64, deq_every: u64) -> Vec<Vec<bool>> {
    (0..threads)
        .map(|_| {
            let mut ops = Vec::new();
            for i in 0..per {
                ops.push(true);
                if i % deq_every == 0 {
                    ops.push(false);
                }
            }
            ops
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_values_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for tid in 0..8 {
            for seq in 1..100 {
                let v = history_value(tid, seq);
                assert_ne!(v, 0);
                assert!(seen.insert(v));
            }
        }
    }

    #[test]
    fn sort_is_canonical_under_shuffle() {
        let mk = |thread, v, invoke, ret| Event {
            thread,
            op: Op::Enq(v),
            invoke,
            ret,
        };
        let mut a = vec![mk(0, 1, 5, 9), mk(1, 2, 1, 2), mk(2, 3, 1, 8)];
        let mut b = a.clone();
        b.reverse();
        sort_history(&mut a);
        sort_history(&mut b);
        assert_eq!(a, b);
        assert_eq!(history_digest(&a), history_digest(&b));
    }
}
