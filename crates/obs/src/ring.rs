//! Per-thread event recording and the run-level sink.
//!
//! The hot path is a [`ThreadObs`] owned exclusively by one thread: a
//! bounded, pre-allocated event buffer. Recording is a bounds check and
//! a couple of word writes — no locks, no allocation, no clock reads
//! (callers pass timestamps they already have). When the buffer is full, further events are counted in
//! `dropped` and discarded — deterministically, so a truncated trace of
//! a fixed simulation is still byte-stable.
//!
//! At thread exit the buffer is handed to the shared [`ObsSink`] (one
//! mutex acquisition per thread per run, off the measured path). The
//! sink orders logs by thread id, so the collected result is independent
//! of the incidental order threads finished in.

use crate::event::{InstantKind, ObsEvent, SpanKind};
use std::sync::Mutex;

/// Default per-thread event capacity: enough for every suite workload at
/// one span per operation, ~1.5 MiB per thread at 32 bytes an event.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One thread's completed recording.
#[derive(Debug)]
pub struct ThreadLog {
    /// Recording thread id (dense, matches the backend's thread ids).
    pub tid: usize,
    /// Events in recording order (monotone `ts` per thread).
    pub events: Vec<ObsEvent>,
    /// Events discarded after the buffer filled.
    pub dropped: u64,
}

/// The per-thread recorder. Create one per participating thread with
/// [`ObsSink::thread`], record along the thread's execution, and call
/// [`ObsSink::submit`] when done.
#[derive(Debug)]
pub struct ThreadObs {
    tid: usize,
    cap: usize,
    events: Vec<ObsEvent>,
    dropped: u64,
}

impl ThreadObs {
    fn new(tid: usize, cap: usize) -> ThreadObs {
        ThreadObs {
            tid,
            cap,
            events: Vec::with_capacity(cap.min(DEFAULT_RING_CAPACITY)),
            dropped: 0,
        }
    }

    #[inline]
    fn push(&mut self, e: ObsEvent) {
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
    }

    /// Records a completed span `[start, end]`.
    #[inline]
    pub fn span(&mut self, kind: SpanKind, start: u64, end: u64, arg: u64) {
        self.push(ObsEvent::Span {
            kind,
            start,
            end,
            arg,
        });
    }

    /// Records a point event at `ts`.
    #[inline]
    pub fn instant(&mut self, kind: InstantKind, ts: u64, arg: u64) {
        self.push(ObsEvent::Instant { kind, ts, arg });
    }

    /// Events recorded so far (excluding dropped).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The run-level collector threads submit their logs to. Cheap to create
/// per run; share via `Arc` with every participating thread's closure.
#[derive(Debug)]
pub struct ObsSink {
    cap: usize,
    logs: Mutex<Vec<ThreadLog>>,
}

impl Default for ObsSink {
    fn default() -> Self {
        ObsSink::new(DEFAULT_RING_CAPACITY)
    }
}

impl ObsSink {
    /// A sink whose per-thread buffers hold at most `cap` events.
    pub fn new(cap: usize) -> ObsSink {
        ObsSink {
            cap,
            logs: Mutex::new(Vec::new()),
        }
    }

    /// Creates the recorder for thread `tid`.
    pub fn thread(&self, tid: usize) -> ThreadObs {
        ThreadObs::new(tid, self.cap)
    }

    /// Accepts a finished thread recording (cold path; one lock per
    /// thread per run). Collection paths recover from a poisoned lock
    /// (another recording thread panicked): the logs gathered so far are
    /// still wanted, and a second panic here would mask the first.
    pub fn submit(&self, t: ThreadObs) {
        self.logs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ThreadLog {
                tid: t.tid,
                events: t.events,
                dropped: t.dropped,
            });
    }

    /// Drains the collected logs, sorted by thread id — the canonical
    /// order exporters consume, independent of submission order.
    pub fn take_logs(&self) -> Vec<ThreadLog> {
        let mut logs = std::mem::take(&mut *self.logs.lock().unwrap_or_else(|e| e.into_inner()));
        logs.sort_by_key(|l| l.tid);
        logs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_and_instants_in_order() {
        let sink = ObsSink::new(16);
        let mut t = sink.thread(3);
        t.span(SpanKind::Enqueue, 10, 25, 0x42);
        t.instant(InstantKind::Barrier, 30, 0);
        t.span(SpanKind::Dequeue, 31, 40, 0x42);
        assert_eq!(t.len(), 3);
        sink.submit(t);
        let logs = sink.take_logs();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].tid, 3);
        assert_eq!(logs[0].events[0].name(), "enqueue");
        assert_eq!(logs[0].events[1].name(), "barrier");
        assert_eq!(logs[0].dropped, 0);
    }

    #[test]
    fn overflow_drops_deterministically() {
        let sink = ObsSink::new(2);
        let mut t = sink.thread(0);
        for i in 0..5 {
            t.instant(InstantKind::CasOk, i, 0);
        }
        assert_eq!(t.len(), 2);
        sink.submit(t);
        let logs = sink.take_logs();
        assert_eq!(logs[0].events.len(), 2);
        assert_eq!(logs[0].dropped, 3);
        // The *first* events are kept: a truncated deterministic run is
        // still a prefix, hence byte-stable.
        assert_eq!(logs[0].events[0].ts(), 0);
        assert_eq!(logs[0].events[1].ts(), 1);
    }

    #[test]
    fn take_logs_sorts_by_tid() {
        let sink = ObsSink::default();
        for tid in [2usize, 0, 1] {
            let mut t = sink.thread(tid);
            t.instant(InstantKind::Barrier, tid as u64, 0);
            sink.submit(t);
        }
        let logs = sink.take_logs();
        let tids: Vec<usize> = logs.iter().map(|l| l.tid).collect();
        assert_eq!(tids, vec![0, 1, 2]);
    }
}
