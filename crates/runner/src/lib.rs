//! # runner — parallel experiment job pool with deterministic merge
//!
//! Every experiment layer in this tree (figure sweeps, load-sweep rate
//! points, fuzz campaign seeds, cross-link differential runs) is a
//! list of *independent* jobs: each one spins up its own `Machine` or
//! native-backend run and shares nothing with its neighbours. This crate
//! fans such a list across `jobs` OS threads while keeping the observable
//! output **byte-identical to a serial run**:
//!
//! * jobs are claimed from an atomic cursor, so workers stay busy
//!   regardless of per-job skew;
//! * each result lands in a slot indexed by its *submission* position;
//! * consumption (printing, artifact writing, failure reporting) happens
//!   in submission order, never in completion order.
//!
//! That last point is the determinism-of-merge contract: anything
//! derived from the merged stream — a figure TSV, a fuzz-artifact
//! directory, "the first failing seed" — cannot depend on host
//! scheduling. With `jobs = 1` the pool degenerates to a plain in-order
//! loop (results are consumed as they are produced), which doubles as
//! the reference the equivalence suite diffs the parallel path against.
//!
//! The pool also measures itself through [`obs`]: per-job wall latencies
//! go into a log-bucketed [`Histogram`] (per-worker histograms folded
//! with the exact associative merge), and [`JobReport::utilization_trace`]
//! renders one Chrome-trace track per worker — an `op` span per job plus
//! a `job-claim` instant — so pool utilization can be eyeballed in
//! Perfetto next to the simulator traces.

use obs::{Histogram, InstantKind, ObsSink, SpanKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker-thread count to use when the caller does not specify one: the
/// host's available parallelism (1 if that cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One job's execution interval, in nanoseconds since the pool started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpan {
    /// Worker thread (0-based) that ran the job.
    pub worker: usize,
    /// The job's submission index.
    pub index: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the pool observed about one batch of jobs.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Worker threads actually used (`min(requested, tasks)`, at least 1).
    pub jobs: usize,
    /// Jobs executed.
    pub tasks: usize,
    /// Per-job wall-latency distribution (ns). Built per worker and
    /// folded with [`Histogram::merge`], which is exact, so the report is
    /// identical for any worker count modulo the latencies themselves.
    pub latency: Histogram,
    /// Every job's execution interval, sorted by submission index.
    pub spans: Vec<JobSpan>,
    /// Wall time of the whole batch (ns).
    pub total_wall_ns: u64,
}

impl JobReport {
    fn new(jobs: usize, tasks: usize) -> JobReport {
        JobReport {
            jobs,
            tasks,
            latency: Histogram::new(),
            spans: Vec::with_capacity(tasks),
            total_wall_ns: 0,
        }
    }

    /// Fraction of `jobs × total_wall_ns` spent inside jobs (0 when the
    /// batch was empty): the pool's utilization.
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        let capacity = self.jobs as u64 * self.total_wall_ns;
        if capacity == 0 {
            0.0
        } else {
            busy as f64 / capacity as f64
        }
    }

    /// One-line human summary for CLI diagnostics.
    pub fn summary(&self) -> String {
        format!(
            "runner: {} job(s) on {} worker(s) in {:.1} ms (p50 {:.1} ms, p99 {:.1} ms, utilization {:.0}%)",
            self.tasks,
            self.jobs,
            self.total_wall_ns as f64 / 1e6,
            self.latency.p50() as f64 / 1e6,
            self.latency.p99() as f64 / 1e6,
            self.utilization() * 100.0
        )
    }

    /// Renders the pool's own timeline as a Chrome trace-event document:
    /// one track per worker, an `op` span per job (payload = submission
    /// index) and a `job-claim` instant at each claim. Timestamps are
    /// wall nanoseconds since the pool started, so unlike the simulator
    /// exports this document is *not* byte-stable across runs — it is a
    /// utilization diagnostic, not an artifact.
    pub fn utilization_trace(&self, label: &str) -> String {
        let per_worker = self
            .spans
            .iter()
            .fold(vec![0usize; self.jobs.max(1)], |mut acc, s| {
                acc[s.worker] += 1;
                acc
            });
        let cap = per_worker.iter().copied().max().unwrap_or(0) * 2 + 4;
        let sink = ObsSink::new(cap);
        for worker in 0..self.jobs {
            let mut t = sink.thread(worker);
            for s in self.spans.iter().filter(|s| s.worker == worker) {
                t.instant(InstantKind::JobClaim, s.start_ns, s.index as u64);
                t.span(SpanKind::Op, s.start_ns, s.end_ns, s.index as u64);
            }
            sink.submit(t);
        }
        obs::export(&sink.take_logs(), None, "runner", label)
    }
}

/// Runs `tasks` across at most `jobs` worker threads and hands each
/// result to `consume` **in submission order** (`consume(0, ..)`, then
/// `consume(1, ..)`, ...), regardless of completion order.
///
/// With `jobs <= 1` the tasks run serially on the calling thread and are
/// consumed as they finish — the reference behaviour the parallel path
/// must be indistinguishable from. With more workers, results are parked
/// in submission-indexed slots and consumed after the pool drains.
///
/// A panicking job does not poison the merge: remaining workers finish
/// their claimed jobs, then the first worker's panic payload is resumed
/// on the caller, so the original failure is the one reported.
pub fn run_ordered<T, F>(jobs: usize, tasks: Vec<F>, mut consume: impl FnMut(usize, T)) -> JobReport
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let jobs = jobs.max(1).min(n.max(1));
    let t0 = Instant::now();
    let mut report = JobReport::new(jobs, n);

    if jobs <= 1 {
        for (index, task) in tasks.into_iter().enumerate() {
            let start_ns = t0.elapsed().as_nanos() as u64;
            let out = task();
            let end_ns = t0.elapsed().as_nanos() as u64;
            report.latency.record(end_ns - start_ns);
            report.spans.push(JobSpan {
                worker: 0,
                index,
                start_ns,
                end_ns,
            });
            consume(index, out);
        }
        report.total_wall_ns = t0.elapsed().as_nanos() as u64;
        return report;
    }

    // Slot-indexed hand-off: worker w claims submission index i from the
    // cursor, runs it, and parks the result in slots[i].
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);

    let joined: Vec<std::thread::Result<(Histogram, Vec<JobSpan>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let (slots, tasks, cursor, t0) = (&slots, &tasks, &cursor, &t0);
                scope.spawn(move || {
                    let mut latency = Histogram::new();
                    let mut spans = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let task = tasks[index]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                            .expect("job claimed twice");
                        let start_ns = t0.elapsed().as_nanos() as u64;
                        let out = task();
                        let end_ns = t0.elapsed().as_nanos() as u64;
                        latency.record(end_ns - start_ns);
                        spans.push(JobSpan {
                            worker,
                            index,
                            start_ns,
                            end_ns,
                        });
                        *slots[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    }
                    (latency, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut first_panic = None;
    for r in joined {
        match r {
            Ok((latency, spans)) => {
                report.latency.merge(&latency);
                report.spans.extend(spans);
            }
            Err(payload) => {
                let _ = first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    report.spans.sort_by_key(|s| s.index);
    report.total_wall_ns = t0.elapsed().as_nanos() as u64;

    // The deterministic merge: submission order, not completion order.
    for (index, slot) in slots.into_iter().enumerate() {
        let out = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("drained pool left an empty slot");
        consume(index, out);
    }
    report
}

/// [`run_ordered`] collecting the results into a `Vec` (submission
/// order).
pub fn run_all<T, F>(jobs: usize, tasks: Vec<F>) -> (Vec<T>, JobReport)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let mut out = Vec::with_capacity(tasks.len());
    let report = run_ordered(jobs, tasks, |_, r| out.push(r));
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Later submissions sleep less, so under any worker count > 1 they
    /// *complete* first — the merge must still consume in submission
    /// order.
    #[test]
    fn merge_is_submission_order_not_completion_order() {
        let n = 12usize;
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(2 * (n - i) as u64));
                    i * 10
                }
            })
            .collect();
        let mut seen = Vec::new();
        let report = run_ordered(4, tasks, |i, v| seen.push((i, v)));
        assert_eq!(seen, (0..n).map(|i| (i, i * 10)).collect::<Vec<_>>());
        assert_eq!(report.tasks, n);
        assert_eq!(report.jobs, 4);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || (0..40usize).map(|i| move || i * i + 1).collect::<Vec<_>>();
        let (serial, r1) = run_all(1, mk());
        let (parallel, r8) = run_all(8, mk());
        assert_eq!(serial, parallel);
        assert_eq!(r1.latency.count(), 40);
        assert_eq!(r8.latency.count(), 40);
        // Every submission index appears exactly once in the spans.
        let mut idx: Vec<usize> = r8.spans.iter().map(|s| s.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_is_clamped_to_task_count() {
        let (out, report) = run_all(64, vec![|| 7u32, || 8u32]);
        assert_eq!(out, vec![7, 8]);
        assert_eq!(report.jobs, 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let tasks: Vec<fn() -> u32> = Vec::new();
        let (out, report) = run_all(8, tasks);
        assert!(out.is_empty());
        assert_eq!(report.tasks, 0);
        assert_eq!(report.latency.count(), 0);
        assert_eq!(report.utilization(), 0.0);
    }

    #[test]
    fn job_panic_resurfaces_with_its_original_payload() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job 1 exploded")),
            Box::new(|| 3),
        ];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_all(3, tasks)))
            .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job 1 exploded"), "got panic payload {msg:?}");
    }

    #[test]
    fn utilization_trace_validates_and_has_one_track_per_worker() {
        let tasks: Vec<_> = (0..6)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(1));
                    i
                }
            })
            .collect();
        let (_, report) = run_all(2, tasks);
        let json = report.utilization_trace("runner unit test");
        let sum = obs::validate(&json).expect("utilization trace must validate");
        assert_eq!(sum.spans, 6, "one op span per job: {sum:?}");
        assert!(sum.names.contains("job-claim"));
        assert!(sum.tracks.len() <= 2, "at most one track per worker");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
