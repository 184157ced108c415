//! The paper's benchmark workloads (§6.1), runnable on **any**
//! [`harness::Backend`] — the coherence simulator (the figures) or
//! native atomics (wall-clock sanity series).
//!
//! On the simulator, threads are "pinned" by the machine topology:
//! program *i* runs on core *i*. For single-socket experiments all
//! threads share socket 0; the mixed workload uses a dual-socket machine
//! with producers on socket 0 and consumers on socket 1, matching the
//! paper's placement rule that all TxCASs of a location run on one
//! processor (§4.3). On native the OS schedules threads freely and the
//! machine config only sizes the run.

use absmem::ThreadCtx;
use coherence::MachineConfig;
use harness::{
    Backend, BackendKind, BackendReport, Job, NativeBackend, QueueAdapter, QueueKind, QueueParams,
    QueueVisitor, SimBackend, Substrate,
};
use obs::{Histogram, InstantKind, ObsSink, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Which of the paper's workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Figure 5: producers fill an initially empty queue.
    ProducerOnly,
    /// Figure 6: consumers drain a queue pre-filled (concurrently, so
    /// baskets carry realistic occupancy) with enough elements.
    ConsumerOnly,
    /// Figure 7: producers and consumers run simultaneously on separate
    /// sockets over a pre-filled queue.
    Mixed,
}

/// One workload specification.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: WorkloadKind,
    pub producers: usize,
    pub consumers: usize,
    /// Measured operations per thread.
    pub ops_per_thread: u64,
    /// Pre-fill per producer (consumer-only / mixed phases).
    pub prefill_per_producer: u64,
    /// Simulated machine (topology doubles as the thread-count source on
    /// native, where only the sizes matter).
    pub machine: MachineConfig,
    pub qp: QueueParams,
}

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub queue: &'static str,
    pub threads: usize,
    /// Mean latency of the measured operations, ns/op.
    pub latency_ns: f64,
    /// Aggregate throughput over the measured phase, Mop/s.
    pub throughput_mops: f64,
    /// Wall (simulated or host) duration of the measured phase divided by
    /// total measured ops, ns/op — the paper's Figure 7 metric.
    pub duration_ns_per_op: f64,
    /// HTM commits/aborts observed in the whole run (SBQ-HTM on the
    /// simulator only; zero on native).
    pub tx_commits: u64,
    pub tx_aborts: u64,
    /// Aborts caused by an interrupt/preemption component (zero on
    /// native and in component-free simulator configs).
    pub tx_aborts_interrupt: u64,
    pub tripped_writers: u64,
    /// Per-op latency distribution of the measured phase, ns: median,
    /// tail, and exact worst case from the merged per-thread histograms
    /// (mean alone hides the tail the paper's contention effects live in).
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub max_ns: f64,
    /// Interconnect hops that stayed on one socket vs. crossed sockets
    /// (simulator only; zero on native). `dir_hops_cross` is the
    /// directory-leg share of the cross count — the traffic the
    /// home-socket policy can move.
    pub hops_intra: u64,
    pub hops_cross: u64,
    pub dir_hops_cross: u64,
}

struct ThreadOut {
    /// (sum of op latencies, op count) for the measured phase.
    lat_sum: u64,
    ops: u64,
    /// Measured-phase start and end local times.
    start: u64,
    end: u64,
    /// Per-op latencies of the measured phase, cycles.
    hist: Histogram,
}

/// One closed-loop run of `w` with queue type `Q` on `backend`,
/// optionally emitting typed spans into `obs`. Span recording reuses the
/// `ctx.now()` reads the latency accounting already performs, so
/// attaching a sink cannot perturb simulated timing. Both clocks tick in
/// cycles at the nominal 2.2 GHz (simulated cycles vs. wall-clock-derived),
/// so the ns conversions hold on either backend.
struct ClosedLoop<'a, B> {
    backend: &'a mut B,
    w: &'a Workload,
    obs: Option<&'a Arc<ObsSink>>,
}

impl<B> QueueVisitor<B::Ctx> for ClosedLoop<'_, B>
where
    B: Backend,
    B::Ctx: Substrate,
{
    type Out = (Measurement, BackendReport);

    fn visit<Q: QueueAdapter<B::Ctx> + 'static>(self) -> (Measurement, BackendReport) {
        let w = self.w;
        let base = Arc::new(AtomicU64::new(0));
        let outs: Arc<Mutex<Vec<ThreadOut>>> = Arc::new(Mutex::new(Vec::new()));
        let nthreads = w.producers + w.consumers;

        let mut programs: Vec<Job<B::Ctx>> = Vec::with_capacity(nthreads);
        for i in 0..nthreads {
            let is_producer = i < w.producers;
            let base = Arc::clone(&base);
            let outs = Arc::clone(&outs);
            let sink = self.obs.cloned();
            let w2 = w.clone();
            programs.push(Box::new(move |ctx: &mut B::Ctx| {
                let mut q = Q::attach(base.load(SeqCst), ctx, &w2.qp);
                let tid = ctx.thread_id() as u64;
                let mut tobs = sink.as_ref().map(|s| s.thread(tid as usize));
                let mut seq = 0u64;
                let mut next_val = || {
                    seq += 1;
                    (tid << 40) | seq
                };
                // Phase 1: pre-fill (producers only).
                if is_producer {
                    let prefill = match w2.kind {
                        WorkloadKind::ProducerOnly => 0,
                        _ => w2.prefill_per_producer,
                    };
                    for _ in 0..prefill {
                        let v = next_val();
                        let t0 = ctx.now();
                        q.enqueue(ctx, v);
                        if let Some(o) = &mut tobs {
                            o.span(SpanKind::Enqueue, t0, ctx.now(), v);
                        }
                    }
                }
                ctx.barrier();
                if let Some(o) = &mut tobs {
                    o.instant(InstantKind::Barrier, ctx.now(), 0);
                }
                // Phase 2: the measured operations.
                let start = ctx.now();
                let mut lat_sum = 0u64;
                let mut ops = 0u64;
                let mut hist = Histogram::new();
                match (w2.kind, is_producer) {
                    (WorkloadKind::ProducerOnly, true) | (WorkloadKind::Mixed, true) => {
                        for _ in 0..w2.ops_per_thread {
                            let v = next_val();
                            let t0 = ctx.now();
                            q.enqueue(ctx, v);
                            let t1 = ctx.now();
                            lat_sum += t1 - t0;
                            hist.record(t1 - t0);
                            ops += 1;
                            if let Some(o) = &mut tobs {
                                o.span(SpanKind::Enqueue, t0, t1, v);
                            }
                        }
                    }
                    (WorkloadKind::ConsumerOnly, _) | (WorkloadKind::Mixed, false) => {
                        let mut done = 0u64;
                        while done < w2.ops_per_thread {
                            let t0 = ctx.now();
                            let r = q.dequeue(ctx);
                            let t1 = ctx.now();
                            lat_sum += t1 - t0;
                            hist.record(t1 - t0);
                            ops += 1;
                            if let Some(o) = &mut tobs {
                                match r {
                                    Some(v) => o.span(SpanKind::Dequeue, t0, t1, v),
                                    None => o.span(SpanKind::DequeueEmpty, t0, t1, 0),
                                }
                            }
                            if r.is_some() {
                                done += 1;
                            }
                        }
                    }
                    (WorkloadKind::ProducerOnly, false) => unreachable!("no consumers here"),
                }
                let end = ctx.now();
                if let (Some(s), Some(o)) = (&sink, tobs.take()) {
                    s.submit(o);
                }
                outs.lock()
                    .expect("no program panics holding the outputs")
                    .push(ThreadOut {
                        lat_sum,
                        ops,
                        start,
                        end,
                        hist,
                    });
            }));
        }

        let b2 = Arc::clone(&base);
        let qp = w.qp;
        let report = self.backend.run(
            Box::new(move |ctx| {
                let addr = Q::create(ctx, &qp);
                b2.store(addr, SeqCst);
            }),
            programs,
        );

        let outs = outs.lock().expect("the run ended without a panic");
        let total_ops: u64 = outs.iter().map(|o| o.ops).sum();
        let lat_sum: u64 = outs.iter().map(|o| o.lat_sum).sum();
        let t_start = outs.iter().map(|o| o.start).min().unwrap();
        let t_end = outs.iter().map(|o| o.end).max().unwrap();
        let duration = (t_end - t_start).max(1);
        let mut hist = Histogram::new();
        for o in outs.iter() {
            hist.merge(&o.hist);
        }
        let sim = |f: fn(&coherence::Stats) -> u64| report.sim.as_ref().map_or(0, |r| f(&r.stats));
        let m = Measurement {
            queue: Q::NAME,
            threads: nthreads,
            latency_ns: coherence::cycles_to_ns(lat_sum) / total_ops as f64,
            throughput_mops: total_ops as f64 / coherence::cycles_to_ns(duration) * 1e3,
            duration_ns_per_op: coherence::cycles_to_ns(duration) / total_ops as f64,
            tx_commits: report.tx_commits(),
            tx_aborts: report.tx_aborts(),
            tx_aborts_interrupt: sim(|s| s.tx_aborts_interrupt),
            tripped_writers: report.tripped_writers(),
            p50_ns: coherence::cycles_to_ns(hist.p50()),
            p99_ns: coherence::cycles_to_ns(hist.p99()),
            max_ns: coherence::cycles_to_ns(hist.max()),
            hops_intra: sim(|s| s.hops_intra),
            hops_cross: sim(|s| s.hops_cross),
            dir_hops_cross: sim(|s| s.dir_hops_cross),
        };
        (m, report)
    }
}

/// Runs `w` with queue `kind` on `backend` — the one dispatch over both.
/// With a sink attached, the simulator also records its coherence/HTM
/// trace.
fn drive(
    kind: QueueKind,
    w: &Workload,
    backend: BackendKind,
    obs: Option<&Arc<ObsSink>>,
) -> (Measurement, BackendReport) {
    match backend {
        BackendKind::Sim => {
            assert!(
                w.producers + w.consumers <= w.machine.cores,
                "workload exceeds machine cores"
            );
            let mut cfg = w.machine.clone();
            cfg.trace |= obs.is_some();
            let backend = &mut SimBackend::new(cfg);
            kind.visit::<coherence::SimCtx, _>(ClosedLoop { backend, w, obs })
        }
        BackendKind::Native => {
            let backend = &mut NativeBackend;
            kind.visit::<absmem::native::NativeCtx, _>(ClosedLoop { backend, w, obs })
        }
    }
}

/// Runs `w` with queue `kind` on `backend` and returns the data point:
/// simulated time on the simulator (the figures), wall-clock time on
/// native atomics (real OS threads).
pub fn run_workload(kind: QueueKind, w: &Workload, backend: BackendKind) -> Measurement {
    drive(kind, w, backend, None).0
}

/// One traced run: the data point plus the Chrome trace-event JSON
/// document covering it.
#[derive(Debug)]
pub struct TracedRun {
    pub measurement: Measurement,
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// The same spans as TSV (`tid name ts dur arg`).
    pub tsv: String,
}

/// Runs `w` once with observability attached and exports the run as a
/// Chrome trace. On the simulator the machine's coherence/HTM trace is
/// switched on and bridged onto the Dir track, and the document is a
/// pure function of the workload (byte-identical across runs); on native
/// only the per-thread op spans exist and timings are wall-clock.
pub fn trace_workload(kind: QueueKind, w: &Workload, backend: BackendKind) -> TracedRun {
    let sink = Arc::new(ObsSink::default());
    let (measurement, report) = drive(kind, w, backend, Some(&sink));
    let logs = sink.take_logs();
    let label = format!(
        "{} {:?} {}p+{}c",
        measurement.queue, w.kind, w.producers, w.consumers
    );
    TracedRun {
        chrome_json: obs::export(&logs, report.sim.as_ref(), backend.name(), &label),
        tsv: obs::export_tsv(&logs),
        measurement,
    }
}

/// Builds the workload for one paper figure data point.
pub fn paper_workload(kind: WorkloadKind, threads: usize, ops_per_thread: u64) -> Workload {
    match kind {
        WorkloadKind::ProducerOnly => Workload {
            kind,
            producers: threads,
            consumers: 0,
            ops_per_thread,
            prefill_per_producer: 0,
            machine: tuned(MachineConfig::single_socket(threads)),
            qp: QueueParams {
                max_threads: threads,
                enqueuers: threads,
                // The paper fixes B = 44 (the machine width); growing the
                // machine grows the basket with it.
                basket_capacity: threads.max(44),
                ..Default::default()
            },
        },
        WorkloadKind::ConsumerOnly => Workload {
            kind,
            producers: threads, // every thread pre-fills, then consumes
            consumers: 0,
            ops_per_thread,
            // Enough that the queue never empties during measurement.
            prefill_per_producer: ops_per_thread + 8,
            machine: tuned(MachineConfig::single_socket(threads)),
            qp: QueueParams {
                max_threads: threads,
                enqueuers: threads,
                basket_capacity: threads.max(44),
                ..Default::default()
            },
        },
        WorkloadKind::Mixed => {
            // Half producers (socket 0), half consumers (socket 1).
            let producers = threads / 2;
            let consumers = threads - producers;
            // The paper's Figure 7 fixes the *total* work (4M enqueues +
            // 4M dequeues) regardless of thread count, so its normalized
            // duration grows when added threads only add contention.
            // Mirror that: `ops_per_thread` is interpreted as the total
            // per-side budget at the reference width of 44 threads.
            let total_per_side = ops_per_thread * 22;
            let ops_per_thread = (total_per_side / producers.max(1) as u64).max(8);
            Workload {
                kind,
                producers,
                consumers,
                ops_per_thread,
                prefill_per_producer: ops_per_thread / 2 + 8,
                machine: tuned(MachineConfig::dual_socket(producers.max(consumers))),
                qp: QueueParams {
                    max_threads: threads,
                    enqueuers: producers.max(1),
                    // Cell index = thread id, so capacity must cover every
                    // attached thread even though only producers insert.
                    basket_capacity: threads.max(44),
                    ..Default::default()
                },
            }
        }
    }
}

fn tuned(mut m: MachineConfig) -> MachineConfig {
    m.check_invariants = false;
    m
}

/// The NUMA scenario family: how threads, directory homes, and hop
/// latencies are arranged on a multi-socket machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumaShape {
    /// Producers only, first-touch homes: every thread's baskets and
    /// queue lines home on its own socket, so directory legs stay
    /// socket-local even on a 4-socket machine.
    SocketLocal,
    /// Producers on the low sockets, consumers on the high ones, homes
    /// hash-interleaved — the paper's §4.3 placement stressed across
    /// the interconnect.
    CrossSplit,
    /// [`NumaShape::CrossSplit`] with the cross-socket hop priced 4×
    /// the default (440 vs. 110 cycles): an asymmetric fabric where
    /// remote directory legs dominate.
    SkewedHops,
}

impl NumaShape {
    pub const ALL: [NumaShape; 3] = [
        NumaShape::SocketLocal,
        NumaShape::CrossSplit,
        NumaShape::SkewedHops,
    ];

    pub fn name(self) -> &'static str {
        match self {
            NumaShape::SocketLocal => "socket-local",
            NumaShape::CrossSplit => "cross-split",
            NumaShape::SkewedHops => "skewed-hops",
        }
    }

    pub fn parse(s: &str) -> Option<NumaShape> {
        NumaShape::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Builds one NUMA scenario data point: `threads` spread evenly over
/// `sockets` sockets (44 per socket at paper scale: 88 = dual, 176 =
/// quad). Unlike [`paper_workload`]'s fixed dual-socket mixed shape,
/// these scenarios vary the home policy and fabric pricing, and the
/// measurement's hop counters say where the directory traffic went.
pub fn numa_workload(
    shape: NumaShape,
    sockets: usize,
    threads: usize,
    ops_per_thread: u64,
) -> Workload {
    let sockets = sockets.max(1);
    let (kind, producers, consumers, prefill) = match shape {
        NumaShape::SocketLocal => (WorkloadKind::ProducerOnly, threads.max(1), 0, 0),
        NumaShape::CrossSplit | NumaShape::SkewedHops => {
            // Equal producer/consumer halves (odd counts round down) so
            // supply always covers consumer demand. Threads are pinned
            // core i = program i, so the producer half fills the low
            // sockets and the consumer half the high ones.
            let pairs = (threads / 2).max(1);
            (WorkloadKind::Mixed, pairs, pairs, ops_per_thread / 2 + 8)
        }
    };
    let nthreads = producers + consumers;
    let per_socket = nthreads.div_ceil(sockets).max(1);
    let mut machine = tuned(MachineConfig::multi_socket(sockets, per_socket));
    match shape {
        NumaShape::SocketLocal => machine.home_policy = coherence::HomePolicy::FirstTouch,
        NumaShape::CrossSplit => machine.home_policy = coherence::HomePolicy::Interleave,
        NumaShape::SkewedHops => {
            machine.home_policy = coherence::HomePolicy::Interleave;
            machine.hop_cross *= 4;
        }
    }
    Workload {
        kind,
        producers,
        consumers,
        ops_per_thread,
        prefill_per_producer: prefill,
        machine,
        qp: QueueParams {
            max_threads: nthreads,
            enqueuers: producers,
            basket_capacity: nthreads.max(44),
            ..Default::default()
        },
    }
}
