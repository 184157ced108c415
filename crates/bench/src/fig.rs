//! Figure drivers: each regenerates one table/figure of the paper as TSV
//! (see DESIGN.md §4 for the experiment index).
//!
//! [`Figure`] is the registry: one variant per figure, its default
//! scale, and [`Figure::text`], which renders it from explicit scale
//! knobs plus a `jobs` worker count; [`all_text`] concatenates every
//! figure. `simctl fig` is the command-line face. Each sweep point is
//! one independent simulation, so a figure fans its points across a
//! [`runner`] job pool and joins the rows in submission order — the
//! output is byte-identical for any `jobs` value (the equivalence suite
//! in `tests/figures_jobs.rs` pins this).

use crate::workload::{
    numa_workload, paper_workload, run_workload, Measurement, NumaShape, WorkloadKind,
};
use absmem::ThreadCtx;
use coherence::{cycles_to_ns, Machine, MachineConfig, Program, SimCtx, TraceEvent};
use harness::QueueKind;
use sbq::txcas::{txn_cas, TxCasParams, TxCasStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Default thread sweep for single-socket figures (1–44 hardware threads,
/// matching the paper's x-axis).
const SWEEP: &[usize] = &[1, 2, 4, 8, 12, 16, 22, 28, 36, 44];

/// Every figure of the evaluation, in the order [`all_text`] renders
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    Fig1,
    Fig2,
    Fig3,
    Fig5,
    Fig6,
    Fig7,
    Speedups,
    AblateDelay,
    AblateFix,
    AblateBasket,
    AblateDeq,
    Numa,
}

impl Figure {
    pub const ALL: [Figure; 12] = [
        Figure::Fig1,
        Figure::Fig2,
        Figure::Fig3,
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Speedups,
        Figure::AblateDelay,
        Figure::AblateFix,
        Figure::AblateBasket,
        Figure::AblateDeq,
        Figure::Numa,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig1 => "fig1",
            Figure::Fig2 => "fig2",
            Figure::Fig3 => "fig3",
            Figure::Fig5 => "fig5",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
            Figure::Speedups => "speedups",
            Figure::AblateDelay => "ablate-delay",
            Figure::AblateFix => "ablate-fix",
            Figure::AblateBasket => "ablate-basket",
            Figure::AblateDeq => "ablate-deq",
            Figure::Numa => "numa",
        }
    }

    pub fn parse(s: &str) -> Option<Figure> {
        Figure::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Measured operations per thread by default, or `None` for the
    /// fixed-size trace reproductions (fig2, fig3).
    pub fn default_ops(self) -> Option<u64> {
        match self {
            Figure::Fig2 | Figure::Fig3 => None,
            Figure::Fig1 => Some(300),
            Figure::AblateFix | Figure::AblateDeq => Some(150),
            Figure::Numa => Some(120),
            _ => Some(200),
        }
    }

    /// The thread sweep by default, or `None` when the figure's machine
    /// sizes are fixed. Speedups, ablate-delay and ablate-basket run at
    /// one width: the sweep's last entry.
    pub fn default_threads(self) -> Option<&'static [usize]> {
        match self {
            Figure::Fig1 | Figure::Fig5 | Figure::Fig6 | Figure::Fig7 | Figure::Speedups => {
                Some(SWEEP)
            }
            Figure::AblateDelay => Some(&[22]),
            Figure::AblateBasket => Some(&[16]),
            Figure::AblateDeq => Some(&[2, 8, 16, 32, 44]),
            Figure::Fig2 | Figure::Fig3 | Figure::AblateFix | Figure::Numa => None,
        }
    }

    /// Renders the figure as TSV. A `None` knob takes the figure's
    /// default (`grid`: [`NUMA_GRID`]); knobs the figure does not use are
    /// ignored. A given `threads` list must be non-empty.
    pub fn text(
        self,
        ops: Option<u64>,
        threads: Option<&[usize]>,
        grid: Option<&[(usize, usize)]>,
        jobs: usize,
    ) -> String {
        let ops = ops.or(self.default_ops()).unwrap_or(0);
        let threads = threads.or(self.default_threads()).unwrap_or(&[]);
        let top = threads.last().copied().unwrap_or(0);
        match self {
            Figure::Fig1 => fig1_text(ops, threads, jobs),
            Figure::Fig2 => fig2_text(jobs),
            Figure::Fig3 => fig3_text(jobs),
            Figure::Fig5 => queue_figure_text(
                WorkloadKind::ProducerOnly,
                "# Figure 5: enqueue-only — latency[ns/op]/throughput[Mop/s] per queue",
                |m| vec![m.latency_ns, m.throughput_mops],
                ops,
                threads,
                jobs,
            ),
            Figure::Fig6 => queue_figure_text(
                WorkloadKind::ConsumerOnly,
                "# Figure 6: dequeue-only — latency[ns/op] per queue",
                |m| vec![m.latency_ns],
                ops,
                threads,
                jobs,
            ),
            Figure::Fig7 => queue_figure_text(
                WorkloadKind::Mixed,
                "# Figure 7: mixed producers(socket0)/consumers(socket1) — duration[ns/op]",
                |m| vec![m.duration_ns_per_op],
                ops,
                threads,
                jobs,
            ),
            Figure::Speedups => speedups_text(ops, top, jobs),
            Figure::AblateDelay => ablate_delay_text(ops, top, jobs),
            Figure::AblateFix => ablate_fix_text(ops, jobs),
            Figure::AblateBasket => ablate_basket_text(ops, top, jobs),
            Figure::AblateDeq => ablate_deq_text(ops, threads, jobs),
            Figure::Numa => fig_numa_text(ops, grid.unwrap_or(NUMA_GRID), jobs),
        }
    }
}

/// Every figure in [`Figure::ALL`] order with the same knobs: the full
/// evaluation. A blank line separates the figures, except after fig2
/// and fig3, whose trace tables already end in one.
pub fn all_text(
    ops: Option<u64>,
    threads: Option<&[usize]>,
    grid: Option<&[(usize, usize)]>,
    jobs: usize,
) -> String {
    let mut s = String::new();
    for (i, fig) in Figure::ALL.into_iter().enumerate() {
        s.push_str(&fig.text(ops, threads, grid, jobs));
        if i + 1 < Figure::ALL.len() && !matches!(fig, Figure::Fig2 | Figure::Fig3) {
            s.push('\n');
        }
    }
    s
}

fn header_row(cols: &[&str]) -> String {
    format!("{}\n", cols.join("\t"))
}

/// Runs one row-producing task per sweep point and joins the rows in
/// submission order.
fn sweep_rows<F>(jobs: usize, tasks: Vec<F>) -> String
where
    F: FnOnce() -> String + Send,
{
    let (rows, _) = runner::run_all(jobs, tasks);
    rows.concat()
}

// ---------------------------------------------------------------------
// Figure 1: TxCAS vs FAA latency
// ---------------------------------------------------------------------

/// One Figure-1 data point: every thread hammers one shared word.
fn fig1_point(threads: usize, ops: u64, use_txcas: bool, params: TxCasParams) -> (f64, TxCasStats) {
    let (ns, stats, _) = fig1_point_on(
        MachineConfig::single_socket(threads),
        ops,
        use_txcas,
        params,
    );
    (ns, stats)
}

/// [`fig1_point`] on an explicit machine (the NUMA sweeps pass
/// multi-socket topologies), additionally returning the run's
/// (intra, cross) interconnect hop counts.
fn fig1_point_on(
    mut cfg: MachineConfig,
    ops: u64,
    use_txcas: bool,
    params: TxCasParams,
) -> (f64, TxCasStats, (u64, u64)) {
    let threads = cfg.cores;
    cfg.check_invariants = false;
    let shared = Arc::new(AtomicU64::new(0));
    let lat: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let stats_all: Arc<Mutex<TxCasStats>> = Arc::new(Mutex::new(TxCasStats::default()));
    let programs: Vec<Program> = (0..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let lat = Arc::clone(&lat);
            let stats_all = Arc::clone(&stats_all);
            Box::new(move |ctx: &mut SimCtx| {
                let a = shared.load(SeqCst);
                ctx.barrier();
                let mut stats = TxCasStats::default();
                let t0 = ctx.now();
                if use_txcas {
                    for _ in 0..ops {
                        let old = ctx.read(a);
                        txn_cas(ctx, &params, a, old, old + 1, &mut stats);
                    }
                } else {
                    for _ in 0..ops {
                        ctx.faa(a, 1);
                    }
                }
                lat.lock().unwrap().push((ctx.now() - t0, ops));
                let mut s = stats_all.lock().unwrap();
                s.success += stats.success;
                s.fail_self_abort += stats.fail_self_abort;
                s.fail_post_abort += stats.fail_post_abort;
                s.retries += stats.retries;
                s.fallbacks += stats.fallbacks;
            }) as Program
        })
        .collect();
    let s2 = Arc::clone(&shared);
    let report = Machine::new(cfg).run(
        Box::new(move |ctx| {
            let a = ctx.alloc(1);
            ctx.write(a, 0);
            s2.store(a, SeqCst);
        }),
        programs,
    );
    let lat = lat.lock().unwrap();
    let total_cycles: u64 = lat.iter().map(|(c, _)| c).sum();
    let total_ops: u64 = lat.iter().map(|(_, o)| o).sum();
    let ns = cycles_to_ns(total_cycles) / total_ops as f64;
    let stats = stats_all.lock().unwrap().clone();
    (
        ns,
        stats,
        (report.stats.hops_intra, report.stats.hops_cross),
    )
}

/// Figure 1 as TSV: TxCAS vs standard FAA latency as contention grows.
/// One job per thread count.
fn fig1_text(ops: u64, threads: &[usize], jobs: usize) -> String {
    let mut s = String::from("# Figure 1: operation latency [ns/op] vs concurrent threads\n");
    s.push_str(&header_row(&["threads", "FAA", "TxCAS"]));
    let tasks: Vec<_> = threads
        .iter()
        .map(|&t| {
            move || {
                let (faa, _) = fig1_point(t, ops, false, TxCasParams::default());
                let (tx, _) = fig1_point(t, ops, true, TxCasParams::default());
                format!("{t}\t{faa:.1}\t{tx:.1}\n")
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

// ---------------------------------------------------------------------
// Figures 2 & 3: coherence message dynamics (trace reproductions)
// ---------------------------------------------------------------------

fn trace_rows(trace: &[TraceEvent], from: u64, limit: usize) -> String {
    let mut s = header_row(&["t_sent", "t_recv", "src", "dst", "msg", "line/detail"]);
    let mut n = 0;
    for e in trace {
        match e {
            TraceEvent::Msg {
                sent,
                recv,
                src,
                dst,
                kind,
                line,
            } if *sent >= from => {
                let _ = writeln!(s, "{sent}\t{recv}\t{src}\t{dst}\t{kind}\t{line:#x}");
                n += 1;
            }
            TraceEvent::Tx {
                time,
                core,
                what,
                detail,
            } if *time >= from => {
                let _ = writeln!(s, "{time}\t-\tC{core}\t-\t[{what}]\t{detail:#x}");
                n += 1;
            }
            _ => {}
        }
        if n >= limit {
            s.push_str("... (truncated)\n");
            break;
        }
    }
    s
}

/// Figure 2 as TSV: message dynamics of contended standard CAS (2a) vs
/// HTM-based CAS (2b), three cores. One job per variant.
fn fig2_text(jobs: usize) -> String {
    let tasks: Vec<_> = [false, true]
        .into_iter()
        .map(|htm| {
            move || {
                let mut cfg = MachineConfig::single_socket(3);
                cfg.trace = true;
                let shared = Arc::new(AtomicU64::new(0));
                let programs: Vec<Program> = (0..3)
                    .map(|i| {
                        let shared = Arc::clone(&shared);
                        Box::new(move |ctx: &mut SimCtx| {
                            let a = shared.load(SeqCst);
                            // All cores read first (line Shared everywhere)...
                            let old = ctx.read(a);
                            ctx.barrier();
                            // ...then CAS simultaneously.
                            if htm {
                                let mut st = TxCasStats::default();
                                let p = TxCasParams {
                                    intra_delay: 40,
                                    ..Default::default()
                                };
                                txn_cas(ctx, &p, a, old, i as u64 + 1, &mut st);
                            } else {
                                ctx.cas(a, old, i as u64 + 1);
                            }
                        }) as Program
                    })
                    .collect();
                let s2 = Arc::clone(&shared);
                let report = Machine::new(cfg).run(
                    Box::new(move |ctx| {
                        let a = ctx.alloc(1);
                        ctx.write(a, 0);
                        s2.store(a, SeqCst);
                    }),
                    programs,
                );
                let mut s = String::new();
                let _ = writeln!(
                    s,
                    "# Figure 2{}: {} — contended CAS x3 cores",
                    if htm { 'b' } else { 'a' },
                    if htm {
                        "HTM-based CAS: failures are not serialized"
                    } else {
                        "standard CAS: all operations serialized"
                    }
                );
                // Skip the setup/warm-up traffic: find the barrier moment
                // by the last initial read.
                s.push_str(&trace_rows(&report.trace, 0, 60));
                let _ = writeln!(
                    s,
                    "# commits={} conflict_aborts={}",
                    report.stats.tx_commits, report.stats.tx_aborts_conflict
                );
                s.push_str("# swim lanes:\n");
                s.push_str(&obs::trace_render::render_lanes(
                    &report.trace,
                    &["Dir", "C0", "C1", "C2"],
                    40,
                ));
                s.push('\n');
                s
            }
        })
        .collect();
    sweep_rows(jobs, tasks)
}

/// Figure 3 as TSV: the tripped-writer race, with and without the §3.4.1
/// microarchitectural fix. One job per variant.
fn fig3_text(jobs: usize) -> String {
    let tasks: Vec<_> = [false, true]
        .into_iter()
        .map(|fix| {
            move || {
                let mut cfg = MachineConfig::dual_socket(3);
                cfg.trace = true;
                cfg.microarch_fix = fix;
                let shared = Arc::new(AtomicU64::new(0));
                let programs: Vec<Program> = (0..6)
                    .map(|i| {
                        let shared = Arc::clone(&shared);
                        Box::new(move |ctx: &mut SimCtx| {
                            let a = shared.load(SeqCst);
                            match i {
                                0 => {
                                    let old = ctx.read(a);
                                    ctx.barrier();
                                    let mut st = TxCasStats::default();
                                    let p = TxCasParams {
                                        intra_delay: 1,
                                        ..Default::default()
                                    };
                                    txn_cas(ctx, &p, a, old, 7, &mut st);
                                }
                                3 => {
                                    // Far-socket sharer: slow InvAck widens
                                    // the writer's vulnerable window.
                                    let _ = ctx.read(a);
                                    ctx.barrier();
                                    ctx.delay(4000);
                                }
                                1 | 2 => {
                                    ctx.barrier();
                                    ctx.delay(80 + 90 * i as u64);
                                    let _ = ctx.read(a); // the tripping read
                                }
                                _ => {
                                    ctx.barrier();
                                }
                            }
                        }) as Program
                    })
                    .collect();
                let s2 = Arc::clone(&shared);
                let report = Machine::new(cfg).run(
                    Box::new(move |ctx| {
                        let a = ctx.alloc(1);
                        ctx.write(a, 0);
                        s2.store(a, SeqCst);
                    }),
                    programs,
                );
                let mut s = String::new();
                let _ = writeln!(
                    s,
                    "# Figure 3: tripped writer ({}). tripped={} fix_stalls={} commits={}",
                    if fix { "with §3.4.1 fix" } else { "no fix" },
                    report.stats.tripped_writers,
                    report.stats.fix_stalls,
                    report.stats.tx_commits
                );
                s.push_str(&trace_rows(&report.trace, 0, 50));
                s.push('\n');
                s
            }
        })
        .collect();
    sweep_rows(jobs, tasks)
}

// ---------------------------------------------------------------------
// Figures 5–7: the queue benchmarks
// ---------------------------------------------------------------------

/// One queue figure as TSV: a row per thread count (doubled for the
/// mixed workload), a `metric` column per paper queue. One job per row.
fn queue_figure_text(
    kind: WorkloadKind,
    title: &str,
    metric: fn(&Measurement) -> Vec<f64>,
    ops: u64,
    threads: &[usize],
    jobs: usize,
) -> String {
    let mut s = format!("{title}\n");
    let queues = QueueKind::PAPER_SET;
    let mut cols = vec!["threads".to_string()];
    cols.extend(queues.iter().map(|q| q.name().to_string()));
    let _ = writeln!(s, "{}", cols.join("\t"));
    let tasks: Vec<_> = threads
        .iter()
        .map(|&t| {
            move || {
                let t = if kind == WorkloadKind::Mixed {
                    t * 2
                } else {
                    t
                };
                let mut row = vec![format!("{t}")];
                for q in queues {
                    let m = run_workload(q, &paper_workload(kind, t, ops));
                    row.push(
                        metric(&m)
                            .iter()
                            .map(|v| format!("{v:.1}"))
                            .collect::<Vec<_>>()
                            .join("/"),
                    );
                }
                format!("{}\n", row.join("\t"))
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

/// The headline comparison (§1, §6.2) as TSV: SBQ-HTM vs WF-Queue
/// throughput ratio on producer-only and mixed workloads at full
/// concurrency. One job per workload row.
fn speedups_text(ops: u64, t: usize, jobs: usize) -> String {
    let mut s = String::from("# Headline speedups (SBQ-HTM over WF-Queue)\n");
    s.push_str(&header_row(&[
        "workload", "threads", "sbq_thr", "wf_thr", "speedup",
    ]));
    let tasks: Vec<_> = [
        ("producer-only", WorkloadKind::ProducerOnly, t),
        ("mixed", WorkloadKind::Mixed, t * 2),
    ]
    .into_iter()
    .map(|(name, kind, threads)| {
        move || {
            let sbq = run_workload(QueueKind::SbqHtm, &paper_workload(kind, threads, ops));
            let wf = run_workload(QueueKind::WfQueue, &paper_workload(kind, threads, ops));
            // For the mixed workload the paper compares durations, so use
            // 1/duration as "throughput".
            let (sv, wv) = match kind {
                WorkloadKind::Mixed => (1.0 / sbq.duration_ns_per_op, 1.0 / wf.duration_ns_per_op),
                _ => (sbq.throughput_mops, wf.throughput_mops),
            };
            format!("{name}\t{threads}\t{sv:.3}\t{wv:.3}\t{:.2}x\n", sv / wv)
        }
    })
    .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

// ---------------------------------------------------------------------
// NUMA sweeps: 44/88/176 cores on 1–4 sockets
// ---------------------------------------------------------------------

/// The paper machine's widths: one socket of 44 hardware threads, the
/// dual-socket 88 it measures on, and a quad-socket 176 projection.
pub const NUMA_GRID: &[(usize, usize)] = &[(1, 44), (2, 88), (4, 176)];

/// Parses `spec` as a `sockets x threads` grid (e.g. `"1x44,2x88"`);
/// `None` when the spec is empty or any entry does not parse.
pub fn numa_grid(spec: &str) -> Option<Vec<(usize, usize)>> {
    spec.split(',')
        .map(|p| {
            let (s, t) = p.trim().split_once('x')?;
            Some((s.trim().parse().ok()?, t.trim().parse().ok()?))
        })
        .collect()
}

/// The NUMA figure as TSV — two tables over a `(sockets, threads)` grid:
///
/// * **sweep A** re-runs the Figure-1 crossover (raw FAA vs TxCAS on one
///   contended word) on multi-socket machines with hash-interleaved
///   directory homes, reporting each run's cross-socket hop count;
/// * **sweep B** runs the [`NumaShape`] scenarios, SBQ-HTM vs the
///   SBQ-CAS (FAA/CAS) baseline, with the hop split of the SBQ-HTM run.
///
/// One job per grid point per table, joined in submission order.
fn fig_numa_text(ops: u64, grid: &[(usize, usize)], jobs: usize) -> String {
    let mut s = String::from(
        "# NUMA sweep A: TxCAS vs FAA across sockets — latency[ns/op], cross-socket hops\n",
    );
    s.push_str(&header_row(&[
        "sockets",
        "threads",
        "FAA",
        "TxCAS",
        "faa_cross",
        "tx_cross",
    ]));
    let tasks: Vec<_> = grid
        .iter()
        .map(|&(sockets, threads)| {
            move || {
                let cfg = || {
                    let mut c =
                        MachineConfig::multi_socket(sockets, threads.div_ceil(sockets.max(1)));
                    c.cores = threads;
                    c
                };
                let (faa, _, (_, faa_cross)) =
                    fig1_point_on(cfg(), ops, false, TxCasParams::default());
                let (tx, _, (_, tx_cross)) =
                    fig1_point_on(cfg(), ops, true, TxCasParams::default());
                format!("{sockets}\t{threads}\t{faa:.1}\t{tx:.1}\t{faa_cross}\t{tx_cross}\n")
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s.push('\n');
    s.push_str(
        "# NUMA sweep B: scenarios — SBQ-HTM vs SBQ-CAS duration[ns/op], hop split (SBQ-HTM run)\n",
    );
    s.push_str(&header_row(&[
        "shape",
        "sockets",
        "threads",
        "sbq_htm",
        "sbq_cas",
        "intra",
        "cross",
        "dir_cross",
    ]));
    let tasks: Vec<_> = NumaShape::ALL
        .into_iter()
        .flat_map(|shape| {
            grid.iter()
                .map(move |&(sockets, threads)| (shape, sockets, threads))
        })
        .map(|(shape, sockets, threads)| {
            move || {
                let w = numa_workload(shape, sockets, threads, ops);
                let htm = run_workload(QueueKind::SbqHtm, &w);
                let cas = run_workload(QueueKind::SbqCas, &w);
                format!(
                    "{}\t{sockets}\t{}\t{:.1}\t{:.1}\t{}\t{}\t{}\n",
                    shape.name(),
                    htm.threads,
                    htm.duration_ns_per_op,
                    cas.duration_ns_per_op,
                    htm.hops_intra,
                    htm.hops_cross,
                    htm.dir_hops_cross,
                )
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// §4.1 ablation as TSV: the intra-transaction delay swept at high
/// contention. One job per delay value.
fn ablate_delay_text(ops: u64, t: usize, jobs: usize) -> String {
    let mut s = format!(
        "# Ablation: TxCAS intra-transaction delay at {t} threads (paper optimum ~600 cycles = 270ns)\n"
    );
    s.push_str(&header_row(&[
        "delay_cycles",
        "txcas_latency_ns",
        "retries_per_op",
    ]));
    let tasks: Vec<_> = [0u64, 75, 150, 300, 600, 1200, 2400]
        .into_iter()
        .map(|delay| {
            move || {
                let p = TxCasParams {
                    intra_delay: delay,
                    ..Default::default()
                };
                let (ns, st) = fig1_point(t, ops, true, p);
                let total = st.success + st.fail_self_abort + st.fail_post_abort + st.fallbacks;
                format!(
                    "{delay}\t{ns:.1}\t{:.3}\n",
                    st.retries as f64 / total.max(1) as f64
                )
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

/// §3.4.1 ablation as TSV: tripped writers across sockets, with and
/// without the fix. One job per fix variant.
fn ablate_fix_text(ops: u64, jobs: usize) -> String {
    let mut s =
        String::from("# Ablation: cross-socket TxCAS — tripped writers and the microarch fix\n");
    s.push_str(&header_row(&[
        "fix",
        "latency_ns",
        "tripped_writers",
        "retries_per_op",
    ]));
    let tasks: Vec<_> = [false, true]
        .into_iter()
        .map(|fix| {
            move || {
                let threads = 8;
                let mut cfg = MachineConfig::dual_socket(threads / 2);
                cfg.check_invariants = false;
                cfg.microarch_fix = fix;
                let shared = Arc::new(AtomicU64::new(0));
                let lat: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
                let stats: Arc<Mutex<TxCasStats>> = Arc::new(Mutex::new(TxCasStats::default()));
                let programs: Vec<Program> = (0..threads)
                    .map(|_| {
                        let shared = Arc::clone(&shared);
                        let lat = Arc::clone(&lat);
                        let stats = Arc::clone(&stats);
                        Box::new(move |ctx: &mut SimCtx| {
                            let a = shared.load(SeqCst);
                            ctx.barrier();
                            let mut st = TxCasStats::default();
                            let t0 = ctx.now();
                            for _ in 0..ops {
                                let old = ctx.read(a);
                                txn_cas(ctx, &TxCasParams::default(), a, old, old + 1, &mut st);
                            }
                            lat.lock().unwrap().push(ctx.now() - t0);
                            let mut s = stats.lock().unwrap();
                            s.retries += st.retries;
                            s.success += st.success;
                        }) as Program
                    })
                    .collect();
                let s2 = Arc::clone(&shared);
                let report = Machine::new(cfg).run(
                    Box::new(move |ctx| {
                        let a = ctx.alloc(1);
                        ctx.write(a, 0);
                        s2.store(a, SeqCst);
                    }),
                    programs,
                );
                let total: u64 = lat.lock().unwrap().iter().sum();
                let st = stats.lock().unwrap();
                format!(
                    "{fix}\t{:.1}\t{}\t{:.3}\n",
                    cycles_to_ns(total) / (ops * threads as u64) as f64,
                    report.stats.tripped_writers,
                    st.retries as f64 / (ops * threads as u64) as f64,
                )
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

/// §5.3.4 ablation as TSV: basket capacity B vs enqueue latency (O(B/T)
/// initialization). One job per capacity / thread-count point.
fn ablate_basket_text(ops: u64, t: usize, jobs: usize) -> String {
    // Axis 1: oversizing the basket at fixed threads. The algorithm gives
    // every enqueuer a private cell, so capacity < threads is structurally
    // unsupported — the sweep starts at the thread count.
    let mut s =
        format!("# Ablation: basket capacity vs SBQ-HTM enqueue latency at {t} threads (B >= T)\n");
    s.push_str(&header_row(&["capacity", "latency_ns", "throughput_mops"]));
    let tasks: Vec<_> = [t, t * 2, 44.max(t), 88.max(t), 176.max(t)]
        .into_iter()
        .map(|cap| {
            move || {
                let mut w = paper_workload(WorkloadKind::ProducerOnly, t, ops);
                w.qp.basket_capacity = cap;
                w.qp.enqueuers = t;
                let m = run_workload(QueueKind::SbqHtm, &w);
                format!("{cap}\t{:.1}\t{:.3}\n", m.latency_ns, m.throughput_mops)
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    // Axis 2: the §5.3.4 claim — with B fixed at the machine width (44),
    // amortized basket initialization is O(B/T), so enqueue latency falls
    // as threads grow.
    s.push_str("# Ablation: fixed B=44, latency vs enqueuer count (O(B/T) amortization)\n");
    s.push_str(&header_row(&["threads", "latency_ns"]));
    let tasks: Vec<_> = [2usize, 4, 8, 16, 32, 44]
        .into_iter()
        .map(|threads| {
            move || {
                let mut w = paper_workload(WorkloadKind::ProducerOnly, threads, ops);
                w.qp.basket_capacity = 44;
                w.qp.enqueuers = threads;
                let m = run_workload(QueueKind::SbqHtm, &w);
                format!("{threads}\t{:.1}\n", m.latency_ns)
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

/// §8 future work as TSV: the stock SBQ basket (FAA-ticketed
/// extraction) against the experimental striped basket on the
/// consumer-only workload, where the FAA is the bottleneck (§5.3.4).
/// One job per thread count.
fn ablate_deq_text(ops: u64, threads: &[usize], jobs: usize) -> String {
    use crate::workload::run_generic;
    use harness::{SbqHtmQ, SbqStripedQ};
    let mut s = String::from(
        "# Ablation (§8 future work): dequeue-side basket design, consumer-only workload\n",
    );
    s.push_str(&header_row(&[
        "threads",
        "SBQ-basket[ns/op]",
        "Striped-basket[ns/op]",
    ]));
    let tasks: Vec<_> = threads
        .iter()
        .map(|&t| {
            move || {
                let w = paper_workload(WorkloadKind::ConsumerOnly, t, ops);
                let a = run_generic::<SbqHtmQ<SimCtx>>(&w);
                let b = run_generic::<SbqStripedQ<SimCtx>>(&w);
                format!("{t}\t{:.1}\t{:.1}\n", a.latency_ns, b.latency_ns)
            }
        })
        .collect();
    s.push_str(&sweep_rows(jobs, tasks));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numa_grid_parses_every_entry_or_nothing() {
        assert_eq!(numa_grid("1x44, 2x88"), Some(vec![(1, 44), (2, 88)]));
        for bad in ["garbage", "2x", "", "2x88,junk"] {
            assert_eq!(numa_grid(bad), None, "{bad:?}");
        }
    }
}
