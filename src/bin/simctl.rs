//! simctl — the command line for every experiment in the workspace:
//! single workload points, figure regeneration, traces, fuzz campaigns,
//! load sweeps and component scenarios. Host-time benchmarking is the
//! separate `perfbench` crate.
//!
//! Every subcommand shares one grammar: a few positional arguments
//! followed by `key=value` pairs. A pair that is not `key=value`, a
//! repeated key, a key the subcommand does not take, a value that does
//! not parse, or a count too small to run (zero threads; a zero
//! `basket`, `sockets`, `rates` entry, figure `threads`/`grid` entry or
//! scenario `workers`/`ops`/`period`; a `mixed` run on fewer than two
//! threads) prints the usage text and exits 2.
//!
//! ```text
//! simctl <queue> <workload> <threads> [key=value ...]
//!
//! queues:    sbq-htm | sbq-cas | sbq-striped | bq | wf | cc | ms
//! workloads: producer | consumer | mixed
//! keys:      ops (per thread)        default 200
//!            backend (sim|native)    default sim
//!            delay (TxCAS intra, cy) default 600
//!            basket (capacity)       default max(44, threads)
//!            sockets (topology)      default from workload (1 or 2)
//!            any machine key         default from workload
//! ```
//!
//! The machine keys are [`coherence::MachineConfig`]'s fields by their
//! text-form names ([`coherence::MachineConfig::keys`], listed by
//! `simctl help`), e.g. `hop-intra=40`, `microarch-fix=1`,
//! `home-policy=first-touch` or `fast-path=0`; only `cores`,
//! `cores-per-socket` and `trace`, which simctl sets itself, are
//! rejected. Example: `simctl sbq-htm producer 44 ops=300 delay=900`
//!
//! `sockets=` reshapes the machine onto that many sockets (cores spread
//! evenly) and, unless `home-policy=` pins one, hash-interleaves the
//! directory homes across them; the output's `hops_intra`/`hops_cross`/
//! `dir_cross` columns say where the interconnect traffic went.
//! `simctl sbq-htm producer 176 sockets=4` is a paper-scale quad-socket
//! point.
//!
//! `backend=native` runs the workload on real OS threads and hardware
//! atomics, where the HTM counters read zero; it has no machine, so a
//! machine key or `sockets=` is an error.
//!
//! `simctl fig <name|all> [key=value ...]` regenerates one figure of the
//! paper's evaluation as TSV, or every figure in order with `all` (see
//! [`bench::fig::Figure`] for the names). Keys:
//!
//! ```text
//! ops      measured ops per thread            default per figure
//! threads  comma-separated thread sweep       default per figure
//! grid     sockets x threads list (numa)      default 1x44,2x88,4x176
//! jobs     sweep points in parallel; 0 = auto default 0
//! out      also write the TSV here (optional)
//! ```
//!
//! A figure takes only the keys it uses: the trace reproductions (fig2,
//! fig3) take neither `ops` nor `threads`, ablate-fix and numa take no
//! `threads`, and only numa takes `grid`. Speedups, ablate-delay and
//! ablate-basket run at one width, the last entry of `threads`. `all`
//! takes every key and hands each figure the ones it uses.
//!
//! `fig numa` emits two tables over the grid: the Figure-1 FAA-vs-TxCAS
//! crossover on multi-socket machines (with cross-socket hop counts per
//! run) and the NUMA scenario family (socket-local / cross-split /
//! skewed-hops), SBQ-HTM vs SBQ-CAS with the hop split. Every figure is
//! a pure function of the keys — byte-identical for any `jobs`.
//!
//! `simctl trace <queue> <workload> <threads> [key=value ...]` runs the
//! workload once with observability attached and writes a Chrome
//! trace-event JSON document (open in Perfetto or `chrome://tracing`).
//! It accepts every single-run key above plus:
//!
//! ```text
//! out      trace output path    default TRACE_<queue>_<backend>.json
//! tsv-out  also write the span TSV here (optional)
//! ```
//!
//! On the simulator the document additionally carries the coherence
//! message trace (a `Dir` track plus per-core message/HTM instants) and
//! is byte-identical across runs of the same configuration; on native
//! only the per-thread op spans exist. The document is validated against
//! the trace schema before it is written.
//!
//! `simctl trace-validate <file>` re-validates any such document and
//! prints a summary (exit 1 if invalid).
//!
//! `simctl fuzz [key=value ...]` runs a [`simfuzz`] campaign —
//! randomized workloads with fault injection, every history
//! linearizability-checked; failures are shrunk and written as
//! replayable artifacts. Keys:
//!
//! ```text
//! seeds         consecutive seeds to run     default 64
//! start         first seed                   default 0
//! queue         pin one queue (else rotate over all implementations)
//! backend       sim (default) or native; native runs each plan on
//!               real threads AND on the simulator, cross-checking
//!               linearizability and the drained dequeue multisets
//! artifacts     reproducer output directory  default fuzz-artifacts
//! jobs          worker threads for the seed pool; 0 = the host's
//!               available parallelism                 default 0
//! runner-trace  write the pool's utilization Chrome trace here
//! repro         replay one artifact instead of running a campaign
//! ```
//!
//! Seeds run as independent jobs on a [`runner`] pool and merge in seed
//! order, so the report, artifact files, and exit status are identical
//! for any `jobs` value — only the wall time changes.
//!
//! Exit status: campaigns exit 1 if any seed failed; `repro=` exits 1
//! if the artifact no longer reproduces its recorded violation kind.
//! Each shrunk failure also gets a `<artifact>.trace` Chrome trace of
//! the violating run, written beside the `.repro`.
//!
//! `simctl load <queue> [key=value ...]` runs an open-loop load sweep
//! (see [`loadgen`]): seeded arrivals flow through ingress → worker
//! pool → egress with both stage boundaries backed by the chosen queue,
//! one run per offered rate, and the saturation knee (first point whose
//! e2e p99 exceeds the SLO or whose ingress depth diverges) is
//! detected. The curve prints as TSV; `out=` also writes the
//! `sbq-loadgen-v1` JSON document. Keys:
//!
//! ```text
//! backend  sim (default) or native
//! pattern  poisson | bursty:ON:OFF | diurnal:LOW:HIGH:PERIOD   default poisson
//! rates    comma-separated offered rates, rps (one value probes one rate;
//!          default: auto ladder at capacity × 1/4..2)
//! requests total requests per point           default 256
//! sources / workers / egress   stage threads  default 1 / 2 / 1
//! service  mean service time, cycles          default 1500
//! jitter   per-request service jitter, %      default 0
//! poll     empty-poll back-off, cycles        default 200
//! seed     arrival/jitter seed                default 0x10ad
//! slo-p99  e2e p99 SLO, ns (0 disables)       default 0
//! depth-slo ingress depth budget (0 = auto requests/4, min 16)
//! jobs     rate points in parallel; 0 = auto  default 1
//! out      write the JSON document here (optional)
//! tsv-out  also write the TSV here (optional)
//! ```
//!
//! On the simulator the TSV/JSON output is a pure function of the plan:
//! byte-identical across repeats and across `jobs` values (neither job
//! count nor wall-clock time appears in the artifact). `simctl
//! load-check <file.json>` validates such a document: schema tag,
//! ordered percentiles per point, full completion, and a knee that
//! points at an actual probed rate (exit 1 on violation).
//!
//! `simctl scenario <preempt|timer|dma> [key=value ...]` runs one
//! component-actor scenario (see [`harness::scenario`]) on the
//! simulator: a periodic interrupt source preempting workers, a
//! timer-paced consumer, or a DMA-style bulk enqueuer on a divided
//! clock. The run records a linearizability-checked history and prints
//! a deterministic key=value summary — byte-identical across repeats of
//! the same spec, which is what the CI smoke job diffs. Exit 1 on a
//! linearizability violation. Keys:
//!
//! ```text
//! queue    queue under test                   default sbq-htm
//! workers  worker threads                     default 3
//! ops      ops per worker                     default 24
//! period   interrupt/tick period, cycles      default 1500
//! cost     interrupt handler cost (preempt)   default 150
//! batch    burst size (dma)                   default 4
//! divider  gate clock divider (dma)           default 2
//! seed     machine RNG seed                   default 1
//! out      write the summary here (optional)
//! trace-out  write a validated Chrome trace here (optional)
//! ```

use bench::fig::Figure;
use bench::workload::{paper_workload, run_workload, trace_workload, Workload, WorkloadKind};
use coherence::{HomePolicy, MachineConfig};
use harness::{run_scenario, ActorFamily, BackendKind, QueueKind, ScenarioSpec};
use loadgen::{ArrivalPattern, LoadPlan, SweepSpec};
use std::collections::BTreeMap;
use std::str::FromStr;

const HELP: &str = "simctl — run queue experiments from the command line

usage:
  simctl <queue> <workload> <threads> [key=value ...]
      one closed-loop workload point (queues: sbq-htm sbq-cas sbq-striped
      bq wf cc ms; workloads: producer consumer mixed; keys: ops backend
      delay basket sockets, and the machine keys below)
  simctl fig <name|all> [ops= threads= grid= jobs= out=]
      regenerate a figure as TSV (fig1 fig2 fig3 fig5 fig6 fig7 speedups
      ablate-delay ablate-fix ablate-basket ablate-deq numa, or all);
      `numa` sweeps a sockets x threads grid (default 1x44,2x88,4x176)
  simctl trace <queue> <workload> <threads> [key=value ...] [out=PATH] [tsv-out=PATH]
      one observed run exported as a Chrome trace-event JSON document
  simctl trace-validate <file.json>
      re-validate an exported trace document (exit 1 if invalid)
  simctl fuzz [seeds= start= queue= backend=sim|native artifacts= jobs= runner-trace= repro=]
      randomized linearizability fuzzing with shrinking + replay artifacts
  simctl load <queue> [key=value ...]
      open-loop load sweep with knee detection (keys: backend pattern
      rates requests sources workers egress service jitter poll seed
      slo-p99 depth-slo jobs out tsv-out)
  simctl load-check <file.json>
      validate an sbq-loadgen-v1 document (exit 1 if invalid)
  simctl scenario <preempt|timer|dma> [key=value ...]
      one component-actor scenario with a deterministic summary (keys:
      queue workers ops period cost batch divider seed out trace-out)
  simctl help | --help | -h
      this text

machine keys (MachineConfig's fields, for simulated runs and traces; flags
are 0/1, home-policy is fixed|interleave|first-touch):
  {machine-keys}

Arguments are positional first, then key=value pairs; a malformed,
repeated or unknown key, or a count too small to run (zero threads,
one `mixed` thread), exits 2. See the module docs in
src/bin/simctl.rs for every key's meaning.";

/// Machine keys the single-run grammar rejects: the thread count and
/// `sockets=` size the machine, and `simctl trace` always records the
/// message trace that a plain run never reads.
fn set_by_simctl(key: &str) -> bool {
    matches!(key, "cores" | "cores-per-socket" | "trace")
}

/// An argument error: `main` prints it with the usage text and exits 2.
type Res<T> = Result<T, String>;

/// The help text, listing the machine keys from the field table.
fn help() -> String {
    let mut keys: Vec<_> = MachineConfig::keys().collect();
    keys.retain(|k| !set_by_simctl(k));
    let rows: Vec<_> = keys.chunks(5).map(|row| row.join(" ")).collect();
    HELP.replace("{machine-keys}", &rows.join("\n  "))
}

fn usage() -> ! {
    eprintln!("{}", help());
    std::process::exit(2);
}

/// The `key=value` arguments of one subcommand. Typed getters take the
/// keys they know; [`Keys::finish`] rejects whatever is left over.
struct Keys(BTreeMap<String, String>);

impl Keys {
    fn parse(args: &[String]) -> Res<Keys> {
        let mut map = BTreeMap::new();
        for arg in args {
            let (k, v) = arg
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{arg}`"))?;
            if map.insert(k.to_string(), v.to_string()).is_some() {
                return Err(format!("duplicate key `{k}`"));
            }
        }
        Ok(Keys(map))
    }

    fn str(&mut self, key: &str) -> Option<String> {
        self.0.remove(key)
    }

    /// Takes `key` and converts its value with `parse`.
    fn get<T>(&mut self, key: &str, parse: impl FnOnce(&str) -> Option<T>) -> Res<Option<T>> {
        self.str(key)
            .map(|v| parse(&v).ok_or_else(|| format!("bad value `{v}` for `{key}`")))
            .transpose()
    }

    fn num<T: FromStr>(&mut self, key: &str) -> Res<Option<T>> {
        self.get(key, |v| v.parse().ok())
    }

    /// A comma-separated list of positive numbers.
    fn list<T: FromStr + PartialOrd + Default>(&mut self, key: &str) -> Res<Option<Vec<T>>> {
        self.get(key, |v| v.split(',').map(positive).collect())
    }

    fn finish(self) -> Res<()> {
        match self.0.into_keys().next() {
            Some(k) => Err(format!("unknown key `{k}`")),
            None => Ok(()),
        }
    }
}

/// Parses a number greater than zero.
fn positive<T: FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.trim().parse().ok().filter(|n| *n > T::default())
}

/// Splits the `n` positional arguments named by `what` off the front of
/// `args` and parses the rest as keys.
fn split_args<'a>(args: &'a [String], n: usize, what: &str) -> Res<(&'a [String], Keys)> {
    if args.len() < n {
        return Err(format!("expected {what}"));
    }
    let (pos, rest) = args.split_at(n);
    Ok((pos, Keys::parse(rest)?))
}

/// `jobs=0` means the host's available parallelism.
fn jobs_or_auto(jobs: usize) -> usize {
    if jobs == 0 {
        runner::default_jobs()
    } else {
        jobs
    }
}

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

/// One parsed `<queue> <workload> <threads> [key=value ...]` run request.
struct RunSpec {
    queue: QueueKind,
    kind: WorkloadKind,
    backend: BackendKind,
    w: Workload,
}

/// Parses the shared single-run grammar, returning the keys it did not
/// take for the caller to consume and [`Keys::finish`].
fn parse_run_spec(args: &[String]) -> Res<(RunSpec, Keys)> {
    let (pos, mut keys) = split_args(args, 3, "<queue> <workload> <threads>")?;
    let queue = QueueKind::parse(&pos[0]).ok_or_else(|| format!("unknown queue `{}`", pos[0]))?;
    let kind = match pos[1].as_str() {
        "producer" | "producer-only" | "enq" => WorkloadKind::ProducerOnly,
        "consumer" | "consumer-only" | "deq" => WorkloadKind::ConsumerOnly,
        "mixed" => WorkloadKind::Mixed,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let threads: usize = pos[2]
        .parse()
        .map_err(|_| format!("bad thread count `{}`", pos[2]))?;
    // A mixed run splits its threads into producers and consumers; with
    // fewer than two, a lone consumer would spin on an empty queue.
    let min_threads = if kind == WorkloadKind::Mixed { 2 } else { 1 };
    if threads < min_threads {
        return Err(format!("`{}` needs {min_threads}+ threads", pos[1]));
    }

    let mut w = paper_workload(kind, threads, keys.num("ops")?.unwrap_or(200));
    let backend = keys
        .get("backend", BackendKind::parse)?
        .unwrap_or(BackendKind::Sim);
    if let Some(delay) = keys.num("delay")? {
        w.qp.txcas.intra_delay = delay;
        w.qp.delay_cycles = delay;
    }
    if let Some(basket) = keys.get("basket", positive)? {
        w.qp.basket_capacity = basket;
        w.qp.enqueuers = w.qp.enqueuers.min(basket);
    }
    // Every machine field by its text-form name, then the derived
    // topology: spread the cores evenly over `sockets` and, unless a
    // home policy was pinned, distribute directory homes across them.
    let mut machine_keys = Vec::new();
    for key in MachineConfig::keys() {
        if let Some(v) = keys.str(&key) {
            if set_by_simctl(&key) {
                return Err(format!("`{key}` is set by simctl itself"));
            }
            w.machine.set(&key, &v)?;
            machine_keys.push(key);
        }
    }
    if let Some(sockets) = keys.get("sockets", positive::<usize>)? {
        w.machine.cores_per_socket = w.machine.cores.div_ceil(sockets);
        if sockets > 1 && !machine_keys.iter().any(|k| k == "home-policy") {
            w.machine.home_policy = HomePolicy::Interleave;
        }
        machine_keys.push("sockets".into());
    }
    if let (BackendKind::Native, Some(key)) = (backend, machine_keys.first()) {
        return Err(format!("backend=native has no machine to set `{key}` on"));
    }
    w.machine.validate()?;
    let spec = RunSpec {
        queue,
        kind,
        backend,
        w,
    };
    Ok((spec, keys))
}

fn run_main(args: &[String]) -> Res<()> {
    let (spec, keys) = parse_run_spec(args)?;
    keys.finish()?;
    let m = run_workload(spec.queue, &spec.w, spec.backend);

    println!("queue\tworkload\tthreads\tlatency_ns\tthroughput_mops\tduration_ns_per_op\ttx_commits\ttx_aborts\ttx_aborts_interrupt\ttripped\tp50_ns\tp99_ns\tmax_ns\thops_intra\thops_cross\tdir_cross");
    println!(
        "{}\t{:?}\t{}\t{:.1}\t{:.3}\t{:.1}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\t{}",
        m.queue,
        spec.kind,
        m.threads,
        m.latency_ns,
        m.throughput_mops,
        m.duration_ns_per_op,
        m.tx_commits,
        m.tx_aborts,
        m.tx_aborts_interrupt,
        m.tripped_writers,
        m.p50_ns,
        m.p99_ns,
        m.max_ns,
        m.hops_intra,
        m.hops_cross,
        m.dir_hops_cross
    );
    Ok(())
}

fn fuzz_main(args: &[String]) -> Res<()> {
    let mut keys = Keys::parse(args)?;
    let defaults = simfuzz::CampaignConfig::default();
    let cfg = simfuzz::CampaignConfig {
        seeds: keys.num("seeds")?.unwrap_or(defaults.seeds),
        start_seed: keys.num("start")?.unwrap_or(defaults.start_seed),
        queue: keys.get("queue", QueueKind::parse)?,
        backend: keys
            .get("backend", BackendKind::parse)?
            .unwrap_or(defaults.backend),
        artifacts_dir: keys
            .str("artifacts")
            .map(Into::into)
            .or(defaults.artifacts_dir),
        // The host's available parallelism by default.
        jobs: keys.num("jobs")?.unwrap_or(0),
    };
    let runner_trace = keys.str("runner-trace");
    let repro = keys.str("repro");
    keys.finish()?;

    if let Some(path) = repro {
        let r = simfuzz::reproduce(path.as_ref()).map_err(|e| format!("repro={path}: {e}"))?;
        let replay = r.violation.map_or("linearizable".into(), |v| v.to_string());
        println!("replay: {replay}\nfingerprint: {}", r.fingerprint);
        if r.reproduced {
            println!("reproduced recorded violation kind `{}`", r.expected);
        } else {
            println!(
                "did NOT reproduce recorded violation kind `{}` — stale artifact?",
                r.expected
            );
            std::process::exit(1);
        }
        return Ok(());
    }

    let report = simfuzz::run_campaign(&cfg, |seed, queue, failure| {
        if let Some(f) = failure {
            eprintln!("seed {seed} ({queue}): {f}");
        }
    });
    for f in &report.failures {
        match &f.shrunk {
            Some(s) => println!(
                "FAIL seed {} ({}): {} — shrunk to threads={} ops={} in {} runs{}",
                f.seed,
                s.plan.queue.name(),
                s.violation,
                s.plan.threads,
                s.plan.ops_per_thread,
                s.runs,
                match (&f.artifact, &f.trace) {
                    (Some(path), Some(trace)) =>
                        format!(" → {} (trace: {})", path.display(), trace.display()),
                    (Some(path), None) => format!(" → {}", path.display()),
                    _ => String::new(),
                }
            ),
            None => println!(
                "FAIL seed {}: {} (not reproducible on the simulator; no shrink/artifact)",
                f.seed, f.kind
            ),
        }
    }
    println!(
        "fuzz: {} seeds ({}, backend {}), {} failure(s)",
        report.runs,
        cfg.queue.map_or("all queues", |q| q.name()),
        cfg.backend.name(),
        report.failures.len()
    );
    if let Some(pool) = &report.pool {
        eprintln!("{}", pool.summary());
        if let Some(path) = runner_trace {
            write_file(&path, &pool.utilization_trace("simctl fuzz"));
            eprintln!("wrote runner utilization trace to {path}");
        }
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}

/// `simctl fig <name|all> [key=value ...]`: regenerate one figure, or
/// every figure, as TSV. The output is a pure function of the keys.
fn fig_main(args: &[String]) -> Res<()> {
    let (pos, mut keys) = split_args(args, 1, "a figure name or `all`")?;
    let fig = match pos[0].as_str() {
        "all" => None,
        name => Some(Figure::parse(name).ok_or_else(|| format!("unknown figure `{name}`"))?),
    };
    // A figure takes only the keys it uses; `all` takes every key.
    let ops = match fig {
        Some(f) if f.default_ops().is_none() => None,
        _ => keys.num("ops")?,
    };
    let threads: Option<Vec<usize>> = match fig {
        Some(f) if f.default_threads().is_none() => None,
        _ => keys.list("threads")?,
    };
    let grid = match fig {
        Some(f) if f != Figure::Numa => None,
        _ => keys.get("grid", bench::fig::numa_grid)?,
    };
    let jobs = jobs_or_auto(keys.num("jobs")?.unwrap_or(0));
    let out = keys.str("out");
    keys.finish()?;

    let (threads, grid) = (threads.as_deref(), grid.as_deref());
    let text = match fig {
        Some(f) => f.text(ops, threads, grid, jobs),
        None => bench::fig::all_text(ops, threads, grid, jobs),
    };
    print!("{text}");
    if let Some(path) = out {
        write_file(&path, &text);
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn trace_main(args: &[String]) -> Res<()> {
    let (spec, mut keys) = parse_run_spec(args)?;
    let out = keys.str("out").unwrap_or_else(|| {
        format!(
            "TRACE_{}_{}.json",
            spec.queue.name().to_lowercase().replace('-', ""),
            spec.backend.name()
        )
    });
    let tsv_out = keys.str("tsv-out");
    keys.finish()?;
    let traced = trace_workload(spec.queue, &spec.w, spec.backend);
    // Self-check before writing: the exporter and the validator must
    // agree on the schema or the artifact is useless downstream.
    let sum = obs::validate(&traced.chrome_json).unwrap_or_else(|e| {
        eprintln!("internal error: exported trace fails validation: {e}");
        std::process::exit(1);
    });
    write_file(&out, &traced.chrome_json);
    if let Some(path) = tsv_out {
        write_file(&path, &traced.tsv);
    }
    let m = &traced.measurement;
    eprintln!(
        "wrote {out}: {} events ({} spans, {} instants) on {} tracks; \
         {} ops, p50 {:.0} ns, p99 {:.0} ns, max {:.0} ns",
        sum.events,
        sum.spans,
        sum.instants,
        sum.tracks.len(),
        spec.w.ops_per_thread * (spec.w.producers + spec.w.consumers) as u64,
        m.p50_ns,
        m.p99_ns,
        m.max_ns
    );
    Ok(())
}

/// Parses `<file>` with no keys and reads the file (exit 2 if unreadable).
fn read_file_arg(args: &[String]) -> Res<(String, String)> {
    let (pos, keys) = split_args(args, 1, "<file>")?;
    keys.finish()?;
    let path = pos[0].clone();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    Ok((path, text))
}

fn trace_validate_main(args: &[String]) -> Res<()> {
    let (path, text) = read_file_arg(args)?;
    match obs::validate(&text) {
        Ok(sum) => {
            println!(
                "{path}: valid — {} events ({} spans, {} instants, {} meta) on {} tracks",
                sum.events,
                sum.spans,
                sum.instants,
                sum.meta,
                sum.tracks.len()
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
    Ok(())
}

/// Parses the `pattern=` token: `poisson`, `bursty:ON:OFF`, or
/// `diurnal:LOW:HIGH:PERIOD`.
fn parse_pattern(v: &str) -> Option<ArrivalPattern> {
    let mut parts = v.split(':');
    let head = parts.next()?;
    let mut num = || parts.next()?.parse::<u64>().ok();
    let pattern = match head {
        "poisson" => ArrivalPattern::Poisson,
        "bursty" => ArrivalPattern::Bursty {
            on_cycles: num()?,
            off_cycles: num()?,
        },
        "diurnal" => ArrivalPattern::Diurnal {
            low_permille: num()?,
            high_permille: num()?,
            period_cycles: num()?,
        },
        _ => return None,
    };
    match parts.next() {
        Some(_) => None, // trailing junk
        None => Some(pattern),
    }
}

fn load_main(args: &[String]) -> Res<()> {
    let (pos, mut keys) = split_args(args, 1, "<queue>")?;
    let queue = QueueKind::parse(&pos[0]).ok_or_else(|| format!("unknown queue `{}`", pos[0]))?;
    let d = LoadPlan::default();
    let plan = LoadPlan {
        pattern: keys.get("pattern", parse_pattern)?.unwrap_or(d.pattern),
        requests: keys.num("requests")?.unwrap_or(d.requests),
        sources: keys.num("sources")?.unwrap_or(d.sources),
        workers: keys.num("workers")?.unwrap_or(d.workers),
        egress: keys.num("egress")?.unwrap_or(d.egress),
        service_cycles: keys.num("service")?.unwrap_or(d.service_cycles),
        service_jitter_pct: keys.num("jitter")?.unwrap_or(d.service_jitter_pct),
        poll_cycles: keys.num("poll")?.unwrap_or(d.poll_cycles),
        seed: keys.num("seed")?.unwrap_or(d.seed),
        ..d
    };
    let backend = keys
        .get("backend", BackendKind::parse)?
        .unwrap_or(BackendKind::Sim);
    let rates: Option<Vec<u64>> = keys.list("rates")?;
    let slo_p99_ns = keys.num("slo-p99")?.unwrap_or(0.0);
    let depth_slo = keys.num("depth-slo")?.unwrap_or(0);
    let jobs = jobs_or_auto(keys.num("jobs")?.unwrap_or(1));
    let out = keys.str("out");
    let tsv_out = keys.str("tsv-out");
    keys.finish()?;
    plan.validate().map_err(|e| format!("invalid plan: {e}"))?;
    let rates = rates.unwrap_or_else(|| loadgen::default_rates(&plan));
    let spec = SweepSpec {
        plan,
        queue,
        backend,
        rates,
        slo_p99_ns,
        depth_slo,
        jobs,
    };
    let r = loadgen::run_sweep(&spec);
    print!("{}", loadgen::to_tsv(&r));
    match &r.knee {
        Some(k) => eprintln!(
            "knee: {} at {} rps ({}) — point {}/{}",
            k.reason.name(),
            k.offered_rps,
            spec.queue.name(),
            k.index + 1,
            r.points.len()
        ),
        None => eprintln!(
            "knee: none — {} healthy up to {} rps",
            spec.queue.name(),
            r.points.last().map_or(0, |p| p.offered_rps)
        ),
    }
    if let Some(path) = tsv_out {
        write_file(&path, &loadgen::to_tsv(&r));
    }
    if let Some(path) = out {
        write_file(&path, &loadgen::to_json(&r));
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Validates an `sbq-loadgen-v1` document with [`loadgen::check_json`]:
/// exit 1 if it is not JSON or not valid.
fn load_check_main(args: &[String]) -> Res<()> {
    let (path, text) = read_file_arg(args)?;
    let doc = obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not JSON — {e}");
        std::process::exit(1);
    });
    match loadgen::check_json(&doc) {
        Ok(summary) => println!("{path}: ok — {summary}"),
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `simctl scenario <family> [key=value ...]`: one component-actor
/// scenario run end to end — stage the machine with its actor, drive the
/// queue, check linearizability, and print the deterministic summary.
fn scenario_main(args: &[String]) -> Res<()> {
    let (pos, mut keys) = split_args(args, 1, "a scenario family: preempt, timer, or dma")?;
    let family = ActorFamily::parse(&pos[0]).ok_or_else(|| {
        format!(
            "unknown scenario family `{}` (expected preempt, timer, or dma)",
            pos[0]
        )
    })?;
    let d = ScenarioSpec::smoke(family);
    let mut spec = ScenarioSpec {
        queue: keys.get("queue", QueueKind::parse)?.unwrap_or(d.queue),
        workers: keys.num("workers")?.unwrap_or(d.workers),
        ops: keys.num("ops")?.unwrap_or(d.ops),
        period: keys.num("period")?.unwrap_or(d.period),
        cost: keys.num("cost")?.unwrap_or(d.cost),
        batch: keys.num("batch")?.unwrap_or(d.batch),
        divider: keys.num("divider")?.unwrap_or(d.divider),
        seed: keys.num("seed")?.unwrap_or(d.seed),
        ..d
    };
    let out = keys.str("out");
    let trace_out = keys.str("trace-out");
    keys.finish()?;
    spec.validate()?;
    spec.trace = trace_out.is_some();

    let outcome = run_scenario(&spec);
    print!("{}", outcome.summary);
    if let Some(path) = out {
        write_file(&path, &outcome.summary);
        eprintln!("wrote summary to {path}");
    }
    if let Some(path) = trace_out {
        let json = outcome.chrome_json.expect("trace-out requested a trace");
        // Same self-check as `simctl trace`: never write a document that
        // `simctl trace-validate` would reject.
        if let Err(e) = obs::validate(&json) {
            eprintln!("internal error: scenario trace failed validation: {e}");
            std::process::exit(1);
        }
        write_file(&path, &json);
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(v) = outcome.violation {
        eprintln!("scenario: LINEARIZABILITY VIOLATION: {v}");
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("fig") => fig_main(rest),
        Some("fuzz") => fuzz_main(rest),
        Some("trace") => trace_main(rest),
        Some("trace-validate") => trace_validate_main(rest),
        Some("load") => load_main(rest),
        Some("load-check") => load_check_main(rest),
        Some("scenario") => scenario_main(rest),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{}", help());
            Ok(())
        }
        _ => run_main(&args),
    };
    if let Err(e) = result {
        eprintln!("simctl: {e}\n");
        usage();
    }
}

#[cfg(test)]
mod tests {
    use super::Keys;
    use harness::BackendKind;

    fn keys(args: &[&str]) -> Result<Keys, String> {
        Keys::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn typed_getters_take_their_keys() {
        let mut k = keys(&["ops=30", "threads=1, 2,4", "backend=native", "out=x.tsv"]).unwrap();
        assert_eq!(k.num::<u64>("ops"), Ok(Some(30)));
        assert_eq!(k.list::<usize>("threads"), Ok(Some(vec![1, 2, 4])));
        let backend = k.get("backend", BackendKind::parse);
        assert_eq!(backend, Ok(Some(BackendKind::Native)));
        assert_eq!(k.num::<u64>("jobs"), Ok(None));
        assert_eq!(k.str("out").as_deref(), Some("x.tsv"));
        assert_eq!(k.finish(), Ok(()));
    }

    #[test]
    fn malformed_arguments_are_errors() {
        // Not key=value: the retired `--key value` form included.
        assert!(keys(&["--seeds", "4"]).is_err());
        assert!(keys(&["ops"]).is_err());
        assert!(keys(&["ops=1", "ops=2"]).is_err(), "duplicate key");
        let mut k = keys(&["ops=abc", "threads=1,x"]).unwrap();
        assert!(k.num::<u64>("ops").is_err(), "bad number");
        assert!(k.list::<usize>("threads").is_err(), "bad list entry");
        assert!(keys(&["nope=1"]).unwrap().finish().is_err(), "unknown key");
    }
}
