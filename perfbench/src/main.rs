//! perfbench: the repository's seeded benchmark.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` builds one
//! workload's inputs from the seed, checks its outputs, repeats it for
//! `S` seconds of host time, and prints one line per metric followed by a
//! JSON summary as the last line. With `--trace 0` the summary carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run. `perfbench compare BASE NEW` compares two files of
//! captured output. See README.md.

mod compare;
mod fuzzwork;
mod metrics;
mod nativework;
mod simwork;
mod stats;
mod tracer;
mod workload;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, Summary};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::Tracer;
use workload::{Rep, Sizes, Tally};

const USAGE: &str = "usage:
  perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
  perfbench compare BASE NEW
workloads: faa-contended sbq-producer numa88-mixed fuzz-campaign native-pairs";

/// Round trips of the fiber ping-pong probe.
const FIBER_ROUND_TRIPS: u64 = 200_000;
/// Enqueue-dequeue pairs per thread of the `Mutex<VecDeque>` reference.
const MUTEX_PAIRS: u64 = 200_000;

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

#[derive(Debug, PartialEq)]
enum Cmd {
    Run(RunArgs),
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, base, new] => Ok(Cmd::Compare(base.clone(), new.clone())),
            _ => Err("compare takes exactly two files".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=3600).contains(s));
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    let args = RunArgs {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        trace_out,
    };
    if args.trace_out.is_some() && !args.trace {
        return Err("--trace-out needs --trace 1".into());
    }
    Ok(Cmd::Run(args))
}

/// One printed metric: its value and the summary of the samples it was
/// taken from.
struct Line {
    name: &'static str,
    value: f64,
    s: Summary,
    unit: &'static str,
}

impl Line {
    fn single(name: &'static str, value: f64, unit: &'static str) -> Line {
        Line {
            name,
            value,
            s: Summary::single(value),
            unit,
        }
    }
}

struct Report {
    tally: Tally,
    lines: Vec<Line>,
    /// The metrics of the JSON summary: end-to-end, or per-layer when
    /// traced.
    json: Vec<(&'static str, f64, &'static str)>,
}

fn total_ns(r: &Rep) -> f64 {
    (r.setup_ns + r.measured_ns) as f64
}

/// Runs workload `a.workload` for `a.seconds` and reduces the
/// repetitions to metrics. Alternate repetitions are traced when
/// `a.trace` is set; the end-to-end metrics always come from the
/// untraced ones.
fn measure(a: &RunArgs, sizes: &Sizes, tr: &mut Tracer) -> Result<Report, String> {
    let mut w = workload::build(&a.workload, a.seed, sizes)
        .ok_or_else(|| format!("unknown workload {:?}", a.workload))?;
    // Warm-up: fills caches, finishes lazy set-up, and fixes the
    // simulated outcome every later repetition must reproduce.
    let mut tally = w.rep(&mut Tracer::new(false)).tally;

    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0;
    while Instant::now() < deadline || plain.is_empty() || (a.trace && traced.is_empty()) {
        tr.on = a.trace && i % 2 == 0;
        tr.set_rep(i);
        let rep = tr.span("rep", |tr| w.rep(tr));
        tally.add(rep.tally);
        if tr.on {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
        i += 1;
    }
    tr.on = false;

    let ops_per_s: Vec<f64> = plain
        .iter()
        .map(|r| r.ops as f64 * 1e9 / r.measured_ns.max(1) as f64)
        .collect();
    let setup_s: Vec<f64> = plain.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let e2e = [
        Summary::of(&ops_per_s),
        Summary::of(&setup_s),
        Summary::single(stats::peak_rss_mib()?),
    ];
    // Checked after the memory high-water mark is read: a check's own
    // footprint (the linearizability search) is not the workload's.
    tally.add(w.check());
    let mut lines: Vec<Line> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(m, s)| Line {
            name: m.name,
            value: s.gated(m.gate),
            s,
            unit: m.unit,
        })
        .collect();

    let json = if a.trace {
        let mut layers = w.layers(&traced);
        let get = |layers: &[(&str, f64)], n: &str| {
            layers
                .iter()
                .find(|(k, _)| *k == n)
                .map_or(0.0, |&(_, v)| v)
        };
        // Host ns per event times events per op rebuilds host ns per op;
        // set against the untraced repetitions it should agree to within
        // the tracing overhead.
        let ns_per_op = get(&layers, "coherence.machine.host_ns_per_event")
            * get(&layers, "coherence.events_per_op");
        let untraced_ns_per_op = 1e9 / e2e[0].median;
        let reconstruct_error = if ns_per_op > 0.0 {
            (ns_per_op - untraced_ns_per_op).abs() / untraced_ns_per_op
        } else {
            0.0
        };
        let traced_ns: Vec<f64> = traced.iter().map(total_ns).collect();
        let plain_ns: Vec<f64> = plain.iter().map(total_ns).collect();
        layers.extend([
            (
                "coherence.fiber.switch_ns",
                simwork::fiber_switch_ns(FIBER_ROUND_TRIPS),
            ),
            (
                "ref.mutex_vecdeque_ops_per_s",
                nativework::mutex_vecdeque_ops_per_s(MUTEX_PAIRS),
            ),
            (
                "trace.overhead_share",
                median(&traced_ns) / median(&plain_ns) - 1.0,
            ),
            ("trace.reconstruct_error", reconstruct_error),
        ]);
        let json: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, get(&layers, name), unit))
            .collect();
        lines.extend(
            json.iter()
                .map(|&(name, v, unit)| Line::single(name, v, unit)),
        );
        json
    } else {
        lines.extend(
            w.counters()
                .into_iter()
                .map(|(name, v, unit)| Line::single(name, v, unit)),
        );
        lines
            .iter()
            .take(END_TO_END.len())
            .map(|l| (l.name, l.value, l.unit))
            .collect()
    };
    if let Some((name, _, _)) = json.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(Report { tally, lines, json })
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .json
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    )
}

fn run(a: &RunArgs) -> ExitCode {
    let mut tr = Tracer::new(false);
    let report = match measure(a, &Sizes::BENCH, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &a.trace_out {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tr.write_chrome(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    for l in &report.lines {
        println!(
            "{} {} {} {} median={} q1={} q3={} p90={} n={}",
            a.workload, l.name, l.value, l.unit, l.s.median, l.s.q1, l.s.q3, l.s.p90, l.s.n
        );
    }
    println!("{}", json_line(&report));
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checked units failed",
            report.tally.failed, report.tally.attempted
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cmd::Run(a)) => run(&a),
        Ok(Cmd::Compare(base, new)) => compare::main(&base, &new),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, seed: u64, trace: bool) -> RunArgs {
        RunArgs {
            workload: workload.into(),
            seed,
            seconds: 0,
            trace,
            trace_out: None,
        }
    }

    fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
        let r = measure(
            &args(workload, seed, trace),
            &Sizes::TINY,
            &mut Tracer::new(false),
        )
        .expect("the run completes");
        assert_eq!(r.tally.failed, 0, "{workload}: a check failed");
        r
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.json
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("metric present")
            .1
    }

    #[test]
    fn every_listed_metric_is_printed_for_every_workload() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let r = tiny(name, 1, trace);
                let doc = obs::json::parse(&json_line(&r)).expect("the summary is JSON");
                assert_eq!(doc.get("correct"), Some(&obs::json::Value::Bool(true)));
                let printed: Vec<&str> = r.json.iter().map(|(n, _, _)| *n).collect();
                let listed: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|&(n, _)| n).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(printed, listed, "{name} trace={trace}");
                if !trace {
                    assert!(
                        r.json.iter().all(|&(_, v, _)| v > 0.0),
                        "{name}: a zero end-to-end metric"
                    );
                }
            }
        }
    }

    /// Metrics of the traced run that come from the simulator alone.
    const SIMULATED: [&str; 8] = [
        "coherence.events_per_op",
        "coherence.msgs_per_op",
        "coherence.stalls_per_op",
        "coherence.fastpath_hit_ratio",
        "htm.commit_ratio",
        "htm.aborts_per_op",
        "sim.op_p50_ns",
        "sbq.enq_p99_ns",
    ];

    #[test]
    fn the_same_seed_gives_identical_simulated_results() {
        let (a, b) = (tiny("sbq-producer", 4, true), tiny("sbq-producer", 4, true));
        for m in SIMULATED {
            assert_eq!(value(&a, m), value(&b, m), "{m}");
        }
        let counters = |r: &Report| -> Vec<f64> {
            r.lines
                .iter()
                .filter(|l| l.name.starts_with("sim."))
                .map(|l| l.value)
                .collect()
        };
        let (c, d) = (
            tiny("sbq-producer", 4, false),
            tiny("sbq-producer", 4, false),
        );
        assert!(!counters(&c).is_empty());
        assert_eq!(counters(&c), counters(&d));
    }

    #[test]
    fn another_seed_changes_the_simulated_run() {
        let (a, b) = (tiny("sbq-producer", 1, true), tiny("sbq-producer", 2, true));
        assert_ne!(
            value(&a, "coherence.events_per_op"),
            value(&b, "coherence.events_per_op")
        );
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        let ok = [
            "--workload",
            "faa-contended",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ];
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(parse(&to_args(&ok)), Ok(Cmd::Run(_))));
        for (i, bad) in ["nope", "abc", "0", "2"].iter().enumerate() {
            let mut v = ok;
            v[2 * i + 1] = bad;
            assert!(parse(&to_args(&v)).is_err(), "{v:?}");
        }
        assert!(parse(&to_args(&ok[..6])).is_err(), "missing --trace");
        assert!(parse(&to_args(&["--seed"])).is_err());
        assert!(parse(&to_args(&["--frobnicate", "1"])).is_err());
        assert!(parse(&to_args(&["compare", "a"])).is_err());
        let mut traced_out = to_args(&ok);
        traced_out.extend(to_args(&["--trace-out", "t.json"]));
        assert!(parse(&traced_out).is_err(), "--trace-out without --trace 1");
    }
}
