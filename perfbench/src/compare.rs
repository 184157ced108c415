//! `perfbench compare BASE NEW`: compares two captures of run output.
//!
//! Each file holds the output of one or more runs, concatenated. A metric
//! line reads `workload metric value unit median=.. q1=.. q3=.. p90=..
//! n=..`; other lines are skipped. Per (workload, metric), a side of
//! several runs reads as the median and quartiles of its runs' values; a
//! side of one run reads as that run's value and the quartiles of its
//! repetitions. A side's spread is the distance between its quartiles as a
//! share of its median. An end-to-end metric gets a verdict against its
//! bound: `unresolved` when either side's spread exceeds the bound,
//! otherwise `worse` when it moved the wrong way by more than the bound,
//! `ok` if not. Other metrics read `same` or `changed`.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{spread, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// A side's reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

/// Per (workload, metric): the unit and every run's reading.
type Side = BTreeMap<(String, String), (String, Vec<Reading>)>;

fn parse_side(text: &str) -> Side {
    let mut side = Side::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit, rest @ ..] = f.as_slice() else {
            continue;
        };
        let field = |k: &str| {
            rest.iter()
                .find_map(|kv| kv.strip_prefix(k)?.strip_prefix('=')?.parse::<f64>().ok())
        };
        let (Ok(value), Some(median), Some(q1), Some(q3)) = (
            value.parse::<f64>(),
            field("median"),
            field("q1"),
            field("q3"),
        ) else {
            continue;
        };
        side.entry((workload.to_string(), metric.to_string()))
            .or_insert_with(|| (unit.to_string(), Vec::new()))
            .1
            .push(Reading {
                value,
                q1,
                q3,
                spread: spread(median, q1, q3),
            });
    }
    side
}

/// A side's reading over all its runs.
fn summarize(runs: &[Reading]) -> Reading {
    match runs {
        [one] => *one,
        _ => {
            let s = Summary::of(&runs.iter().map(|r| r.value).collect::<Vec<_>>());
            Reading {
                value: s.median,
                q1: s.q1,
                q3: s.q3,
                spread: s.spread(),
            }
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: Reading,
    pub new: Reading,
    pub verdict: &'static str,
}

impl Row {
    /// Relative change of the value, new against base.
    pub fn delta(&self) -> f64 {
        if self.base.value == 0.0 {
            0.0
        } else {
            (self.new.value - self.base.value) / self.base.value.abs()
        }
    }
}

/// Rows for every (workload, metric) present on both sides.
pub fn compare(base: &str, new: &str) -> Vec<Row> {
    let (base, new) = (parse_side(base), parse_side(new));
    let mut rows = Vec::new();
    for (key, (unit, b)) in &base {
        let Some((_, n)) = new.get(key) else { continue };
        let mut row = Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            unit: unit.clone(),
            base: summarize(b),
            new: summarize(n),
            verdict: "",
        };
        row.verdict = match END_TO_END.iter().find(|m| m.name == key.1) {
            Some(m) => {
                let worse_by = match m.better {
                    Better::Higher => -row.delta(),
                    Better::Lower => row.delta(),
                };
                if row.base.spread.max(row.new.spread) > m.bound {
                    "unresolved"
                } else if worse_by > m.bound {
                    "worse"
                } else {
                    "ok"
                }
            }
            None if row.base.value == row.new.value => "same",
            None => "changed",
        };
        rows.push(row);
    }
    rows
}

pub fn main(base_path: &str, new_path: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (base, new) = match (read(base_path), read(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&base, &new);
    if rows.is_empty() {
        eprintln!("perfbench: the two files share no metric");
        return ExitCode::from(2);
    }
    println!("workload metric unit base base_q1 base_q3 new new_q1 new_q3 delta verdict");
    for r in &rows {
        let (b, n) = (r.base, r.new);
        println!(
            "{} {} {} {} {} {} {} {} {} {:+.4} {}",
            r.workload,
            r.metric,
            r.unit,
            b.value,
            b.q1,
            b.q3,
            n.value,
            n.q1,
            n.q3,
            r.delta(),
            r.verdict
        );
    }
    if rows.iter().any(|r| r.verdict == "worse") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(ops_per_s: f64, events: u64) -> String {
        format!(
            "sbq-producer ops_per_s {ops_per_s} 1/s median={ops_per_s} q1={} q3={} p90={} n=30\n\
             sbq-producer sim.events {events} count median={events} q1={events} q3={events} p90={events} n=1\n\
             {{\"correct\": true}}\n",
            ops_per_s * 0.99,
            ops_per_s * 1.01,
            ops_per_s * 1.02
        )
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).expect("row")
    }

    #[test]
    fn a_regression_beyond_the_bound_is_flagged() {
        let drop = END_TO_END[0].bound + 0.05;
        let rows = compare(&capture(1000.0, 7), &capture(1000.0 * (1.0 - drop), 7));
        assert_eq!(row(&rows, "ops_per_s").verdict, "worse");
        assert!((row(&rows, "ops_per_s").delta() + drop).abs() < 1e-12);
        assert_eq!(row(&rows, "sim.events").verdict, "same");
    }

    #[test]
    fn noise_within_the_bound_is_ok_and_wide_spreads_are_unresolved() {
        let rows = compare(&capture(1000.0, 7), &capture(990.0, 8));
        assert_eq!(row(&rows, "ops_per_s").verdict, "ok");
        assert_eq!(row(&rows, "sim.events").verdict, "changed");
        let noisy = "w ops_per_s 1000 1/s median=1000 q1=500 q3=1500 p90=1600 n=9\n";
        assert_eq!(
            row(&compare(noisy, noisy), "ops_per_s").verdict,
            "unresolved"
        );
    }

    #[test]
    fn several_runs_per_side_are_summarized_over_their_values() {
        let base: String = [1000.0, 1010.0, 990.0]
            .iter()
            .map(|&v| capture(v, 7))
            .collect();
        let rows = compare(&base, &capture(1000.0, 7));
        assert_eq!(row(&rows, "ops_per_s").base.value, 1000.0);
    }
}
