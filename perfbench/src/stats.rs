//! Sample summaries and the process's memory high-water mark.

use crate::metrics::Gate;

/// Median, quartiles and 90th percentile of a set of samples, with the
/// sample count. Quantiles follow Python's
/// `statistics.quantiles(method="exclusive")`, so a summary printed here
/// matches one recomputed from the printed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p90: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of `samples`; a single sample is its own quartiles.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        if s.len() == 1 {
            return Summary::single(s[0]);
        }
        Summary {
            median: median_sorted(&s),
            q1: quantile(&s, 1, 4),
            q3: quantile(&s, 3, 4),
            p90: quantile(&s, 9, 10),
            n: s.len(),
        }
    }

    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            p90: v,
            n: 1,
        }
    }

    /// The statistic `gate` names.
    pub fn gated(&self, gate: Gate) -> f64 {
        match gate {
            Gate::Median => self.median,
            Gate::P90 => self.p90,
        }
    }

    pub fn spread(&self) -> f64 {
        spread(self.median, self.q1, self.q3)
    }
}

/// Interquartile distance as a share of the median: the spread a
/// regression bound is compared against.
pub fn spread(median: f64, q1: f64, q3: f64) -> f64 {
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `i`-th of the `parts - 1` cut points dividing sorted `s` (at
/// least two samples) into `parts` groups, by the exclusive method.
fn quantile(s: &[f64], i: usize, parts: usize) -> f64 {
    let len = s.len();
    let m = len + 1;
    let j = (i * m / parts).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * parts) as f64;
    (s[j - 1] * (parts as f64 - delta) + s[j] * delta) / parts as f64
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Summary::of(samples).median
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let sum = Summary::of(&s);
        assert_eq!((sum.q1, sum.median, sum.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1..=10], n=10)[8] == 9.9
        assert!((sum.p90 - 9.9).abs() < 1e-12);
        assert_eq!(Summary::of(&[3.0]).spread(), 0.0);
    }
}
