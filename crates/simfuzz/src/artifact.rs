//! Reproducer artifacts: a failing (shrunk) plan serialized as a small
//! `key value` text file under `fuzz-artifacts/`, replayable exactly via
//! `simctl fuzz repro=<file>`.
//!
//! The format stores every [`FuzzPlan`] field verbatim — replay builds
//! the plan *from the stored fields*, never by re-deriving from the seed,
//! so a shrunk plan (whose fields no longer match its seed's derivation)
//! round-trips exactly. All values are integers, which keeps the format
//! lossless; the violation and witness travel along as comments plus a
//! machine-checkable `violation` kind token.

use crate::plan::FuzzPlan;
use harness::QueueKind;
use linearize::{Event, Op, Violation};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Bumped whenever the plan fields or their meaning change.
/// v2 added the component-spine knobs (`preempt-period`, `preempt-cost`,
/// `timer-period`); v1 artifacts predate components and are rejected
/// rather than silently replayed without their fault model.
pub const ARTIFACT_VERSION: u64 = 2;

/// A parsed reproducer: the plan to replay plus the violation kind the
/// original run produced (for replay verification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    pub plan: FuzzPlan,
    /// Kind token of the recorded violation (see [`violation_token`]).
    pub violation: String,
}

/// Stable, machine-comparable token for a violation kind (payloads are
/// deliberately excluded: replays compare kinds, not witness values).
pub fn violation_token(v: &Violation) -> &'static str {
    match v {
        Violation::Fresh { .. } => "fresh",
        Violation::Repeat { .. } => "repeat",
        Violation::Ord { .. } => "ord",
        Violation::Wit { .. } => "wit",
        Violation::Malformed { .. } => "malformed",
        Violation::NoLinearization => "nolinearization",
    }
}

/// Lowercase dashless queue token; accepted back by [`QueueKind::parse`].
fn queue_token(q: QueueKind) -> String {
    q.name().to_lowercase().replace('-', "")
}

fn render_op(op: &Op) -> String {
    match op {
        Op::Enq(v) => format!("enq({v:#x})"),
        Op::DeqSome(v) => format!("deq -> {v:#x}"),
        Op::DeqNull => "deq -> null".to_string(),
    }
}

/// Renders the artifact text for a failing plan.
pub fn render_artifact(plan: &FuzzPlan, violation: &Violation, witness: &[Event]) -> String {
    let mut s = String::new();
    s.push_str("# simfuzz reproducer — replay with: simctl fuzz repro=<this file>\n");
    s.push_str(&format!("# {violation}\n"));
    s.push_str(&format!("version {ARTIFACT_VERSION}\n"));
    s.push_str(&format!("violation {}\n", violation_token(violation)));
    s.push_str(&format!("queue {}\n", queue_token(plan.queue)));
    s.push_str(&format!("seed {}\n", plan.seed));
    s.push_str(&format!("threads {}\n", plan.threads));
    s.push_str(&format!("ops-per-thread {}\n", plan.ops_per_thread));
    s.push_str(&format!("enq-permille {}\n", plan.enq_permille));
    s.push_str(&format!("spurious-ppm {}\n", plan.spurious_ppm));
    s.push_str(&format!("jitter-pct {}\n", plan.jitter_pct));
    s.push_str(&format!("sched-perturb {}\n", plan.sched_perturb));
    s.push_str(&format!("capacity-lines {}\n", plan.capacity_lines));
    s.push_str(&format!("dual-socket {}\n", plan.dual_socket as u64));
    s.push_str(&format!("microarch-fix {}\n", plan.microarch_fix as u64));
    s.push_str(&format!("machine-seed {}\n", plan.machine_seed));
    s.push_str(&format!("preempt-period {}\n", plan.preempt_period));
    s.push_str(&format!("preempt-cost {}\n", plan.preempt_cost));
    s.push_str(&format!("timer-period {}\n", plan.timer_period));
    s.push_str("# minimized witness (thread op [invoke,ret]):\n");
    for e in witness {
        s.push_str(&format!(
            "#   t{} {} [{},{}]\n",
            e.thread,
            render_op(&e.op),
            e.invoke,
            e.ret
        ));
    }
    s
}

/// Writes the artifact into `dir` (created if absent) as
/// `<queue>-seed<seed>.repro` and returns the path.
pub fn write_artifact(
    dir: &Path,
    plan: &FuzzPlan,
    violation: &Violation,
    witness: &[Event],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}.repro",
        queue_token(plan.queue),
        plan.seed
    ));
    std::fs::write(&path, render_artifact(plan, violation, witness))?;
    Ok(path)
}

/// Parses artifact text back into a replayable plan.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("malformed line: {line:?}"))?;
        kv.insert(k, v.trim());
    }
    let int = |key: &str| -> Result<u64, String> {
        kv.get(key)
            .ok_or_else(|| format!("missing key: {key}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad value for {key}: {e}"))
    };
    let flag = |key: &str| -> Result<bool, String> {
        match *kv.get(key).ok_or_else(|| format!("missing key: {key}"))? {
            "0" | "false" => Ok(false),
            "1" | "true" => Ok(true),
            other => Err(format!("bad flag for {key}: {other:?}")),
        }
    };

    let version = int("version")?;
    if version != ARTIFACT_VERSION {
        return Err(format!(
            "unsupported artifact version {version} (expected {ARTIFACT_VERSION})"
        ));
    }
    let queue_name = kv.get("queue").ok_or("missing key: queue")?;
    let queue =
        QueueKind::parse(queue_name).ok_or_else(|| format!("unknown queue: {queue_name:?}"))?;
    let violation = kv
        .get("violation")
        .ok_or("missing key: violation")?
        .to_string();

    Ok(Artifact {
        plan: FuzzPlan {
            seed: int("seed")?,
            queue,
            threads: int("threads")? as usize,
            ops_per_thread: int("ops-per-thread")?,
            enq_permille: int("enq-permille")?,
            spurious_ppm: int("spurious-ppm")?,
            jitter_pct: int("jitter-pct")?,
            sched_perturb: int("sched-perturb")?,
            capacity_lines: int("capacity-lines")?,
            dual_socket: flag("dual-socket")?,
            microarch_fix: flag("microarch-fix")?,
            machine_seed: int("machine-seed")?,
            preempt_period: int("preempt-period")?,
            preempt_cost: int("preempt-cost")?,
            timer_period: int("timer-period")?,
        },
        violation,
    })
}

/// Reads and parses an artifact file.
pub fn read_artifact(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_artifact(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_roundtrip_through_text() {
        for seed in 0..32 {
            let mut plan = FuzzPlan::derive(seed, None);
            // A shrunk plan's fields diverge from the seed derivation;
            // the artifact must carry the fields, not the seed.
            plan.ops_per_thread = 2;
            plan.threads = 2;
            plan.spurious_ppm = 0;
            let v = Violation::Repeat { value: 7 };
            let text = render_artifact(&plan, &v, &[]);
            let art = parse_artifact(&text).expect("parse");
            assert_eq!(art.plan, plan);
            assert_eq!(art.violation, "repeat");
        }
    }

    #[test]
    fn queue_tokens_parse_back() {
        for q in crate::plan::FUZZ_QUEUES {
            assert_eq!(QueueKind::parse(&queue_token(q)), Some(q));
        }
    }

    #[test]
    fn parse_rejects_missing_and_malformed() {
        assert!(parse_artifact("").is_err());
        let plan = FuzzPlan::derive(0, None);
        let good = render_artifact(&plan, &Violation::NoLinearization, &[]);
        let stale = good.replace("version 2", "version 999");
        assert!(parse_artifact(&stale).unwrap_err().contains("version"));
        let broken = good.replace("threads", "thread-count");
        assert!(parse_artifact(&broken).is_err());
    }

    #[test]
    fn parse_rejects_pre_component_v1_artifacts() {
        // A v1 artifact carries neither the version nor the component
        // knobs; both defects must be caught, version first.
        let plan = FuzzPlan::derive(3, None);
        let good = render_artifact(&plan, &Violation::NoLinearization, &[]);
        let v1 = good
            .replace("version 2", "version 1")
            .lines()
            .filter(|l| {
                !l.starts_with("preempt-period")
                    && !l.starts_with("preempt-cost")
                    && !l.starts_with("timer-period")
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(parse_artifact(&v1).unwrap_err().contains("version 1"));
        // Even with a forged current version, the missing knobs reject.
        let forged = v1.replace("version 1", "version 2");
        assert!(parse_artifact(&forged)
            .unwrap_err()
            .contains("preempt-period"));
    }

    #[test]
    fn parse_rejects_corrupt_component_knobs() {
        let plan = FuzzPlan::derive(5, None);
        let good = render_artifact(&plan, &Violation::NoLinearization, &[]);
        let line = format!("timer-period {}", plan.timer_period);
        let corrupt = good.replace(line.as_str(), "timer-period soon");
        assert!(parse_artifact(&corrupt)
            .unwrap_err()
            .contains("timer-period"));
    }
}
