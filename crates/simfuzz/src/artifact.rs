//! Reproducer artifacts: the exact [`FuzzRun`] of a failing (shrunk)
//! plan as a small text file under `fuzz-artifacts/`, replayable via
//! `simctl fuzz repro=<file>`.
//!
//! The run's own fields are `key value` lines; the machine follows in
//! its `key=value` text form ([`coherence::MachineConfig::to_text`]),
//! every field spelled out. Replay reads that machine back rather than
//! rebuilding it from plan knobs, so it runs what the file shows even
//! after a default changes. Parsing is strict — an unknown, repeated or
//! missing key is an error — and the violation and witness travel along
//! as comments plus a machine-checkable `violation` kind token.

use crate::plan::FuzzRun;
use coherence::MachineConfig;
use harness::QueueKind;
use linearize::{Event, Op, Violation};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Bumped whenever the format or its meaning changes. v3 stores the
/// whole machine in place of v2's ten plan knobs; v4's machine lost v3's
/// MESI Exclusive flag. Older versions are rejected rather than replayed
/// on a machine they do not describe.
pub const ARTIFACT_VERSION: u64 = 4;

/// A parsed reproducer: the run to replay plus the violation kind the
/// original run produced (for replay verification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    pub run: FuzzRun,
    /// Kind token of the recorded violation (see [`violation_token`]).
    pub violation: String,
}

/// Every token [`violation_token`] produces; an artifact naming any
/// other kind is rejected.
const VIOLATION_TOKENS: [&str; 5] = ["fresh", "repeat", "ord", "wit", "malformed"];

/// Stable, machine-comparable token for a violation kind (payloads are
/// deliberately excluded: replays compare kinds, not witness values).
pub fn violation_token(v: &Violation) -> &'static str {
    match v {
        Violation::Fresh { .. } => "fresh",
        Violation::Repeat { .. } => "repeat",
        Violation::Ord { .. } => "ord",
        Violation::Wit { .. } => "wit",
        Violation::Malformed { .. } => "malformed",
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

/// Renders the artifact text for a failing run.
pub fn render_artifact(run: &FuzzRun, violation: &Violation, witness: &[Event]) -> String {
    let mut s = String::new();
    s.push_str("# simfuzz reproducer — replay with: simctl fuzz repro=<this file>\n");
    s.push_str(&format!("# {violation}\n"));
    s.push_str(&format!("version {ARTIFACT_VERSION}\n"));
    s.push_str(&format!("violation {}\n", violation_token(violation)));
    s.push_str(&format!("queue {}\n", queue_token(run.queue)));
    s.push_str(&format!("seed {}\n", run.seed));
    s.push_str(&format!("threads {}\n", run.threads));
    s.push_str(&format!("ops-per-thread {}\n", run.ops_per_thread));
    s.push_str(&format!("enq-permille {}\n", run.enq_permille));
    s.push_str("# machine:\n");
    s.push_str(&run.machine.to_text());
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
    run: &FuzzRun,
    violation: &Violation,
    witness: &[Event],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.repro", queue_token(run.queue), run.seed));
    std::fs::write(&path, render_artifact(run, violation, witness))?;
    Ok(path)
}

/// Parses artifact text back into a replayable run.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut machine = String::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        if line.contains('=') {
            machine.push_str(line);
            machine.push('\n');
        } else if let Some((k, v)) = line.split_once(' ') {
            if kv.insert(k, v).is_some() {
                return Err(format!("duplicate key `{k}`"));
            }
        } else {
            return Err(format!("malformed line: {line:?}"));
        }
    }
    let mut take = |key: &str| kv.remove(key).ok_or_else(|| format!("missing key `{key}`"));
    let version = take("version")?;
    if version != ARTIFACT_VERSION.to_string() {
        return Err(format!(
            "unsupported artifact version {version} (expected {ARTIFACT_VERSION})"
        ));
    }
    let violation = take("violation")?;
    if !VIOLATION_TOKENS.contains(&violation) {
        return Err(format!("unknown violation kind `{violation}`"));
    }
    let queue = take("queue")?;
    let queue = QueueKind::parse(queue).ok_or_else(|| format!("unknown queue `{queue}`"))?;
    let mut int = |key: &str| {
        let v = take(key)?;
        v.parse::<u64>()
            .map_err(|_| format!("bad value `{v}` for `{key}`"))
    };
    let run = FuzzRun {
        queue,
        seed: int("seed")?,
        threads: int("threads")? as usize,
        ops_per_thread: int("ops-per-thread")?,
        enq_permille: int("enq-permille")?,
        machine: MachineConfig::from_text(&machine)?,
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown key `{k}`"));
    }
    if run.threads == 0 || run.threads > run.machine.cores {
        return Err(format!(
            "{} threads do not fit the machine's {} cores",
            run.threads, run.machine.cores
        ));
    }
    Ok(Artifact {
        run,
        violation: violation.to_string(),
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
    use crate::plan::FuzzPlan;

    fn artifact(plan: &FuzzPlan) -> String {
        render_artifact(
            &plan.run(),
            &Violation::Ord {
                first: 1,
                second: 2,
            },
            &[],
        )
    }

    #[test]
    fn runs_roundtrip_through_text() {
        for seed in 0..32 {
            let mut plan = FuzzPlan::derive(seed, None);
            // A shrunk plan's fields diverge from the seed derivation;
            // the artifact must carry the run, not the seed.
            plan.ops_per_thread = 2;
            plan.threads = 2;
            plan.spurious_ppm = 0;
            let v = Violation::Repeat { value: 7 };
            let text = render_artifact(&plan.run(), &v, &[]);
            assert!(text.contains(&plan.machine().to_text()));
            let art = parse_artifact(&text).expect("parse");
            assert_eq!(art.run, plan.run());
            assert_eq!(art.violation, "repeat");
        }
    }

    #[test]
    fn violation_tokens_parse_back() {
        let good = artifact(&FuzzPlan::derive(5, None));
        let kinds = [
            Violation::Fresh { value: 1 },
            Violation::Repeat { value: 1 },
            Violation::Ord {
                first: 1,
                second: 2,
            },
            Violation::Wit {
                witness: 1,
                deq_thread: 0,
            },
            Violation::Malformed {
                reason: String::new(),
            },
        ];
        for v in &kinds {
            let token = violation_token(v);
            let text = good.replace("violation ord", &format!("violation {token}"));
            assert_eq!(parse_artifact(&text).expect("parse").violation, token);
        }
        assert_eq!(kinds.map(|v| violation_token(&v)), VIOLATION_TOKENS);
    }

    #[test]
    fn queue_tokens_parse_back() {
        for q in crate::plan::FUZZ_QUEUES {
            assert_eq!(QueueKind::parse(&queue_token(q)), Some(q));
        }
    }

    #[test]
    fn parse_rejects_bad_keys_and_values() {
        assert!(parse_artifact("").is_err());
        let good = artifact(&FuzzPlan::derive(5, None));
        let err = |text: String| parse_artifact(&text).unwrap_err();
        assert!(err(good.replace("version 4", "version 999")).contains("version 999"));
        assert!(err(good.replace("\nthreads ", "\nthread-count ")).contains("`threads`"));
        assert!(err(good.replace("\nthreads ", "\nthreads soon")).contains("`threads`"));
        assert!(err(good.replace("\nthreads ", "\nthreads 9")).contains("do not fit"));
        assert!(err(format!("{good}threads 3\n")).contains("duplicate key `threads`"));
        assert!(err(format!("{good}timer-period 9\n")).contains("unknown key `timer-period`"));
        assert!(err(format!("{good}hop-intra=1\n")).contains("duplicate machine key"));
        assert!(err(format!("{good}hop=1\n")).contains("unknown machine key `hop`"));
        // A machine the engine does not model is no reproducer either.
        let per_socket = format!(
            "cores-per-socket={}\n",
            FuzzPlan::derive(5, None).machine().cores_per_socket
        );
        let past_bound = good
            .replace(&per_socket, "cores-per-socket=1\n")
            .replace("hop-cross=110\n", "hop-cross=12\n");
        assert!(err(past_bound).contains("hop-intra (25) must be at most 2 × hop-cross (12)"));
        for kind in ["nolinearization", "wti", ""] {
            let bad = good.replace("violation ord", &format!("violation {kind}"));
            assert!(err(bad).contains("unknown violation kind"), "{kind:?}");
        }
    }

    /// A v2 artifact carried ten plan knobs instead of a machine; it is
    /// rejected by version before any of its keys are read.
    #[test]
    fn parse_rejects_v2_artifacts() {
        let v2 = "version 2\nviolation repeat\nqueue msqueue\nseed 3\nthreads 2\n\
                  ops-per-thread 4\nenq-permille 500\nspurious-ppm 0\njitter-pct 9\n\
                  sched-perturb 0\ncapacity-lines 0\ndual-socket 0\nmicroarch-fix 1\n\
                  machine-seed 77\npreempt-period 0\npreempt-cost 100\ntimer-period 0\n";
        let e = parse_artifact(v2).unwrap_err();
        assert!(e.contains("unsupported artifact version 2"), "{e}");
    }
}
