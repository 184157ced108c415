//! # simfuzz — deterministic schedule-exploration fuzzer
//!
//! Randomized concurrent-queue workloads with fault injection, full
//! linearizability checking, and shrinking of failures to replayable
//! text artifacts — on either execution backend of the
//! [`harness`] crate: the coherence simulator (default) or native
//! atomics (`simctl fuzz backend=native`).
//!
//! One **seed** determines one run completely ([`FuzzPlan::derive`]):
//! the queue under test (rotating over every implementation in the
//! tree), thread count, per-thread op streams, and the perturbation
//! knobs — spurious-abort probability, transactional capacity limit,
//! delay-jitter extremes, scheduler-choice perturbation, topology, and
//! the §3.4.1 microarchitectural fix. The run records every operation
//! through [`linearize::Recorder`] (via [`harness::record_history`]) and
//! checks the merged history with the exact
//! [`linearize::check_queue_linearizable`], so every seed gets a
//! verdict.
//!
//! On the simulator a violation is shrunk: [`shrink_plan`] greedily
//! minimizes the plan (fewer ops, fewer threads, fewer fault knobs)
//! while preserving the violation kind, minimizes the witness history
//! event-by-event, and the campaign driver writes a
//! `fuzz-artifacts/<queue>-seed<n>.repro` file that `simctl fuzz
//! repro=` replays bit-exactly.
//!
//! Campaigns fan their seeds across a [`runner`] job pool
//! ([`CampaignConfig::jobs`]); since every plan is self-contained and
//! deterministic, the only serial part is the in-order merge, which
//! keeps reports and artifacts byte-identical to a serial campaign.
//!
//! On the native backend each seed's plan runs on real OS threads *and*
//! on the simulator, both draining the queue after the op phase; the
//! campaign fails a seed if either history is non-linearizable or the
//! drained dequeue multisets disagree. Native schedules are not
//! reproducible, so a native-only failure is reported unshrunken; when
//! the simulator reproduces the violation deterministically, the usual
//! shrink-and-artifact pipeline runs.

pub mod artifact;
pub mod plan;
pub mod run;
pub mod shrink;

pub use artifact::{
    parse_artifact, read_artifact, render_artifact, write_artifact, Artifact, ARTIFACT_VERSION,
};
pub use harness::{BackendKind, QueueKind, QueueParams};
pub use plan::{FuzzPlan, FuzzRun, FUZZ_QUEUES};
pub use run::{
    crosscheck_plan, run_native, run_plan, run_sim, trace_plan, CrosscheckOutcome, RunOutcome,
};
pub use shrink::{shrink_plan, ShrinkOutcome, DEFAULT_SHRINK_BUDGET};

use linearize::Violation;
use std::path::{Path, PathBuf};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of consecutive seeds to run.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Pin every run to one queue instead of rotating over
    /// [`FUZZ_QUEUES`].
    pub queue: Option<QueueKind>,
    /// Execution backend. [`BackendKind::Native`] cross-checks every seed
    /// against a drained simulator run of the same plan.
    pub backend: BackendKind,
    /// Where to write reproducer artifacts for failures; `None` skips
    /// writing (failures are still shrunk and reported).
    pub artifacts_dir: Option<PathBuf>,
    /// Worker threads for the seed pool: each seed runs (and shrinks) as
    /// one independent job. `0` means auto ([`runner::default_jobs`]).
    /// Results are merged in **seed order** whatever the worker count,
    /// so reports, progress callbacks, and artifact files are
    /// byte-identical to a `jobs = 1` run.
    pub jobs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: 64,
            start_seed: 0,
            queue: None,
            backend: BackendKind::Sim,
            artifacts_dir: Some(PathBuf::from("fuzz-artifacts")),
            jobs: 1,
        }
    }
}

/// Why a seed failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A recorded history failed the linearizability checker; the name
    /// tells which backend's history ("sim" / "native").
    Violation {
        backend: &'static str,
        violation: Violation,
    },
    /// Native cross-check: the drained dequeue multisets of the sim and
    /// native runs disagreed (sizes attached for diagnostics).
    MultisetMismatch { sim: usize, native: usize },
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Violation { backend, violation } => {
                write!(f, "[{backend}] {violation}")
            }
            FailureKind::MultisetMismatch { sim, native } => write!(
                f,
                "drained multisets disagree: sim dequeued {sim} values, native {native}"
            ),
        }
    }
}

/// One recorded campaign failure.
#[derive(Debug)]
pub struct CampaignFailure {
    /// The seed whose derived plan failed.
    pub seed: u64,
    /// What went wrong.
    pub kind: FailureKind,
    /// The minimized reproducer, present when the (deterministic)
    /// simulator reproduces the failure; a native-only failure cannot be
    /// shrunk and carries `None`.
    pub shrunk: Option<ShrinkOutcome>,
    /// Artifact path, if the failure was shrunk, an artifacts dir was
    /// configured, and the write succeeded.
    pub artifact: Option<PathBuf>,
    /// Chrome trace of the shrunk plan (`<artifact>.trace`), written
    /// beside the reproducer so the violating schedule can be inspected
    /// on a timeline (Perfetto / `chrome://tracing`).
    pub trace: Option<PathBuf>,
}

/// Campaign result.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Seeds run.
    pub runs: u64,
    /// Failures, in ascending seed order (the pool merges in submission
    /// order, so "the first failure" is always the lowest failing seed,
    /// not the first job to finish); empty means the campaign was clean.
    pub failures: Vec<CampaignFailure>,
    /// Job-pool measurements: per-seed wall latencies and worker spans.
    /// `None` only on a default-constructed report.
    pub pool: Option<runner::JobReport>,
}

/// Everything one seed's job computes away from the merge path. The
/// expensive work — the run itself, shrinking, and the shrunk plan's
/// trace re-run — happens here, inside the worker; only deterministic
/// rendering and file writes are left for the in-order merge.
struct SeedOutcome {
    seed: u64,
    queue_name: &'static str,
    kind: Option<FailureKind>,
    shrunk: Option<ShrinkOutcome>,
    /// Chrome trace of the shrunk plan, pre-rendered (deterministic, so
    /// the bytes cannot depend on which worker produced them).
    trace_text: Option<String>,
}

fn run_seed(
    seed: u64,
    queue: Option<QueueKind>,
    backend: BackendKind,
    want_trace: bool,
) -> SeedOutcome {
    let plan = FuzzPlan::derive(seed, queue);
    let kind = match backend {
        BackendKind::Sim => run_plan(&plan)
            .violation
            .map(|violation| FailureKind::Violation {
                backend: "sim",
                violation,
            }),
        BackendKind::Native => {
            let out = crosscheck_plan(&plan);
            if let Some(violation) = out.native.violation {
                Some(FailureKind::Violation {
                    backend: "native",
                    violation,
                })
            } else if let Some(violation) = out.sim.violation {
                Some(FailureKind::Violation {
                    backend: "sim",
                    violation,
                })
            } else if !out.multisets_agree {
                Some(FailureKind::MultisetMismatch {
                    sim: harness::dequeue_multiset(&out.sim.history).len(),
                    native: harness::dequeue_multiset(&out.native.history).len(),
                })
            } else {
                None
            }
        }
    };
    let queue_name = plan.queue.name();
    let Some(kind) = kind else {
        return SeedOutcome {
            seed,
            queue_name,
            kind: None,
            shrunk: None,
            trace_text: None,
        };
    };
    // Shrinking replays on the simulator, which is deterministic;
    // it reproduces (and hence shrinks) every sim failure, while a
    // native-only failure yields `None` and is reported as-is.
    let shrunk = shrink_plan(&plan, DEFAULT_SHRINK_BUDGET);
    // The timeline companion: the shrunk plan re-run with
    // observability on (which cannot change the schedule).
    let trace_text = match (&shrunk, want_trace) {
        (Some(s), true) => Some(trace_plan(&s.plan)),
        _ => None,
    };
    SeedOutcome {
        seed,
        queue_name,
        kind: Some(kind),
        shrunk,
        trace_text,
    }
}

/// Runs `cfg.seeds` consecutive plans on `cfg.backend`, fanned across
/// `cfg.jobs` worker threads; shrinks every sim-reproducible failure and
/// writes its reproducer artifact. `progress` is called once per seed in
/// **ascending seed order** with `(seed, queue name, failure if any)` —
/// pass `|_, _, _| {}` when silence is wanted. Artifact writes happen on
/// the merge path in the same order, so the artifact directory is
/// byte-identical for any worker count.
pub fn run_campaign(
    cfg: &CampaignConfig,
    mut progress: impl FnMut(u64, &'static str, Option<&FailureKind>),
) -> CampaignReport {
    let jobs = if cfg.jobs == 0 {
        runner::default_jobs()
    } else {
        cfg.jobs
    };
    let want_trace = cfg.artifacts_dir.is_some();
    let tasks: Vec<_> = (cfg.start_seed..cfg.start_seed + cfg.seeds)
        .map(|seed| {
            let (queue, backend) = (cfg.queue, cfg.backend);
            move || run_seed(seed, queue, backend, want_trace)
        })
        .collect();
    let mut report = CampaignReport::default();
    let pool = runner::run_ordered(jobs, tasks, |_, out: SeedOutcome| {
        report.runs += 1;
        progress(out.seed, out.queue_name, out.kind.as_ref());
        let Some(kind) = out.kind else { return };
        let (artifact, trace) = match (&out.shrunk, cfg.artifacts_dir.as_deref()) {
            (Some(s), Some(dir)) => {
                let artifact = write_artifact(dir, &s.plan.run(), &s.violation, &s.witness).ok();
                let trace = match (&artifact, &out.trace_text) {
                    (Some(p), Some(text)) => {
                        let tp = p.with_extension("trace");
                        std::fs::write(&tp, text).ok().map(|()| tp)
                    }
                    _ => None,
                };
                (artifact, trace)
            }
            _ => (None, None),
        };
        report.failures.push(CampaignFailure {
            seed: out.seed,
            kind,
            shrunk: out.shrunk,
            artifact,
            trace,
        });
    });
    report.pool = Some(pool);
    report
}

/// Result of replaying an artifact.
#[derive(Debug)]
pub struct ReproOutcome {
    /// Violation kind token recorded in the artifact.
    pub expected: String,
    /// What the replay actually produced.
    pub violation: Option<Violation>,
    /// True iff the replay produced a violation of the recorded kind.
    pub reproduced: bool,
    /// Replay fingerprint (for determinism checks across replays).
    pub fingerprint: String,
}

/// Replays a reproducer artifact (on the simulator — artifacts are only
/// written for deterministic failures) through the campaign's own
/// [`run_sim`] and checks it still fails the same way.
pub fn reproduce(path: &Path) -> Result<ReproOutcome, String> {
    let art = read_artifact(path)?;
    let out = run_sim(&art.run, false);
    let reproduced = out
        .violation
        .as_ref()
        .is_some_and(|v| artifact::violation_token(v) == art.violation);
    Ok(ReproOutcome {
        expected: art.violation,
        violation: out.violation,
        reproduced,
        fingerprint: out.fingerprint,
    })
}
