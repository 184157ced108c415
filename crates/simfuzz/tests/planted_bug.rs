//! End-to-end self-test of the harness against a known defect: with the
//! `planted-bug` feature, the MS-queue dequeue treats a lost head-swing
//! CAS as a win, so two contending dequeuers can return the same value
//! (a `Repeat` violation). The harness must find it, shrink it to a
//! minimal plan, write a reproducer artifact, and replay it
//! deterministically.
//!
//! Gated on the feature so a default-features build compiles this file
//! to nothing; run with
//! `cargo test -p simfuzz --features planted-bug --release`.
#![cfg(feature = "planted-bug")]

use linearize::Violation;
use simfuzz::{reproduce, run_campaign, run_plan, CampaignConfig, FuzzPlan, QueueKind};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simfuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn campaign_finds_shrinks_and_replays_the_planted_bug() {
    let dir = temp_dir("planted");
    let cfg = CampaignConfig {
        seeds: 64,
        start_seed: 0,
        queue: Some(QueueKind::MsQueue),
        backend: simfuzz::BackendKind::Sim,
        artifacts_dir: Some(dir.clone()),
        jobs: 1,
    };
    let report = run_campaign(&cfg, |_, _, _| {});
    assert!(
        !report.failures.is_empty(),
        "64 seeds over the planted bug found nothing"
    );

    let f = &report.failures[0];
    let shrunk = f.shrunk.as_ref().expect("sim failures always shrink");
    assert!(
        matches!(shrunk.violation, Violation::Repeat { .. }),
        "planted bug is a duplicated dequeue, got {:?}",
        shrunk.violation
    );

    // The shrunk plan is itself a reproducer...
    let rerun = run_plan(&shrunk.plan);
    assert!(
        matches!(rerun.violation, Some(Violation::Repeat { .. })),
        "shrunk plan no longer fails: {:?}",
        rerun.violation
    );
    // ...and it is 1-minimal along the shrink dimensions: growing was
    // never tried, but every single-step reduction must have been either
    // tried-and-rejected or out of range. Spot-check the two workload
    // dimensions.
    if shrunk.plan.ops_per_thread > 1 {
        let mut smaller = shrunk.plan.clone();
        smaller.ops_per_thread -= 1;
        let out = run_plan(&smaller);
        assert!(
            !matches!(out.violation, Some(Violation::Repeat { .. })),
            "shrink missed a smaller op count"
        );
    }
    if shrunk.plan.threads > 2 {
        let mut smaller = shrunk.plan.clone();
        smaller.threads -= 1;
        let out = run_plan(&smaller);
        assert!(
            !matches!(out.violation, Some(Violation::Repeat { .. })),
            "shrink missed a smaller thread count"
        );
    }
    // The minimized witness actually exhibits the duplicate.
    assert!(shrunk.witness.len() >= 2);

    // The artifact stores the shrunk plan's exact machine and replays
    // its run bit-identically, to the same violation kind.
    let path = f.artifact.as_ref().expect("artifact written");
    let text = std::fs::read_to_string(path).expect("artifact readable");
    let machine: String = text
        .lines()
        .filter(|l| !l.starts_with('#') && l.contains('='))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(machine, shrunk.plan.machine().to_text());
    let r1 = reproduce(path).expect("replay");
    let r2 = reproduce(path).expect("replay");
    assert!(
        r1.reproduced,
        "replay did not reproduce: {:?}",
        r1.violation
    );
    assert_eq!(r1.fingerprint, r2.fingerprint);
    assert_eq!(r1.fingerprint, rerun.fingerprint);

    // A Chrome trace of the violating run sits next to the reproducer,
    // parses against the trace schema, and actually shows the violating
    // operations: dequeue spans, and the duplicated value as a span arg.
    let tpath = f.trace.as_ref().expect("trace written beside artifact");
    assert_eq!(tpath.extension().and_then(|e| e.to_str()), Some("trace"));
    let text = std::fs::read_to_string(tpath).expect("trace readable");
    let sum = obs::validate(&text).expect("trace validates against the schema");
    assert!(sum.spans > 0, "trace has no op spans: {sum:?}");
    assert!(
        sum.names.contains("dequeue"),
        "violating dequeue spans missing from trace: {:?}",
        sum.names
    );
    assert!(
        sum.names.contains("enqueue"),
        "enqueue spans missing from trace: {:?}",
        sum.names
    );
    let Violation::Repeat { value } = shrunk.violation else {
        unreachable!("asserted Repeat above");
    };
    assert!(
        text.contains(&format!("\"v\":\"{value:#x}\"")),
        "duplicated value {value:#x} not visible in trace args"
    );
    // Same plan, same simulation: the trace is byte-stable.
    assert_eq!(text, simfuzz::trace_plan(&shrunk.plan));
    std::fs::remove_dir_all(&dir).ok();
}

/// The pool's determinism-of-merge contract, exercised on a campaign
/// that actually fails: whatever the worker count and however the host
/// schedules them, the parallel campaign must report the same failures
/// in the same (ascending seed) order and write byte-identical artifact
/// and trace files. In particular "the first failure" is the *lowest*
/// failing seed, not the first job to finish.
#[test]
fn parallel_campaign_reports_lowest_seed_and_identical_artifacts() {
    let serial_dir = temp_dir("planted-serial");
    let parallel_dir = temp_dir("planted-parallel");
    let cfg = |dir: &std::path::Path, jobs: usize| CampaignConfig {
        seeds: 64,
        start_seed: 0,
        queue: Some(QueueKind::MsQueue),
        backend: simfuzz::BackendKind::Sim,
        artifacts_dir: Some(dir.to_path_buf()),
        jobs,
    };
    let mut serial_progress = Vec::new();
    let serial = run_campaign(&cfg(&serial_dir, 1), |seed, _, f| {
        serial_progress.push((seed, f.is_some()));
    });
    let mut parallel_progress = Vec::new();
    let parallel = run_campaign(&cfg(&parallel_dir, 8), |seed, _, f| {
        parallel_progress.push((seed, f.is_some()));
    });

    // Progress callbacks fire in ascending seed order on both paths.
    assert_eq!(serial_progress, parallel_progress);
    assert_eq!(
        serial_progress,
        (0..64)
            .map(|s| (s, serial_progress[s as usize].1))
            .collect::<Vec<_>>()
    );

    assert!(!serial.failures.is_empty());
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.failures.len(), parallel.failures.len());
    let lowest = serial.failures.iter().map(|f| f.seed).min().unwrap();
    assert_eq!(
        parallel.failures[0].seed, lowest,
        "first reported failure must be the lowest failing seed"
    );
    for (a, b) in serial.failures.iter().zip(&parallel.failures) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(format!("{}", a.kind), format!("{}", b.kind));
    }

    // The artifact directories are byte-identical, file for file.
    let list = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("artifacts dir exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let names = list(&serial_dir);
    assert_eq!(names, list(&parallel_dir), "artifact sets differ");
    assert!(!names.is_empty());
    for name in &names {
        let a = std::fs::read(serial_dir.join(name)).unwrap();
        let b = std::fs::read(parallel_dir.join(name)).unwrap();
        assert_eq!(a, b, "artifact {name} differs between jobs=1 and jobs=8");
    }

    let pool = parallel.pool.expect("campaign reports its pool");
    assert_eq!(pool.tasks as u64, parallel.runs);
    assert_eq!(pool.jobs, 8);
    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&parallel_dir).ok();
}

#[test]
fn pristine_queues_stay_clean_even_with_the_feature_on() {
    // The feature touches only the MS queue; the SBQ variants must still
    // pass, proving the harness's signal comes from the planted defect
    // and not from fault injection itself.
    for seed in 0..4 {
        let plan = FuzzPlan::derive(seed, Some(QueueKind::SbqHtm));
        assert_eq!(run_plan(&plan).violation, None, "seed {seed}");
    }
}
