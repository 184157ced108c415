//! Smoke coverage for the fuzz harness itself: a small clean campaign
//! over every queue with fault injection active, campaign determinism,
//! and the artifact round trip through the filesystem.

use linearize::Violation;
use simfuzz::{
    read_artifact, reproduce, run_campaign, run_plan, run_sim, write_artifact, CampaignConfig,
    FuzzPlan, FUZZ_QUEUES,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simfuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn small_campaign_is_clean_on_every_queue() {
    // 2 × FUZZ_QUEUES seeds so the rotation covers each implementation
    // at least twice, with the full perturbation mix enabled.
    let cfg = CampaignConfig {
        seeds: 2 * FUZZ_QUEUES.len() as u64,
        start_seed: 0,
        queue: None,
        backend: simfuzz::BackendKind::Sim,
        artifacts_dir: None,
        jobs: 1,
    };
    let report = run_campaign(&cfg, |_, _, _| {});
    assert_eq!(report.runs, cfg.seeds);
    let unexpected: Vec<_> = report.failures.iter().map(|f| (f.seed, &f.kind)).collect();
    assert!(
        unexpected.is_empty(),
        "unexpected violations: {unexpected:?}"
    );
}

#[test]
fn small_native_campaign_is_clean() {
    // One full rotation over every queue on real OS threads, each seed
    // cross-checked against a drained simulator run of the same plan.
    let cfg = CampaignConfig {
        seeds: FUZZ_QUEUES.len() as u64,
        start_seed: 0,
        queue: None,
        backend: simfuzz::BackendKind::Native,
        artifacts_dir: None,
        jobs: 1,
    };
    let report = run_campaign(&cfg, |_, _, _| {});
    assert_eq!(report.runs, cfg.seeds);
    let unexpected: Vec<_> = report.failures.iter().map(|f| (f.seed, &f.kind)).collect();
    assert!(
        unexpected.is_empty(),
        "unexpected native failures: {unexpected:?}"
    );
}

#[test]
fn campaigns_are_deterministic() {
    for seed in 0..8 {
        let plan = FuzzPlan::derive(seed, None);
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed} diverged");
    }
}

#[test]
fn artifact_roundtrips_through_filesystem_and_replays() {
    // A clean plan still replays: `reproduce` must report the replay did
    // NOT match the recorded violation (there is none to match), while
    // the replay is the campaign's own run of the same plan.
    let dir = temp_dir("roundtrip");
    let plan = FuzzPlan::derive(5, None);
    let v = Violation::Repeat { value: 42 };
    let path = write_artifact(&dir, &plan.run(), &v, &[]).expect("write");
    let art = read_artifact(&path).expect("read");
    assert_eq!(art.run, plan.run());
    assert_eq!(art.violation, "repeat");

    let r1 = reproduce(&path).expect("replay");
    let r2 = reproduce(&path).expect("replay");
    assert!(!r1.reproduced, "clean plan cannot reproduce a violation");
    assert_eq!(r1.fingerprint, r2.fingerprint);
    assert_eq!(r1.fingerprint, run_plan(&plan).fingerprint);
    assert_eq!(r1.fingerprint, run_sim(&art.run, false).fingerprint);
    std::fs::remove_dir_all(&dir).ok();
}
