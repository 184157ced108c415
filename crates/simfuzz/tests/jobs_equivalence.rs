//! Serial/parallel equivalence for the campaign job pool: a campaign's
//! observable output — report fields, progress-callback order, rendered
//! traces — may not depend on the worker count. The failing-campaign
//! half of this contract (artifact byte-identity, lowest-seed-wins)
//! needs a queue that fails: the MS-queue mutant in `tests/mutants/`
//! checks it on `simctl fuzz` with the defect patched in.

use simfuzz::{run_campaign, trace_plan, CampaignConfig, FuzzPlan, FUZZ_QUEUES};

/// One clean rotation over every queue: jobs=1 and jobs=4 campaigns
/// must report identically and call `progress` in the same order.
#[test]
fn clean_campaign_report_is_independent_of_worker_count() {
    let cfg = |jobs: usize| CampaignConfig {
        seeds: 2 * FUZZ_QUEUES.len() as u64,
        start_seed: 0,
        queue: None,
        backend: simfuzz::BackendKind::Sim,
        artifacts_dir: None,
        jobs,
    };
    let mut serial_progress = Vec::new();
    let serial = run_campaign(&cfg(1), |seed, queue, f| {
        serial_progress.push((seed, queue, f.is_some()));
    });
    let mut parallel_progress = Vec::new();
    let parallel = run_campaign(&cfg(4), |seed, queue, f| {
        parallel_progress.push((seed, queue, f.is_some()));
    });

    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.failures.len(), parallel.failures.len());
    assert_eq!(
        serial_progress, parallel_progress,
        "progress order must be seed order on both paths"
    );
    let seeds: Vec<u64> = serial_progress.iter().map(|(s, _, _)| *s).collect();
    assert_eq!(seeds, (0..serial.runs).collect::<Vec<_>>());

    // Both campaigns measured their pools; the parallel one really used
    // more than one worker.
    let sp = serial.pool.expect("serial pool report");
    let pp = parallel.pool.expect("parallel pool report");
    assert_eq!(sp.tasks as u64, serial.runs);
    assert_eq!(pp.tasks as u64, parallel.runs);
    assert_eq!(sp.jobs, 1);
    assert_eq!(pp.jobs, 4);
}

/// `jobs: 0` resolves to the auto worker count and must not change the
/// report either.
#[test]
fn auto_jobs_matches_serial() {
    let cfg = |jobs: usize| CampaignConfig {
        seeds: FUZZ_QUEUES.len() as u64,
        start_seed: 3,
        queue: None,
        backend: simfuzz::BackendKind::Sim,
        artifacts_dir: None,
        jobs,
    };
    let serial = run_campaign(&cfg(1), |_, _, _| {});
    let auto = run_campaign(&cfg(0), |_, _, _| {});
    assert_eq!(serial.runs, auto.runs);
    assert_eq!(serial.failures.len(), auto.failures.len());
    assert!(auto.pool.expect("pool report").jobs >= 1);
}

/// The Chrome trace of a plan is rendered from simulated time, so the
/// bytes cannot depend on which worker produced them — pin that by
/// rendering the same plans serially and through a pool.
#[test]
fn plan_traces_are_byte_identical_across_worker_counts() {
    let plans: Vec<FuzzPlan> = (0..6).map(|s| FuzzPlan::derive(s, None)).collect();
    let serial: Vec<String> = plans.iter().map(trace_plan).collect();
    let tasks: Vec<_> = plans.iter().map(|p| move || trace_plan(p)).collect();
    let (parallel, report) = runner::run_all(4, tasks);
    assert_eq!(serial, parallel);
    assert_eq!(report.tasks, plans.len());
}
