//! The `simctl` command-line surface, driven through the built binary:
//! the help text names every subcommand, and retired subcommands and
//! malformed arguments, including zero or too-small counts, exit 2 with
//! the usage text.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// How long one `simctl` call may run. Every call here is meant to exit
/// at once; a malformed count once made a run spin forever, and the
/// deadline turns such a regression into a failure instead of a hang.
const DEADLINE: Duration = Duration::from_secs(60);

fn simctl(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simctl"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn simctl");
    let start = Instant::now();
    while child.try_wait().expect("poll simctl").is_none() {
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("simctl {args:?} did not exit within {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect simctl output")
}

/// Asserts `simctl args` exits 2 and prints the usage text on stderr.
fn assert_usage_error(args: &[&str]) {
    let out = simctl(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "simctl {args:?}: {stderr}");
    assert!(
        stderr.contains("usage:"),
        "simctl {args:?} should print usage: {stderr}"
    );
}

#[test]
fn help_lists_every_subcommand() {
    for flag in ["help", "--help", "-h"] {
        let out = simctl(&[flag]);
        assert_eq!(out.status.code(), Some(0), "simctl {flag}");
        let help = String::from_utf8_lossy(&out.stdout);
        for cmd in [
            "<queue> <workload> <threads>",
            "fig",
            "trace",
            "trace-validate",
            "fuzz",
            "load",
            "load-check",
            "scenario",
            "help",
        ] {
            assert!(
                help.contains(&format!("simctl {cmd} ")),
                "help is missing `simctl {cmd}`:\n{help}"
            );
        }
        // Retired entry points stay out of the help text.
        for gone in ["simctl bench", "figures"] {
            assert!(!help.contains(gone), "help still names `{gone}`:\n{help}");
        }
    }
}

#[test]
fn retired_bench_subcommands_are_usage_errors() {
    assert_usage_error(&["bench"]);
    assert_usage_error(&["bench-check", "x.json"]);
}

#[test]
fn malformed_and_unknown_keys_are_usage_errors() {
    assert_usage_error(&["fig", "fig1", "ops=abc"]);
    assert_usage_error(&["fig", "fig1", "nope=1"]);
    // A key that exists, but not for this figure.
    assert_usage_error(&["fig", "fig1", "grid=2x88"]);
    assert_usage_error(&["no-such-queue", "producer", "2"]);
}

#[test]
fn malformed_counts_are_usage_errors() {
    // A mixed run needs a producer and a consumer: with one thread the
    // lone consumer used to spin on an empty queue forever.
    assert_usage_error(&["ms", "mixed", "1", "ops=4"]);
    assert_usage_error(&["ms", "mixed", "1", "ops=4", "backend=native"]);
    assert_usage_error(&["trace", "ms", "mixed", "1", "ops=4"]);
    // Zero threads, a zero basket, zero scenario workers or ops and a
    // zero offered rate used to panic.
    assert_usage_error(&["sbq-htm", "producer", "0"]);
    assert_usage_error(&["ms", "consumer", "0"]);
    assert_usage_error(&["sbq-htm", "producer", "2", "basket=0"]);
    assert_usage_error(&["scenario", "preempt", "workers=0"]);
    assert_usage_error(&["scenario", "preempt", "ops=0"]);
    assert_usage_error(&["load", "sbq-htm", "rates=0", "requests=8"]);
}
