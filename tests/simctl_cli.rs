//! The `simctl` command-line surface, driven through the built binary:
//! the help text names every subcommand, and retired subcommands and
//! malformed arguments exit 2 with the usage text.

use std::process::{Command, Output};

fn simctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simctl"))
        .args(args)
        .output()
        .expect("spawn simctl")
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
