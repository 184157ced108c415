//! The `simctl` command-line surface, driven through the built binary:
//! the help text names every subcommand and machine key, retired
//! subcommands and keys and malformed arguments, including zero or
//! too-small counts, exit 2 with the usage text, and `simctl check`
//! accepts the documents simctl writes.

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

/// Asserts `simctl args` exits 2 and prints the usage text on stderr,
/// and returns that stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let out = simctl(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "simctl {args:?}: {stderr}");
    assert!(
        stderr.contains("usage:"),
        "simctl {args:?} should print usage: {stderr}"
    );
    stderr
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
            "fuzz",
            "load",
            "scenario",
            "check",
            "help",
        ] {
            assert!(
                help.contains(&format!("simctl {cmd} ")),
                "help is missing `simctl {cmd}`:\n{help}"
            );
        }
        // Retired entry points stay out of the help text.
        for gone in ["simctl bench", "figures", "trace-validate", "load-check"] {
            assert!(!help.contains(gone), "help still names `{gone}`:\n{help}");
        }
    }
}

#[test]
fn retired_bench_subcommands_are_usage_errors() {
    assert_usage_error(&["bench"]);
    assert_usage_error(&["bench-check", "x.json"]);
}

/// `simctl check` replaced the two per-format checkers, and a key that
/// only wrote a second copy of stdout is gone: redirect stdout instead.
#[test]
fn retired_checkers_and_stdout_copies_are_usage_errors() {
    assert_usage_error(&["trace-validate", "x"]);
    assert_usage_error(&["load-check", "x"]);
    assert_usage_error(&["fig", "fig1", "out=x"]);
    assert_usage_error(&["load", "sbq-htm", "tsv-out=x"]);
    assert_usage_error(&["scenario", "preempt", "out=x"]);
}

/// `simctl check` tells a Chrome trace from a load document by content:
/// exit 0 on either as simctl writes it, 1 on JSON of neither kind and
/// on non-JSON, 2 on a file it cannot read.
#[test]
fn check_accepts_what_simctl_writes() {
    let dir = std::env::temp_dir().join(format!("sbq-simctl-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (trace, load) = (path("trace.json"), path("load.json"));
    let out = simctl(&[
        "trace",
        "ms",
        "producer",
        "2",
        "ops=4",
        &format!("out={trace}"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = simctl(&[
        "load",
        "ms",
        "requests=8",
        "rates=100000",
        &format!("out={load}"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::write(path("neither.json"), r#"{"points": []}"#).unwrap();
    std::fs::write(path("text.json"), "not json").unwrap();
    for (file, code) in [
        (trace, 0),
        (load, 0),
        (path("neither.json"), 1),
        (path("text.json"), 1),
        (path("missing.json"), 2),
    ] {
        let out = simctl(&["check", &file]);
        assert_eq!(
            out.status.code(),
            Some(code),
            "simctl check {file}: {out:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_unknown_keys_are_usage_errors() {
    assert_usage_error(&["fig", "fig1", "ops=abc"]);
    assert_usage_error(&["fig", "fig1", "nope=1"]);
    // A key that exists, but not for this figure.
    assert_usage_error(&["fig", "fig1", "grid=2x88"]);
    assert_usage_error(&["no-such-queue", "producer", "2"]);
    // Retired spellings of hop-intra, microarch-fix and home-policy, the
    // machine keys simctl sets itself, and a component the machine lacks
    // a core for.
    for key in "hop=30 fix=1 policy=interleave cores=2 cores-per-socket=2".split(' ') {
        assert_usage_error(&["ms", "producer", "2", key]);
    }
    assert_usage_error(&["trace", "ms", "producer", "2", "trace=0"]);
    assert_usage_error(&["ms", "producer", "2", "components=tick-gate:5:100:0:0"]);
    // The native backend has no machine; its machine keys used to be
    // ignored.
    assert_usage_error(&["ms", "producer", "2", "backend=native", "hop=999", "fix=1"]);
    assert_usage_error(&["ms", "producer", "2", "backend=native", "hop-intra=9"]);
    assert_usage_error(&["ms", "producer", "2", "backend=native", "sockets=2"]);
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
    assert_usage_error(&["load", "sbq-htm", "requests=0"]);
    // Zero sockets ran on one socket; zero-width figure points printed
    // NaN rows.
    assert_usage_error(&["sbq-htm", "producer", "4", "sockets=0"]);
    assert_usage_error(&["fig", "fig1", "threads=0"]);
    assert_usage_error(&["fig", "numa", "grid=2x0"]);
    // Zero ops printed NaN latencies and infinite durations, wrote an
    // empty trace, or ran a mixed workload at 8 ops per thread.
    assert_usage_error(&["sbq-htm", "producer", "1", "ops=0"]);
    assert_usage_error(&["ms", "consumer", "2", "ops=0", "backend=native"]);
    assert_usage_error(&["ms", "mixed", "2", "ops=0"]);
    assert_usage_error(&["trace", "ms", "producer", "2", "ops=0"]);
    assert_usage_error(&["fig", "fig1", "ops=0", "threads=1"]);
    assert_usage_error(&["fig", "numa", "ops=0", "grid=1x2"]);
    // An intra-socket hop slower than two cross-socket hops lets an Inv
    // overtake a reader's data, a race the engine does not model; such
    // a run used to print rows from it.
    let hops = ["sockets=2", "hop-intra=300", "hop-cross=10"];
    let stderr = assert_usage_error(&[&["sbq-htm", "mixed", "8", "ops=200"][..], &hops].concat());
    assert!(stderr.contains("hop-intra (300) must be at most 2 × hop-cross (10)"));
}

/// Every `MachineConfig` field is a key of the single-run grammar, by
/// its text-form name, except the three simctl sets itself; help lists
/// exactly those.
#[test]
fn machine_keys_follow_the_field_table() {
    let help = String::from_utf8_lossy(&simctl(&["help"]).stdout).into_owned();
    let (_, listing) = help
        .split_once("\nmachine keys")
        .expect("a machine-key list");
    let listing = listing.split("\n\n").next().unwrap();
    let own = ["cores", "cores-per-socket", "trace"];
    for key in coherence::MachineConfig::keys() {
        let listed = listing.split_whitespace().any(|w| w == key);
        assert_eq!(listed, !own.contains(&&*key), "help and `{key}`:\n{help}");
    }
    let run = "ms producer 2 ops=4 hop-intra=30 microarch-fix=1 home-policy=first-touch \
               components=interrupt:900:450:60:rr";
    let out = simctl(&run.split_whitespace().collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
