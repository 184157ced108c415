//! The committed goldens under `data/golden/`: each file is exactly the
//! output of one `simctl` command (its stdout, or a file it writes), and
//! a fresh run of the built binary must reproduce it byte for byte. A
//! change that moves any simulated output therefore shows the move in
//! its diff of these files. On a mismatch the test prints the command
//! that rewrites the golden from the repository root.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long one command may run. The largest, the reduced-scale figure
/// set, takes a few seconds in a debug build; the deadline turns a hang
/// into a failure.
const DEADLINE: Duration = Duration::from_secs(600);

/// Where the goldens live, relative to the repository root.
const GOLDEN_DIR: &str = "data/golden";

/// One golden: the file under [`GOLDEN_DIR`] and where the command puts
/// it — stdout, or the file named by one of its `key=` arguments.
struct Golden {
    file: &'static str,
    key: Option<&'static str>,
}

impl Golden {
    const fn stdout(file: &'static str) -> Golden {
        Golden { file, key: None }
    }

    const fn key(key: &'static str, file: &'static str) -> Golden {
        Golden {
            file,
            key: Some(key),
        }
    }
}

/// A scratch directory for one command's outputs.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbq-goldens-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `simctl args` once, with each golden's `key=` pointing into a
/// scratch directory (other output keys in `args` are written there
/// too), and compares every golden it produces with the committed file.
fn check(tag: &str, args: &[&str], goldens: &[Golden]) {
    let dir = scratch(tag);
    let mut full: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    for g in goldens {
        if let Some(key) = g.key {
            full.push(format!("{key}={}", g.file));
        }
    }
    let stdout_path = dir.join("stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_simctl"))
        .args(&full)
        .current_dir(&dir)
        .stdout(File::create(&stdout_path).expect("create stdout file"))
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn simctl");
    let start = Instant::now();
    while child.try_wait().expect("poll simctl").is_none() {
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("simctl {full:?} did not exit within {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect simctl output");
    assert!(
        out.status.success(),
        "simctl {full:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    for g in goldens {
        let fresh_path = match g.key {
            Some(_) => dir.join(g.file),
            None => stdout_path.clone(),
        };
        let fresh = std::fs::read(&fresh_path).expect("read fresh output");
        let golden_path = root.join(GOLDEN_DIR).join(g.file);
        let golden = std::fs::read(&golden_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
        if fresh != golden {
            stale.push(g.file);
        }
    }
    if !stale.is_empty() {
        // The same command, writing the goldens in place.
        let mut rewrite: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut redirect = String::new();
        for g in goldens {
            let path = format!("{GOLDEN_DIR}/{}", g.file);
            match g.key {
                Some(key) => rewrite.push(format!("{key}={path}")),
                None => redirect = format!(" > {path}"),
            }
        }
        panic!(
            "{stale:?} differ from a fresh run of `simctl {}`; the fresh outputs are in {}.\n\
             If the change is intended, rewrite the goldens from the repository root with\n  \
             cargo run --release --bin simctl -- {}{redirect}",
            full.join(" "),
            dir.display(),
            rewrite.join(" ")
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_figure_at_reduced_scale() {
    check(
        "fig",
        &[
            "fig",
            "all",
            "ops=30",
            "threads=1,2,4",
            "grid=1x4,2x8",
            "jobs=1",
        ],
        &[Golden::stdout("fig_all.tsv")],
    );
}

#[test]
fn sim_trace_spans() {
    // The JSON document (3.7 MB) lands in the scratch directory under its
    // default name; `tests/obs_trace.rs` pins its byte-stability.
    check(
        "trace",
        &["trace", "sbq-htm", "producer", "4", "ops=60"],
        &[Golden::key("tsv-out", "trace_sbq_htm_producer_4.tsv")],
    );
}

#[test]
fn scenario_summaries() {
    check(
        "preempt",
        &["scenario", "preempt"],
        &[Golden::stdout("scenario_preempt.txt")],
    );
    check(
        "timer",
        &["scenario", "timer"],
        &[Golden::stdout("scenario_timer.txt")],
    );
    check(
        "dma",
        &["scenario", "dma"],
        &[Golden::stdout("scenario_dma.txt")],
    );
}

#[test]
fn load_sweep() {
    check(
        "load",
        &[
            "load",
            "sbq-htm",
            "requests=96",
            "workers=2",
            "service=3000",
            "rates=150000,600000,1400000,2800000",
            "slo-p99=50000",
        ],
        &[
            Golden::key("tsv-out", "load_sbq_htm.tsv"),
            Golden::key("out", "load_sbq_htm.json"),
        ],
    );
}

#[test]
fn fuzz_campaign_summary() {
    check(
        "fuzz",
        &["fuzz", "seeds=64", "jobs=1"],
        &[Golden::stdout("fuzz_seeds_64.txt")],
    );
}
