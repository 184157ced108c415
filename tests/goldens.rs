//! The committed goldens under `data/golden/`: each file is exactly the
//! output of one `simctl` command (its stdout, or a file it writes), and
//! a fresh run of the built binary must reproduce it byte for byte. A
//! change that moves any simulated output therefore shows the move in
//! its diff of these files. On a mismatch the test prints the command
//! that rewrites the golden from the repository root.
//!
//! EXPERIMENTS.md states measured numbers only by quoting these files or
//! `figures_output.txt`, and `experiments_quotes_pinned_outputs` holds
//! every quote to its file, so a change that moves a figure fails here
//! until EXPERIMENTS.md moves with it.

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

/// One golden: the file under [`GOLDEN_DIR`], the `simctl` arguments
/// that make it, and where the command puts it — stdout, or the file
/// named by one of its `key=` arguments.
struct Golden {
    file: &'static str,
    args: &'static str,
    key: Option<&'static str>,
}

impl Golden {
    const fn stdout(file: &'static str, args: &'static str) -> Golden {
        Golden {
            file,
            args,
            key: None,
        }
    }

    const fn key(file: &'static str, args: &'static str, key: &'static str) -> Golden {
        Golden {
            file,
            args,
            key: Some(key),
        }
    }
}

const LOAD: &str = "load sbq-htm requests=96 workers=2 service=3000 \
                    rates=150000,600000,1400000,2800000 slo-p99=50000";

/// Every golden. EXPERIMENTS.md may quote these and `figures_output.txt`.
const GOLDENS: &[Golden] = &[
    Golden::stdout(
        "fig_all.tsv",
        "fig all ops=30 threads=1,2,4 grid=1x4,2x8 jobs=1",
    ),
    // The JSON document (3.7 MB) lands in the scratch directory under its
    // default name; `tests/obs_trace.rs` pins its byte-stability.
    Golden::key(
        "trace_sbq_htm_producer_4.tsv",
        "trace sbq-htm producer 4 ops=60",
        "tsv-out",
    ),
    Golden::stdout("scenario_preempt.txt", "scenario preempt"),
    Golden::stdout("scenario_timer.txt", "scenario timer"),
    Golden::stdout("scenario_dma.txt", "scenario dma"),
    Golden::stdout("load_sbq_htm.tsv", LOAD),
    Golden::key("load_sbq_htm.json", LOAD, "out"),
    Golden::stdout("fuzz_seeds_64.txt", "fuzz seeds=64 jobs=1"),
    // EXPERIMENTS.md E5: producer-only points past Figure 5's 44 threads.
    Golden::stdout("producer_sbq_htm_56.tsv", "sbq-htm producer 56"),
    Golden::stdout("producer_wf_56.tsv", "wf producer 56"),
    Golden::stdout("producer_sbq_htm_72.tsv", "sbq-htm producer 72"),
    Golden::stdout("producer_wf_72.tsv", "wf producer 72"),
    Golden::stdout("producer_sbq_htm_88.tsv", "sbq-htm producer 88"),
    Golden::stdout("producer_wf_88.tsv", "wf producer 88"),
    // E13: each queue's knee under the same open-loop traffic.
    Golden::stdout(
        "knee_sbq_htm.tsv",
        "load sbq-htm requests=128 sources=2 workers=4 service=6000 \
         rates=400000,800000,1200000,1600000,2000000 slo-p99=80000",
    ),
    Golden::stdout(
        "knee_wf.tsv",
        "load wf requests=128 sources=2 workers=4 service=6000 \
         rates=400000,800000,1200000,1600000,2000000 slo-p99=80000",
    ),
    // E14: the preemption rate rising 16-fold.
    Golden::stdout(
        "preempt_sweep_12000.txt",
        "scenario preempt workers=4 ops=48 period=12000 cost=2000",
    ),
    Golden::stdout(
        "preempt_sweep_6000.txt",
        "scenario preempt workers=4 ops=48 period=6000 cost=2000",
    ),
    Golden::stdout(
        "preempt_sweep_3000.txt",
        "scenario preempt workers=4 ops=48 period=3000 cost=2000",
    ),
    Golden::stdout(
        "preempt_sweep_1500.txt",
        "scenario preempt workers=4 ops=48 period=1500 cost=2000",
    ),
    Golden::stdout(
        "preempt_sweep_750.txt",
        "scenario preempt workers=4 ops=48 period=750 cost=2000",
    ),
];

/// A scratch directory for one command's outputs.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbq-goldens-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Checks every golden whose file name starts with `prefix`, running
/// each distinct command once.
fn check(prefix: &str) {
    let matching: Vec<&Golden> = GOLDENS
        .iter()
        .filter(|g| g.file.starts_with(prefix))
        .collect();
    assert!(!matching.is_empty(), "no golden starts with `{prefix}`");
    // Goldens of one command sit next to each other in the table.
    let mut commands: Vec<&str> = matching.iter().map(|g| g.args).collect();
    commands.dedup();
    for args in commands {
        let goldens: Vec<&Golden> = matching
            .iter()
            .copied()
            .filter(|g| g.args == args)
            .collect();
        check_command(args, &goldens);
    }
}

/// Runs `simctl args` once, with each golden's `key=` pointing into a
/// scratch directory (other output keys in `args` are written there
/// too), and compares every golden it produces with the committed file.
fn check_command(args: &str, goldens: &[&Golden]) {
    let dir = scratch(goldens[0].file);
    let mut full: Vec<String> = args.split_whitespace().map(String::from).collect();
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
        let mut rewrite = args.to_string();
        let mut redirect = String::new();
        for g in goldens {
            let path = format!("{GOLDEN_DIR}/{}", g.file);
            match g.key {
                Some(key) => rewrite.push_str(&format!(" {key}={path}")),
                None => redirect = format!(" > {path}"),
            }
        }
        panic!(
            "{stale:?} differ from a fresh run of `simctl {}`; the fresh outputs are in {}.\n\
             If the change is intended, rewrite the goldens from the repository root with\n  \
             cargo run --release --bin simctl -- {rewrite}{redirect}",
            full.join(" "),
            dir.display(),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_figure_at_reduced_scale() {
    check("fig_");
}

#[test]
fn sim_trace_spans() {
    check("trace_");
}

#[test]
fn scenario_summaries() {
    check("scenario_");
}

#[test]
fn load_sweep() {
    check("load_");
}

#[test]
fn fuzz_campaign_summary() {
    check("fuzz_");
}

#[test]
fn producer_points_past_44_threads() {
    check("producer_");
}

#[test]
fn knee_sweeps() {
    check("knee_");
}

#[test]
fn preemption_sweep() {
    check("preempt_sweep_");
}

/// The fenced block after an excerpt line: its lines, or `None` if the
/// next line does not open a fence or no line closes it.
fn fenced<'a>(lines: &mut impl Iterator<Item = (usize, &'a str)>) -> Option<Vec<&'a str>> {
    let (_, open) = lines.next()?;
    if !open.starts_with("```") {
        return None;
    }
    let mut body = Vec::new();
    for (_, line) in lines {
        if line.starts_with("```") {
            return Some(body);
        }
        body.push(line);
    }
    None
}

/// Every measured number in EXPERIMENTS.md is quoted, not typed: a line
/// `<!-- excerpt: PATH -->` opens a fenced block whose lines must be a
/// contiguous run of lines of PATH, and PATH must be
/// `figures_output.txt` or one of the goldens above. A markdown table
/// outside a fence fails, since no command prints one.
#[test]
fn experiments_quotes_pinned_outputs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let pinned: Vec<String> = GOLDENS
        .iter()
        .map(|g| format!("{GOLDEN_DIR}/{}", g.file))
        .chain(["figures_output.txt".to_string()])
        .collect();
    let mut lines = doc.lines().enumerate().map(|(i, line)| (i + 1, line));
    let mut excerpts = 0;
    while let Some((n, line)) = lines.next() {
        if line.starts_with("```") {
            // An unquoted block (a command listing): skip to its end.
            lines.by_ref().find(|(_, l)| l.starts_with("```"));
            continue;
        }
        assert!(
            !line.trim_start().starts_with('|'),
            "EXPERIMENTS.md:{n}: a hand-typed markdown table; quote the output it comes from \
             as an excerpt instead"
        );
        let Some(path) = line
            .strip_prefix("<!-- excerpt: ")
            .and_then(|rest| rest.strip_suffix(" -->"))
        else {
            continue;
        };
        assert!(
            pinned.iter().any(|p| p == path),
            "EXPERIMENTS.md:{n}: `{path}` is not a pinned output: quote figures_output.txt \
             or a golden of tests/goldens.rs"
        );
        let body = fenced(&mut lines).unwrap_or_else(|| {
            panic!("EXPERIMENTS.md:{n}: the excerpt needs a closed fenced block")
        });
        let text = std::fs::read_to_string(root.join(path)).expect("read the quoted file");
        let file: Vec<&str> = text.lines().collect();
        assert!(
            !body.is_empty() && file.windows(body.len()).any(|run| run == body),
            "EXPERIMENTS.md:{n}: the excerpt is not a contiguous run of lines of {path}"
        );
        excerpts += 1;
    }
    assert!(excerpts > 0, "EXPERIMENTS.md quotes no excerpt");
}
