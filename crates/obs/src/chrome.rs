//! Chrome trace-event JSON export (and a TSV sibling) — the
//! machine-readable form of a run, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! One track per core/thread carries the per-op spans recorded through
//! [`crate::ObsSink`]; when the run's simulator report is supplied, a
//! **Dir** track carries the directory side of every coherence message
//! and the core tracks gain the per-core message endpoints, HTM
//! transaction lifecycle marks (with RTM-style abort status words), and
//! memory-op instants — bridging [`coherence::TraceEvent`] into the same
//! timeline.
//!
//! ## Determinism contract
//!
//! The exporter emits **integers only** (timestamps are cycles; Chrome's
//! nominal unit is microseconds, which merely rescales the axis), object
//! fields in a fixed order, and events sorted by `(ts, track, insertion
//! rank)` — no floats, no hash maps, no wall-clock reads. On the
//! simulator backend the byte output for a fixed seed is therefore
//! reproducible run-to-run, which the determinism suite and the CI
//! `trace-smoke` job enforce with a byte-level diff.

use crate::event::ObsEvent;
use crate::json::{self, Value};
use crate::ring::ThreadLog;
use coherence::{RunReport, TraceEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The Dir track id; core/thread `n` maps to track `n + 1`.
const DIR_TRACK: u64 = 0;

/// Component `c` (its index in `MachineConfig::components`) maps to
/// track `COMP_TRACK_BASE + c`, far above any plausible core count so the
/// two ranges never collide. Only components that actually acted appear.
const COMP_TRACK_BASE: u64 = 1000;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Entry {
    ts: u64,
    track: u64,
    rank: usize,
    json: String,
}

fn span_json(name: &str, ts: u64, dur: u64, track: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{track},\"args\":{{{args}}}}}",
        esc(name)
    )
}

fn instant_json(name: &str, cat: &str, ts: u64, track: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":{track},\"s\":\"t\",\"args\":{{{args}}}}}",
        esc(name)
    )
}

/// Maps a trace node name ("Dir", "C3") to its track id; `None` for
/// nodes outside the known topology (never produced today).
fn node_track(node: &str) -> Option<u64> {
    if node == "Dir" {
        return Some(DIR_TRACK);
    }
    node.strip_prefix('C')
        .and_then(|n| n.parse::<u64>().ok())
        .map(|n| n + 1)
}

/// Renders the ring logs as one Chrome trace-event JSON document.
/// `backend` names the backend ("sim", "native", "runner") and decides
/// thread-track naming (`C<n>` for simulated cores, `T<n>` for OS
/// threads); `label` is shown as the process name ("SBQ-HTM producer 4").
///
/// `run` is the simulator's report of the run, `None` where there is no
/// simulated machine (native, runner). From it come the bridged message
/// trace and two counter samples on the Dir track: the fast-path totals
/// (hits, fallbacks), next to the coherence traffic they avoided, and the
/// interconnect hop totals (intra, cross), the on-socket vs. cross-socket
/// split of the messages shown on the tracks.
pub fn export(logs: &[ThreadLog], run: Option<&RunReport>, backend: &str, label: &str) -> String {
    let mut entries: Vec<Entry> = Vec::new();
    let mut rank = 0usize;
    let mut push = |entries: &mut Vec<Entry>, ts: u64, track: u64, json: String| {
        entries.push(Entry {
            ts,
            track,
            rank,
            json,
        });
        rank += 1;
    };

    // Ring spans/instants, one track per recording thread.
    let mut tracks: BTreeSet<u64> = BTreeSet::new();
    let mut dropped = 0u64;
    for log in logs {
        let track = log.tid as u64 + 1;
        tracks.insert(track);
        dropped += log.dropped;
        for e in &log.events {
            match *e {
                ObsEvent::Span {
                    kind,
                    start,
                    end,
                    arg,
                } => {
                    let args = format!("\"v\":\"{arg:#x}\"");
                    let json =
                        span_json(kind.name(), start, end.saturating_sub(start), track, &args);
                    push(&mut entries, start, track, json);
                }
                ObsEvent::Instant { kind, ts, arg } => {
                    let args = format!("\"v\":\"{arg:#x}\"");
                    let json = instant_json(kind.name(), "op", ts, track, &args);
                    push(&mut entries, ts, track, json);
                }
            }
        }
    }

    // Simulator bridge: coherence messages, HTM lifecycle, memory ops,
    // component-spine actions.
    let mut have_dir = false;
    let mut comp_tracks: std::collections::BTreeMap<u64, String> = Default::default();
    for e in run.map_or(&[][..], |r| &r.trace) {
        match e {
            TraceEvent::Msg {
                sent,
                recv,
                src,
                dst,
                kind,
                line,
            } => {
                let args = format!("\"line\":\"{line:#x}\"");
                if let Some(t) = node_track(src) {
                    have_dir |= t == DIR_TRACK;
                    tracks.insert(t);
                    let json = instant_json(&format!("{kind}→{dst}"), "coherence", *sent, t, &args);
                    push(&mut entries, *sent, t, json);
                }
                if let Some(t) = node_track(dst) {
                    have_dir |= t == DIR_TRACK;
                    tracks.insert(t);
                    let json = instant_json(&format!("{kind}←{src}"), "coherence", *recv, t, &args);
                    push(&mut entries, *recv, t, json);
                }
            }
            TraceEvent::Tx {
                time,
                core,
                what,
                detail,
            } => {
                let track = *core as u64 + 1;
                tracks.insert(track);
                let args = format!("\"status\":\"{detail:#x}\"");
                let json = instant_json(&format!("tx-{what}"), "htm", *time, track, &args);
                push(&mut entries, *time, track, json);
            }
            TraceEvent::Op {
                time,
                core,
                what,
                line,
            } => {
                let track = *core as u64 + 1;
                tracks.insert(track);
                let args = format!("\"line\":\"{line:#x}\"");
                let json = instant_json(what, "mem", *time, track, &args);
                push(&mut entries, *time, track, json);
            }
            TraceEvent::Comp {
                time,
                comp,
                name,
                what,
                core,
            } => {
                // Each acting component gets its own track; the action
                // also references the core it hit via args so the two
                // tracks cross-link in the viewer.
                let track = COMP_TRACK_BASE + *comp as u64;
                comp_tracks
                    .entry(track)
                    .or_insert_with(|| format!("{name}#{comp}"));
                let args = format!("\"core\":{core}");
                let json = instant_json(&format!("{what}→C{core}"), "comp", *time, track, &args);
                push(&mut entries, *time, track, json);
            }
        }
    }

    // Fast-path and hop totals as counter samples on the Dir track: each
    // pair plots as stacked bars next to the message instants.
    if let Some(r) = run {
        have_dir = true;
        let s = &r.stats;
        let (hits, fallbacks) = (s.fastpath_hits, s.fastpath_fallbacks);
        let json = format!(
            "{{\"name\":\"fastpath\",\"cat\":\"coherence\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":{DIR_TRACK},\"args\":{{\"hits\":{hits},\"fallbacks\":{fallbacks}}}}}"
        );
        push(&mut entries, 0, DIR_TRACK, json);
        let (intra, cross) = (s.hops_intra, s.hops_cross);
        let json = format!(
            "{{\"name\":\"hops\",\"cat\":\"coherence\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":{DIR_TRACK},\"args\":{{\"intra\":{intra},\"cross\":{cross}}}}}"
        );
        push(&mut entries, 0, DIR_TRACK, json);
    }

    entries.sort_by_key(|e| (e.ts, e.track, e.rank));

    let mut out = String::new();
    out.push_str("{\n\"displayTimeUnit\":\"ns\",\n");
    let _ = writeln!(
        out,
        "\"otherData\":{{\"tool\":\"sbq-obs\",\"version\":\"1\",\"clock\":\"cycles\",\"backend\":\"{}\",\"dropped\":{dropped}}},",
        esc(backend)
    );
    out.push_str("\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        out.push_str(&line);
        first = false;
    };

    emit(
        &mut out,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            esc(label)
        ),
    );
    if have_dir {
        emit(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{DIR_TRACK},\"args\":{{\"name\":\"Dir\"}}}}"
            ),
        );
    }
    let core_prefix = if backend == "sim" { "C" } else { "T" };
    for t in &tracks {
        if *t == DIR_TRACK {
            continue;
        }
        emit(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"args\":{{\"name\":\"{core_prefix}{}\"}}}}",
                t - 1
            ),
        );
    }
    for (t, name) in &comp_tracks {
        emit(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            ),
        );
    }
    for e in entries {
        emit(&mut out, e.json);
    }
    out.push_str("\n]\n}\n");
    out
}

/// Renders the ring logs as TSV (`tid  name  ts  dur  arg`), the plain
/// tabular sibling of the Chrome export.
pub fn export_tsv(logs: &[ThreadLog]) -> String {
    let mut s = String::from("tid\tname\tts\tdur\targ\n");
    for log in logs {
        for e in &log.events {
            match *e {
                ObsEvent::Span {
                    kind,
                    start,
                    end,
                    arg,
                } => {
                    let _ = writeln!(
                        s,
                        "{}\t{}\t{}\t{}\t{arg:#x}",
                        log.tid,
                        kind.name(),
                        start,
                        end.saturating_sub(start)
                    );
                }
                ObsEvent::Instant { kind, ts, arg } => {
                    let _ = writeln!(s, "{}\t{}\t{}\t0\t{arg:#x}", log.tid, kind.name(), ts);
                }
            }
        }
    }
    s
}

/// What [`validate`] learned about a trace document.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete ("X") span events.
    pub spans: usize,
    /// Instant ("i") events.
    pub instants: usize,
    /// Counter ("C") events.
    pub counters: usize,
    /// Metadata ("M") events.
    pub meta: usize,
    /// Distinct `tid` tracks seen on non-metadata events.
    pub tracks: BTreeSet<u64>,
    /// Distinct event names seen on non-metadata events.
    pub names: BTreeSet<String>,
}

fn req_num(e: &Value, key: &str, i: usize) -> Result<f64, String> {
    e.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("event {i}: missing numeric \"{key}\""))
}

/// Validates a Chrome trace-event JSON document against the subset of
/// the schema the exporters produce (and viewers require): a top-level
/// object with a `traceEvents` array whose entries carry `name`/`ph`/
/// `pid`/`tid`, with `ts` (+ non-negative `dur` for `"X"`) on timed
/// events. Returns a summary of what was found.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut sum = TraceSummary::default();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"ph\""))?;
        req_num(e, "pid", i)?;
        let tid = req_num(e, "tid", i)?;
        sum.events += 1;
        match ph {
            "X" => {
                let ts = req_num(e, "ts", i)?;
                let dur = req_num(e, "dur", i)?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                sum.spans += 1;
            }
            "i" => {
                req_num(e, "ts", i)?;
                sum.instants += 1;
            }
            "C" => {
                req_num(e, "ts", i)?;
                sum.counters += 1;
            }
            "M" => {
                sum.meta += 1;
                continue; // metadata carries no timeline position
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
        sum.tracks.insert(tid as u64);
        sum.names.insert(name.to_string());
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstantKind, SpanKind};
    use crate::ring::ObsSink;

    fn sample_logs() -> Vec<ThreadLog> {
        let sink = ObsSink::default();
        let mut t0 = sink.thread(0);
        t0.span(SpanKind::Enqueue, 10, 42, 0x1_0000_0000_0001);
        t0.instant(InstantKind::Barrier, 50, 0);
        sink.submit(t0);
        let mut t1 = sink.thread(1);
        t1.span(SpanKind::Dequeue, 12, 55, 0x1_0000_0000_0001);
        sink.submit(t1);
        sink.take_logs()
    }

    fn sample_sim_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Msg {
                sent: 10,
                recv: 35,
                src: "C0".to_string(),
                dst: "Dir".to_string(),
                kind: "GetM",
                line: 0x40,
            },
            TraceEvent::Tx {
                time: 60,
                core: 1,
                what: "abort",
                detail: 0x6,
            },
        ]
    }

    /// A simulator report carrying `trace` and otherwise empty counters.
    fn sample_run(trace: Vec<TraceEvent>) -> RunReport {
        RunReport {
            end_time: 0,
            core_end: Vec::new(),
            stats: coherence::Stats::default(),
            trace,
        }
    }

    #[test]
    fn export_validates_and_carries_all_pieces() {
        let run = sample_run(sample_sim_trace());
        let json = export(&sample_logs(), Some(&run), "sim", "unit test");
        let sum = validate(&json).expect("exporter output must validate");
        assert_eq!(sum.spans, 2);
        assert!(sum.instants >= 3, "barrier + msg endpoints + tx: {sum:?}");
        assert!(sum.names.contains("enqueue"));
        assert!(sum.names.contains("dequeue"));
        assert!(sum.names.contains("GetM→Dir"));
        assert!(sum.names.contains("tx-abort"));
        // Dir track plus both thread tracks.
        assert!(sum.tracks.contains(&DIR_TRACK));
        assert!(sum.tracks.contains(&1) && sum.tracks.contains(&2));
        // Values travel as hex args.
        assert!(json.contains("0x1000000000001"));
        assert!(json.contains("\"status\":\"0x6\""));
    }

    #[test]
    fn run_counters_land_on_dir_track() {
        let mut run = sample_run(Vec::new());
        run.stats.fastpath_hits = 12;
        run.stats.fastpath_fallbacks = 3;
        run.stats.hops_intra = 400;
        run.stats.hops_cross = 70;
        let json = export(&sample_logs(), Some(&run), "sim", "unit test");
        let sum = validate(&json).expect("counter events must validate");
        assert_eq!(sum.counters, 2);
        assert!(sum.tracks.contains(&DIR_TRACK));
        assert!(json.contains("\"hits\":12"));
        assert!(json.contains("\"fallbacks\":3"));
        assert!(json.contains("\"intra\":400"));
        assert!(json.contains("\"cross\":70"));
        assert!(json.contains("\"name\":\"Dir\""));
    }

    #[test]
    fn export_is_deterministic_for_equal_inputs() {
        let run = sample_run(sample_sim_trace());
        let a = export(&sample_logs(), Some(&run), "sim", "unit test");
        let b = export(&sample_logs(), Some(&run), "sim", "unit test");
        assert_eq!(a, b);
    }

    #[test]
    fn export_without_a_run_has_no_dir_track() {
        let json = export(&sample_logs(), None, "native", "unit test");
        let sum = validate(&json).unwrap();
        assert_eq!(sum.counters, 0);
        assert!(!sum.tracks.contains(&DIR_TRACK));
        assert!(!json.contains("\"name\":\"Dir\""));
        assert!(json.contains("\"name\":\"T0\""));
    }

    #[test]
    fn tsv_lists_every_event() {
        let tsv = export_tsv(&sample_logs());
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "tid\tname\tts\tdur\targ");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0\tenqueue\t10\t32\t"));
    }

    #[test]
    fn validate_rejects_junk() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents": [{"ph": "X"}]}"#).is_err());
        assert!(
            validate(r#"{"traceEvents": [{"name":"a","ph":"Q","pid":0,"tid":0,"ts":1}]}"#).is_err()
        );
        // Missing dur on a complete event.
        assert!(
            validate(r#"{"traceEvents": [{"name":"a","ph":"X","pid":0,"tid":0,"ts":1}]}"#).is_err()
        );
    }
}
