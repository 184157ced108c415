//! Offered-load sweeps: run one [`LoadPlan`] at a ladder of rates, fan
//! the points across the [`runner`] job pool, and find the saturation
//! knee.
//!
//! The merge is in submission (= ascending-rate) order, so the TSV/JSON
//! output is byte-identical for any job count; on the simulator every
//! value in the output is also deterministic across repeats, because a
//! point is a pure function of its plan. Job count and host wall-clock
//! deliberately never appear in the rendered artifacts.

use crate::knee::{find_knee, Knee, KneeProbe};
use crate::plan::LoadPlan;
use crate::stage::{run_load, LoadPoint};
use harness::{BackendKind, QueueKind};
use obs::json::Value;

/// One sweep: a base plan whose `rate_rps` is overridden per point.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub plan: LoadPlan,
    pub queue: QueueKind,
    pub backend: BackendKind,
    /// Offered rates to probe, ascending (the knee finder requires it;
    /// [`run_sweep`] sorts defensively).
    pub rates: Vec<u64>,
    /// End-to-end p99 latency SLO, ns; `<= 0` disables the latency
    /// criterion.
    pub slo_p99_ns: f64,
    /// Peak-ingress-depth budget; 0 = auto (`requests / 4`, at least 16).
    pub depth_slo: u64,
    /// Worker threads for the point fan-out (1 = serial reference).
    pub jobs: usize,
}

impl SweepSpec {
    /// The depth budget actually applied (resolves the 0 = auto rule).
    pub fn effective_depth_slo(&self) -> u64 {
        if self.depth_slo > 0 {
            self.depth_slo
        } else {
            (self.plan.requests / 4).max(16)
        }
    }
}

/// A completed sweep: the measured curve plus the detected knee.
#[derive(Debug, Clone)]
pub struct SweepResult {
    pub spec: SweepSpec,
    /// One point per probed rate, ascending.
    pub points: Vec<LoadPoint>,
    /// Per-point completion digests (sim determinism witnesses), same
    /// order as `points`.
    pub digests: Vec<u64>,
    pub knee: Option<Knee>,
}

/// The default rate ladder: the plan's nominal capacity scaled by
/// 1/4, 1/2, 3/4, 1, 3/2, and 2 — three healthy points, the nominal
/// knee region, and two overload points.
pub fn default_rates(plan: &LoadPlan) -> Vec<u64> {
    let cap = plan.capacity_rps().max(8);
    [(1u64, 4u64), (1, 2), (3, 4), (1, 1), (3, 2), (2, 1)]
        .iter()
        .map(|&(num, den)| (cap * num / den).max(1))
        .collect()
}

/// Runs every rate point (fanned across `spec.jobs` workers, merged in
/// submission order) and detects the knee.
pub fn run_sweep(spec: &SweepSpec) -> SweepResult {
    let mut spec = spec.clone();
    spec.rates.sort_unstable();
    spec.rates.dedup();
    let depth_slo = spec.effective_depth_slo();

    let tasks: Vec<_> = spec
        .rates
        .iter()
        .map(|&rate| {
            let plan = LoadPlan {
                rate_rps: rate,
                ..spec.plan.clone()
            };
            let queue = spec.queue;
            let backend = spec.backend;
            move || {
                let run = run_load(queue, &plan, backend, None);
                (run.point, run.completion_digest)
            }
        })
        .collect();
    let (results, _report) = runner::run_all(spec.jobs, tasks);

    let mut points = Vec::with_capacity(results.len());
    let mut digests = Vec::with_capacity(results.len());
    for (mut point, digest) in results {
        point.diverged = point.max_depth_ingress > depth_slo;
        points.push(point);
        digests.push(digest);
    }
    let probes: Vec<KneeProbe> = points
        .iter()
        .map(|p| KneeProbe {
            offered_rps: p.offered_rps,
            p99_ns: p.e2e_p99_ns,
            diverged: p.diverged,
        })
        .collect();
    let knee = find_knee(&probes, spec.slo_p99_ns);
    SweepResult {
        spec,
        points,
        digests,
        knee,
    }
}

/// Renders the curve as TSV: `# key value` preamble (plan, SLOs, knee),
/// a header line, then one row per rate point. Contains no job count or
/// wall-clock value, so a sim sweep's TSV is byte-identical across
/// repeats and job counts.
pub fn to_tsv(r: &SweepResult) -> String {
    let mut s = String::new();
    s.push_str(&format!("# queue {}\n", r.spec.queue.name()));
    s.push_str(&format!("# pattern {}\n", r.spec.plan.pattern.name()));
    s.push_str(&format!("# backend {}\n", r.spec.backend.name()));
    s.push_str(&format!("# slo-p99-ns {:.0}\n", r.spec.slo_p99_ns));
    s.push_str(&format!("# depth-slo {}\n", r.spec.effective_depth_slo()));
    match &r.knee {
        Some(k) => s.push_str(&format!(
            "# knee rate={} reason={}\n",
            k.offered_rps,
            k.reason.name()
        )),
        None => s.push_str("# knee none\n"),
    }
    s.push_str(
        "offered_rps\tachieved_rps\tcompleted\te2e_p50_ns\te2e_p99_ns\te2e_p999_ns\te2e_max_ns\
         \tenq_p50_ns\tsrc_lag_p99_ns\tmax_depth_in\tmax_depth_out\tend_cycles\tdiverged\n",
    );
    for p in &r.points {
        s.push_str(&format!(
            "{}\t{:.0}\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\t{}\t{}\n",
            p.offered_rps,
            p.achieved_rps,
            p.completed,
            p.e2e_p50_ns,
            p.e2e_p99_ns,
            p.e2e_p999_ns,
            p.e2e_max_ns,
            p.enq_p50_ns,
            p.src_lag_p99_ns,
            p.max_depth_ingress,
            p.max_depth_egress,
            p.end_cycles,
            p.diverged as u8,
        ));
    }
    s
}

/// Renders the sweep as a JSON document (schema `sbq-loadgen-v1`),
/// hand-rolled like the `obs` trace exporter — no serializer dependency.
/// Same determinism contract as [`to_tsv`].
pub fn to_json(r: &SweepResult) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"sbq-loadgen-v1\",\n");
    s.push_str(&format!("  \"queue\": \"{}\",\n", r.spec.queue.name()));
    s.push_str(&format!(
        "  \"pattern\": \"{}\",\n",
        r.spec.plan.pattern.name()
    ));
    s.push_str(&format!("  \"backend\": \"{}\",\n", r.spec.backend.name()));
    s.push_str(&format!("  \"requests\": {},\n", r.spec.plan.requests));
    s.push_str(&format!(
        "  \"threads\": {{\"sources\": {}, \"workers\": {}, \"egress\": {}}},\n",
        r.spec.plan.sources, r.spec.plan.workers, r.spec.plan.egress
    ));
    s.push_str(&format!(
        "  \"service_cycles\": {},\n",
        r.spec.plan.service_cycles
    ));
    s.push_str(&format!(
        "  \"capacity_rps\": {},\n",
        r.spec.plan.capacity_rps()
    ));
    s.push_str(&format!("  \"slo_p99_ns\": {:.0},\n", r.spec.slo_p99_ns));
    s.push_str(&format!(
        "  \"depth_slo\": {},\n",
        r.spec.effective_depth_slo()
    ));
    s.push_str("  \"points\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"offered_rps\": {}, \"achieved_rps\": {:.0}, \"completed\": {}, \
             \"e2e_p50_ns\": {:.1}, \"e2e_p99_ns\": {:.1}, \"e2e_p999_ns\": {:.1}, \
             \"e2e_max_ns\": {:.1}, \"enq_p50_ns\": {:.1}, \"src_lag_p99_ns\": {:.1}, \
             \"max_depth_in\": {}, \"max_depth_out\": {}, \"end_cycles\": {}, \
             \"digest\": \"{:016x}\", \"diverged\": {}}}{}\n",
            p.offered_rps,
            p.achieved_rps,
            p.completed,
            p.e2e_p50_ns,
            p.e2e_p99_ns,
            p.e2e_p999_ns,
            p.e2e_max_ns,
            p.enq_p50_ns,
            p.src_lag_p99_ns,
            p.max_depth_ingress,
            p.max_depth_egress,
            p.end_cycles,
            r.digests[i],
            p.diverged,
            if i + 1 < r.points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    match &r.knee {
        Some(k) => s.push_str(&format!(
            "  \"knee\": {{\"offered_rps\": {}, \"index\": {}, \"reason\": \"{}\"}}\n",
            k.offered_rps,
            k.index,
            k.reason.name()
        )),
        None => s.push_str("  \"knee\": null\n"),
    }
    s.push_str("}\n");
    s
}

/// Checks an `sbq-loadgen-v1` document, as [`to_json`] writes it: the
/// schema tag, a non-empty `points` array whose every point has ordered
/// e2e percentiles and completed all `requests`, strictly ascending
/// offered rates, and a knee that is `null` or names a probed rate and a
/// known reason. Returns a one-line description of a valid document, or
/// what is wrong with it.
pub fn check_json(doc: &Value) -> Result<String, String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some("sbq-loadgen-v1") => {}
        other => return Err(format!("schema {other:?}, expected \"sbq-loadgen-v1\"")),
    }
    let requests = doc
        .get("requests")
        .and_then(Value::as_num)
        .ok_or("missing numeric \"requests\"")?;
    let points = doc
        .get("points")
        .and_then(Value::as_arr)
        .ok_or("missing \"points\" array")?;
    if points.is_empty() {
        return Err("empty \"points\" array".into());
    }
    let mut rates = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let field = |key: &str| {
            p.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("point {i}: missing numeric \"{key}\""))
        };
        let (p50, p99, p999, max) = (
            field("e2e_p50_ns")?,
            field("e2e_p99_ns")?,
            field("e2e_p999_ns")?,
            field("e2e_max_ns")?,
        );
        if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
            return Err(format!(
                "point {i}: e2e percentiles out of order: \
                 p50={p50} p99={p99} p999={p999} max={max}"
            ));
        }
        let completed = field("completed")?;
        if completed != requests {
            return Err(format!(
                "point {i}: completed {completed} != requests {requests} \
                 (open loop must drain fully)"
            ));
        }
        rates.push(field("offered_rps")?);
    }
    if rates.windows(2).any(|w| w[0] >= w[1]) {
        return Err("offered_rps not strictly ascending".into());
    }
    let knee = match doc.get("knee") {
        Some(Value::Null) => "none".to_string(),
        Some(k) => {
            let rate = k
                .get("offered_rps")
                .and_then(Value::as_num)
                .ok_or("knee: missing numeric \"offered_rps\"")?;
            if !rates.contains(&rate) {
                return Err(format!("knee rate {rate} is not a probed point"));
            }
            match k.get("reason").and_then(Value::as_str) {
                Some("slo-exceeded") | Some("depth-diverged") => format!("at {rate} rps"),
                other => return Err(format!("knee: bad reason {other:?}")),
            }
        }
        None => return Err("missing \"knee\" (must be an object or null)".into()),
    };
    let n = points.len();
    Ok(format!(
        "{n} point(s), ordered percentiles, fully drained, knee {knee}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            plan: LoadPlan {
                requests: 32,
                sources: 1,
                workers: 1,
                egress: 1,
                service_cycles: 8_000,
                ..Default::default()
            },
            queue: QueueKind::SbqCas,
            backend: BackendKind::Sim,
            rates: vec![60_000, 2_000_000],
            slo_p99_ns: 0.0,
            depth_slo: 8,
            jobs: 1,
        }
    }

    #[test]
    fn sweep_finds_overload_knee_and_renders() {
        // Capacity ≈ 275k rps with one worker at 8k cycles; 2M rps must
        // diverge past a depth budget of 8.
        let r = run_sweep(&tiny_spec());
        assert_eq!(r.points.len(), 2);
        assert!(!r.points[0].diverged);
        assert!(r.points[1].diverged, "overload point must diverge");
        let k = r.knee.expect("overload sweep has a knee");
        assert_eq!(k.offered_rps, 2_000_000);
        let tsv = to_tsv(&r);
        assert!(tsv.contains("# knee rate=2000000 reason=depth-diverged"));
        assert_eq!(tsv.lines().filter(|l| !l.starts_with('#')).count(), 3);
        let json = to_json(&r);
        assert!(json.contains("\"schema\": \"sbq-loadgen-v1\""));
        assert!(json.contains("\"reason\": \"depth-diverged\""));
    }

    #[test]
    fn check_json_accepts_the_writer_and_rejects_each_defect() {
        let json = to_json(&run_sweep(&tiny_spec()));
        let check = |text: &str| check_json(&obs::json::parse(text).expect("still JSON"));
        assert_eq!(
            check(&json).as_deref(),
            Ok("2 point(s), ordered percentiles, fully drained, knee at 2000000 rps")
        );
        // The parser keeps the first of two equal keys, so inserting
        // `"key": bad, "x":` before a field overrides it.
        let first = |key: &str, bad: &str| {
            json.replacen(
                &format!("\"{key}\": "),
                &format!("\"{key}\": {bad}, \"x\": "),
                1,
            )
        };
        let (head, rest) = json.split_once("\"points\": [\n").unwrap();
        let tail = rest.split_once("  ],\n").unwrap().1;
        let knee = "\"knee\": {\"offered_rps\": ";
        let rejects = |text: String, want: &str| {
            let err = check(&text).expect_err(want);
            assert!(err.contains(want), "{err:?} should mention {want:?}");
        };
        rejects(json.replace("-v1", "-v0"), "expected \"sbq-loadgen-v1\"");
        rejects(format!("{head}\"points\": [\n  ],\n{tail}"), "empty");
        rejects(first("e2e_p50_ns", "1e12"), "percentiles out of order");
        rejects(first("completed", "31"), "completed 31 != requests 32");
        rejects(first("offered_rps", "1e12"), "not strictly ascending");
        rejects(
            json.replace(knee, &format!("{knee}7, \"x\": ")),
            "rate 7 is not",
        );
        rejects(json.replace("depth-diverged", "bored"), "bad reason");
    }

    #[test]
    fn sweep_artifacts_are_jobs_invariant() {
        let spec = tiny_spec();
        let serial = run_sweep(&SweepSpec {
            jobs: 1,
            ..spec.clone()
        });
        let fanned = run_sweep(&SweepSpec { jobs: 4, ..spec });
        assert_eq!(serial.digests, fanned.digests);
        assert_eq!(to_tsv(&serial), to_tsv(&fanned));
        assert_eq!(to_json(&serial), to_json(&fanned));
    }

    #[test]
    fn dual_socket_88_core_sweep_finds_the_knee() {
        // The paper machine's width: 88 stage threads force
        // `machine_for` onto a dual-socket topology (44-core sockets,
        // interleaved directory homes). One healthy point and one
        // overload point bracket the knee like the narrow sweep above.
        let plan = LoadPlan {
            requests: 96,
            sources: 22,
            workers: 44,
            egress: 22,
            service_cycles: 4_000,
            ..Default::default()
        };
        let m = crate::stage::machine_for(&plan);
        assert_eq!(m.cores, 88);
        assert_eq!(m.sockets(), 2, "88 threads must span two sockets");
        let r = run_sweep(&SweepSpec {
            plan,
            queue: QueueKind::SbqCas,
            backend: BackendKind::Sim,
            rates: vec![100_000, 80_000_000],
            slo_p99_ns: 0.0,
            depth_slo: 24,
            jobs: 1,
        });
        assert!(!r.points[0].diverged, "low-rate point must stay healthy");
        let k = r.knee.expect("overload point must produce a knee");
        assert_eq!(k.offered_rps, 80_000_000);
        // Determinism at width: a repeat reproduces the digests.
        let again = run_sweep(&r.spec);
        assert_eq!(r.digests, again.digests);
    }

    #[test]
    fn default_rates_are_ascending_and_bracket_capacity() {
        let plan = LoadPlan::default();
        let rates = default_rates(&plan);
        assert_eq!(rates.len(), 6);
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
        let cap = plan.capacity_rps();
        assert!(rates[0] < cap && *rates.last().unwrap() > cap);
    }
}
