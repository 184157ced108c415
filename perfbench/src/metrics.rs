//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! the same names, units, directions and bounds; a unit test keeps the
//! two in step.

/// Whether a larger or a smaller value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Which statistic of a metric's per-repetition samples is its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    Median,
    /// The 90th percentile: for a rate, the pace of the fastest tenth of
    /// the repetitions, which on a shared host tracks the code more
    /// closely than the median, since interference only ever slows a
    /// repetition down.
    P90,
}

/// An end-to-end metric: what a user of the simulator, the fuzzer or the
/// native queue sees. Printed by every untraced run, for every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        gate: Gate::P90,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        gate: Gate::Median,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        gate: Gate::Median,
        bound: 0.2,
    },
];

/// Per-layer metrics, printed by every traced run for every workload. A
/// metric whose layer a workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("coherence.machine.host_ns_per_event", "ns"),
    ("coherence.machine.setup_ms", "ms"),
    ("coherence.events_per_op", "count"),
    ("coherence.msgs_per_op", "count"),
    ("coherence.stalls_per_op", "count"),
    ("coherence.fastpath_hit_ratio", "ratio"),
    ("coherence.hops_cross_share", "ratio"),
    ("coherence.stack_mib", "MiB"),
    ("coherence.sim.host_ns_per_event", "ns"),
    ("coherence.fiber.handoff_ns_per_op", "ns"),
    ("coherence.fiber.switch_ns", "ns"),
    ("htm.commit_ratio", "ratio"),
    ("htm.aborts_per_op", "count"),
    ("htm.tripped_writers_per_op", "count"),
    ("sim.op_p50_ns", "ns"),
    ("sim.op_p99_ns", "ns"),
    ("sbq.enq_p50_ns", "ns"),
    ("sbq.enq_p99_ns", "ns"),
    ("sbq.deq_p50_ns", "ns"),
    ("sbq.deq_p99_ns", "ns"),
    ("sbq.deq_empty_share", "ratio"),
    ("simfuzz.run_ms_per_seed", "ms"),
    ("simfuzz.run_ms.sbq-htm", "ms"),
    ("simfuzz.run_ms.sbq-cas", "ms"),
    ("simfuzz.run_ms.sbq-striped", "ms"),
    ("simfuzz.run_ms.bq-original", "ms"),
    ("simfuzz.run_ms.wf-queue", "ms"),
    ("simfuzz.run_ms.cc-queue", "ms"),
    ("simfuzz.run_ms.ms-queue", "ms"),
    ("linearize.check_ms_per_seed", "ms"),
    ("linearize.check_share", "ratio"),
    ("linearize.history_events_per_seed", "count"),
    ("sbq.native.new_ms", "ms"),
    ("sbq.native.enq_ns_p50", "ns"),
    ("sbq.native.enq_ns_p99", "ns"),
    ("sbq.native.deq_ns_p50", "ns"),
    ("sbq.native.deq_ns_p99", "ns"),
    ("sbq.native.empty_deq_share", "ratio"),
    ("ref.mutex_vecdeque_ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.reconstruct_error", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "faa-contended",
    "sbq-producer",
    "numa88-mixed",
    "fuzz-campaign",
    "native-pairs",
];

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_field(j, "name"), m.name);
            assert_eq!(str_field(j, "unit"), m.unit);
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(str_field(j, "better"), better);
            assert_eq!(j.get("bound").and_then(Value::as_num), Some(m.bound));
        }

        let layers: Vec<(&str, &str)> = entries(&doc, "per_layer")
            .iter()
            .map(|j| (str_field(j, "name"), str_field(j, "unit")))
            .collect();
        assert_eq!(layers, PER_LAYER);
    }
}
