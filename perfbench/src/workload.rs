//! What every workload provides to the run loop, and how the five are
//! built from a seed.

use crate::stats::median;
use crate::tracer::Tracer;
use crate::{fuzzwork, nativework, simwork};
use simrng::SimRng;

/// Units of work checked (operations, or fuzz seeds) and how many of them
/// failed their check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `units` checked units, all failed unless `ok`.
    pub fn check(&mut self, units: u64, ok: bool) {
        self.attempted += units;
        if !ok {
            self.failed += units;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host time from the repetition's start to the start of the
    /// measured phase.
    pub setup_ns: u64,
    /// Host time of the measured phase.
    pub measured_ns: u64,
    /// Operations the measured phase completed.
    pub ops: u64,
    pub tally: Tally,
    /// Host-time layer samples, filled in traced repetitions only.
    pub layer: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Runs one repetition. Every repetition of a workload gets the same
    /// inputs, and checks its own outputs.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;

    /// Untimed checks, run once per invocation after the timed loop. The
    /// default checks nothing more than the repetitions already did.
    fn check(&mut self) -> Tally {
        Tally::default()
    }

    /// Per-layer metrics: the traced repetitions' host-time samples
    /// reduced to medians, and the workload's simulated counters.
    fn layers(&self, traced: &[Rep]) -> Vec<(&'static str, f64)>;

    /// Deterministic outputs printed with every run, so two runs of one
    /// seed can be compared exactly: `(name, value, unit)`.
    fn counters(&self) -> Vec<(&'static str, f64, &'static str)>;
}

/// Per-thread operation counts and batch sizes. Fixed in the benchmark;
/// tests use [`Sizes::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// FAAs per core on faa-contended (drawn in `[n, 1.25 n]`).
    pub faa_ops: u64,
    /// Enqueues per core on sbq-producer.
    pub producer_ops: u64,
    /// Operations per core on numa88-mixed.
    pub numa_ops: u64,
    /// Operations per thread of the drained correctness run of each
    /// queue workload.
    pub check_ops: u64,
    /// Fuzz seeds per queue kind in one fuzz-campaign repetition whose
    /// check exhausts the search budget, and whose check does not.
    pub fuzz_slow: usize,
    pub fuzz_fast: usize,
    /// Enqueue-dequeue pairs per thread on native-pairs.
    pub native_pairs: u64,
}

impl Sizes {
    pub const BENCH: Sizes = Sizes {
        faa_ops: 16_000,
        producer_ops: 1_500,
        numa_ops: 48,
        check_ops: 8,
        fuzz_slow: 1,
        fuzz_fast: 4,
        native_pairs: 40_000,
    };

    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        faa_ops: 40,
        producer_ops: 6,
        numa_ops: 2,
        check_ops: 2,
        fuzz_slow: 0,
        fuzz_fast: 1,
        native_pairs: 200,
    };
}

/// Median of one named host-time layer sample over the traced
/// repetitions (0 when none recorded it).
pub fn layer_median(traced: &[Rep], name: &str) -> f64 {
    let v: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.layer.iter().filter(|(n, _)| *n == name).map(|&(_, x)| x))
        .collect();
    median(&v)
}

/// `n` per-thread counts, each drawn from `[base, 1.25 base]`.
pub fn seeded_counts(rng: &mut SimRng, n: usize, base: u64) -> Vec<u64> {
    (0..n)
        .map(|_| rng.gen_range_inclusive(base, base + base / 4))
        .collect()
}

/// Builds workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "faa-contended" => Box::new(simwork::FaaContended::new(seed, sizes)),
        "sbq-producer" => Box::new(simwork::QueueSim::producer(seed, sizes)),
        "numa88-mixed" => Box::new(simwork::QueueSim::numa88(seed, sizes)),
        "fuzz-campaign" => Box::new(fuzzwork::FuzzCampaign::new(seed, sizes)),
        "native-pairs" => Box::new(nativework::NativePairs::new(seed, sizes)),
        _ => return None,
    })
}
