//! # loadgen — open-loop service-shaped load for the queue tree
//!
//! The paper's figures measure queues under *closed-loop* saturation:
//! every thread fires its next operation the moment the previous one
//! returns, so a slower queue automatically receives less load. Real
//! services are the opposite — **open-loop**: requests arrive on their
//! own schedule whether or not the service keeps up, and the interesting
//! question is not ops/thread but *at what offered load does the p99
//! blow through the SLO*. This crate asks that question of every queue
//! in the tree:
//!
//! * [`plan`]: [`LoadPlan`] — seed, arrival pattern ([`ArrivalPattern`]:
//!   Poisson / bursty on-off / diurnal ramp), rate, stage-thread counts,
//!   and service time, all integers. Arrival times are precomputed from
//!   the seed, so offered load never depends on service progress.
//! * [`stage`]: the driven stage graph — sources replay the schedule
//!   into an **ingress** queue, a worker pool services requests into an
//!   **egress** queue, and egress threads timestamp completion. Both
//!   boundaries are the queue under test; runs on either
//!   [`harness::Backend`] and optionally records typed `obs` spans.
//! * [`knee`]: [`find_knee`] — the first offered-load point whose e2e
//!   p99 exceeds the SLO or whose ingress depth diverges.
//! * [`sweep`]: [`run_sweep`] — a rate ladder fanned across the
//!   [`runner`] job pool with submission-order merge, rendered as TSV or
//!   JSON (`sbq-loadgen-v1`) that is byte-identical across repeats and
//!   job counts on the simulator.
//!
//! `simctl load` is the command-line entry point.

pub mod knee;
pub mod plan;
pub mod stage;
pub mod sweep;

pub use knee::{find_knee, Knee, KneeProbe, KneeReason};
pub use plan::{ArrivalPattern, LoadPlan, CLOCK_HZ};
pub use stage::{machine_for, run_load, run_load_on, LoadPoint, LoadRun};
pub use sweep::{check_json, default_rates, run_sweep, to_json, to_tsv, SweepResult, SweepSpec};
