//! # bench — the harness that regenerates the paper's evaluation
//!
//! One module per concern:
//!
//! * [`workload`] — the paper's three workloads (§6.1): producer-only,
//!   consumer-only (pre-filled), and mixed with producers and consumers on
//!   separate sockets — runnable on either `harness` backend (queue
//!   adapters and execution live in the `harness` crate);
//! * [`fig`] — the [`fig::Figure`] registry that renders each figure's
//!   data series as TSV (figure id → DESIGN.md §4 maps it to the paper).
//!
//! `simctl fig <name|all> [ops= threads= grid= jobs= out=]` is the one
//! command that regenerates a figure. Host-time measurement lives in the
//! separate `perfbench` crate (see `perfbench/README.md`).

pub mod fig;
pub mod workload;
