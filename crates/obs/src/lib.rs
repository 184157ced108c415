//! # obs — unified observability for both execution backends
//!
//! The paper's whole argument is read off timelines (Figures 2a/2b/3 are
//! coherence message schedules; Figures 5–7 are latency curves), and a
//! production queue needs the same visibility: per-op latency
//! percentiles, structured spans, and machine-readable traces. This
//! crate is that layer, shared by the coherence simulator and the
//! native-atomics backend:
//!
//! * [`event`] — typed spans and instants ([`SpanKind`], [`InstantKind`]),
//!   timestamped in cycles: simulated cycles on `SimBackend` (fully
//!   deterministic), wall-clock cycles at the nominal 2.2 GHz on
//!   `NativeBackend`.
//! * [`ring`] — per-thread bounded event buffers ([`ThreadObs`]; lock-free
//!   recording, one mutex submit per thread per run) collected by an
//!   [`ObsSink`].
//! * [`hist`] — in-tree log-bucketed latency [`Histogram`]s with
//!   p50/p90/p99/p999/max and *exact-count* merge.
//! * [`chrome`] — Chrome trace-event JSON export (one track per
//!   core/thread plus a directory track bridging
//!   [`coherence::TraceEvent`]), a TSV sibling, and a schema
//!   [`chrome::validate`] built on the in-tree [`json`] parser.
//! * [`trace_render`] — the ASCII swim-lane renderer for the paper's
//!   Figure 2/3 diagrams (moved here from `bench`).
//!
//! ## Determinism contract
//!
//! Observability is **off by default** and near-zero-cost when disabled
//! (an `Option` check per already-instrumented call site); determinism
//! goldens and bench numbers are computed with it off. When enabled it
//! never feeds back into execution: recording reuses timestamps the
//! caller already read, so simulated timings — and with them the recorded
//! events — are bit-identical with observability on or off. On the
//! simulator backend the exported trace for a fixed seed is therefore
//! **byte-identical across runs**, making traces themselves a
//! determinism regression surface (see `tests/obs_trace.rs` and the CI
//! `trace-smoke` job).

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod ring;
pub mod trace_render;

pub use chrome::{export, export_tsv, validate, TraceSummary};
pub use event::{InstantKind, ObsEvent, SpanKind};
pub use hist::Histogram;
pub use ring::{ObsSink, ThreadLog, ThreadObs, DEFAULT_RING_CAPACITY};
