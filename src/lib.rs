//! # sbq-repro — umbrella crate
//!
//! A from-scratch Rust reproduction of Ostrovsky & Morrison, *Scaling
//! Concurrent Queues by Using HTM to Profit from Failed Atomic
//! Operations* (PPoPP 2020). This root crate re-exports the workspace and
//! hosts the cross-crate integration tests (`tests/`) and runnable
//! examples (`examples/`).
//!
//! Layer map (bottom-up):
//!
//! | crate | role |
//! |---|---|
//! | [`simalloc`] | scalable word-range allocator (Memkind stand-in) |
//! | [`absmem`] | word-addressed memory model, RTM-style transactional interface, native atomics backend |
//! | [`coherence`] | discrete-event MSI directory + HTM simulator |
//! | [`sbq`] | **the contribution**: TxCAS, scalable basket, SBQ |
//! | [`baselines`] | MS-Queue, BQ-Original, WF-Queue, CC-Queue |
//! | [`linearize`] | aspect-oriented queue linearizability checker |
//! | [`harness`] | backend-generic execution layer: `Backend` trait (sim + native), queue adapters, history recording |
//! | [`mod@bench`] | workloads + drivers regenerating every paper figure |
//!
//! Start with `examples/quickstart.rs` for the production queue API, and
//! `cargo run --release --bin simctl -- fig all` for the paper's
//! evaluation.

pub use absmem;
pub use baselines;
// `pub use bench;` would shadow rustc's built-in (unstable) `bench`
// name; expose the harness under an explicit alias instead.
pub use ::bench as bench_harness;
pub use coherence;
pub use harness;
pub use linearize;
pub use sbq;
pub use simalloc;
