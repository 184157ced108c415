//! Backend-generic harness: one execution layer that runs every queue,
//! workload, fuzz campaign, and linearizability check on **both** the
//! coherence simulator and native atomics.
//!
//! The repo's layering (bottom to top):
//!
//! | layer | owns |
//! |-------|------|
//! | `absmem` | the word-addressed memory model: [`absmem::ThreadCtx`], CAS strategies, the transactional interface [`absmem::txn`], the native substrate |
//! | `coherence` | the simulated substrate: MSI machine, HTM, `SimCtx` |
//! | `core`/`sbq`/`baselines` | queue algorithms, generic over `ThreadCtx` |
//! | **`harness`** (this crate) | *running* queues: [`Backend`], the [`QueueKind`] adapters, history recording |
//! | `bench`/`simfuzz`/top-level tests | workloads, fuzzing, and suites written **once** against this crate |
//!
//! The pieces:
//!
//! - [`backend`]: the [`Backend`] trait (setup job + n thread jobs →
//!   report) with [`SimBackend`] and [`NativeBackend`] implementations.
//! - [`queues`]: [`QueueAdapter`], the seven [`QueueKind`] adapters, and
//!   the [`Substrate`] capability trait that picks `TxCas` where HTM
//!   exists and `DelayedCas` where it does not.
//! - [`history`]: [`record_history`] — the one copy of the
//!   attach/barrier/drive/record loop, plus canonical sorting and
//!   digesting of the merged history. A [`DriveSpec`] may carry an
//!   `obs::ObsSink`, in which case the same loop also emits typed
//!   observability spans on either backend (off by default; recording
//!   reuses the history timestamps, so it cannot perturb the run).
//! - [`scenario`]: component-driven end-to-end scenarios (preemption,
//!   timer-paced consumer, DMA-style bulk enqueuer) over the simulator's
//!   component spine, with deterministic summaries for CI diffing.

pub mod backend;
pub mod history;
pub mod queues;
pub mod scenario;

pub use backend::{Backend, BackendKind, BackendReport, Job, NativeBackend, SimBackend};
pub use history::{
    dequeue_multiset, enqueue_multiset, history_digest, history_value, mixed_ops, record_history,
    sort_history, DriveOutcome, DriveSpec,
};
pub use queues::{
    BqOriginalQ, CcQ, MsQ, QueueAdapter, QueueKind, QueueParams, QueueVisitor, SbqCasQ, SbqHtmQ,
    SbqStripedQ, Substrate, WfQ,
};
pub use scenario::{run_scenario, ActorFamily, ScenarioOutcome, ScenarioSpec};
