//! # baselines — the comparator queues of the paper's evaluation (§6.1)
//!
//! Every queue the paper measures SBQ against, implemented from scratch
//! over [`absmem::ThreadCtx`] so that the same code runs natively and on
//! the coherence simulator:
//!
//! * [`ms_queue`] — the Michael–Scott queue: the classic retried-CAS
//!   design and the framework's common ancestor.
//! * [`bq_original`] — BQ-Original, the original baskets queue, expressed
//!   as the modular queue with a self-sealing LIFO basket.
//! * [`wf_queue`] — WF-Queue, Yang & Mellor-Crummey's FAA-based queue
//!   (fast path; see that module for the documented slow-path deviation).
//! * [`cc_queue`] — CC-Queue, Fatourou & Kallimanis's combining queue
//!   (CC-Synch protocol over a sequential list).
//!
//! None of these scale: each performs at least one contended atomic RMW
//! per operation (§3.2) — which is precisely what the benchmarks must
//! show.

pub mod bq_original;
pub mod cc_queue;
pub mod ms_queue;
pub mod wf_queue;

pub use bq_original::{new_bq_original, BqOriginal, LifoBasket};
pub use cc_queue::{CcHandle, CcQueue};
pub use ms_queue::MsQueue;
pub use wf_queue::{WfHandle, WfQueue, SEG_CELLS};
