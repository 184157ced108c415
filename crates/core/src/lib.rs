//! # sbq — the Scalable Baskets Queue and TxCAS
//!
//! A from-scratch Rust reproduction of the primary contribution of
//! Ostrovsky & Morrison, *Scaling Concurrent Queues by Using HTM to Profit
//! from Failed Atomic Operations* (PPoPP 2020):
//!
//! * [`txcas`] — **TxCAS** (Algorithm 1), a compare-and-set implemented as
//!   a hardware transaction whose *failures* scale: contending losers are
//!   aborted concurrently by the winner's single coherence write instead
//!   of serializing through the exclusive-ownership handoff chain.
//! * [`basket`] — the basket abstract data type (§5.2.1) and the paper's
//!   scalable basket (§5.3.1): per-inserter cells for
//!   synchronization-free insertion, FAA-ticketed extraction, a sticky
//!   empty bit.
//! * [`modular`] — the modular baskets queue (§5.2, Algorithms 2–7):
//!   a linked list of basket nodes with pluggable basket and CAS strategy,
//!   plus the paper's epoch-based memory reclamation. The paper's two
//!   variants are `ModularQueue<SbqBasket, TxCas>` (SBQ-HTM; needs an
//!   HTM-capable backend, here the simulator) and
//!   `ModularQueue<SbqBasket, DelayedCas>` (SBQ-CAS; runs anywhere); the
//!   harness crate's queue adapters assemble both.
//! * [`native`] — a production-usable typed MPMC queue `Sbq<T>` over real
//!   atomics (SBQ-CAS strategy; see that module for why native TxCAS is
//!   not available).
//!
//! The algorithms are written once, against [`absmem::ThreadCtx`], and run
//! on both the native backend and the `coherence` simulator, where the
//! paper's scalability claims are measured (see the `bench` crate).

pub mod basket;
pub mod basket_striped;
pub mod modular;
pub mod native;
pub mod txcas;

pub use basket::{Basket, SbqBasket, ELEM_MAX, NULL_ELEM};
pub use basket_striped::StripedBasket;
pub use modular::{AppendStatus, EnqueuerState, ModularQueue, QueueConfig, SingleBasket};
pub use native::{Sbq, SbqHandle};
pub use txcas::{txn_cas, TxCas, TxCasParams, TxCasStats};
