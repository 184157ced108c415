//! # coherence — the simulated multicore substrate
//!
//! A discrete-event simulator of a directory-based MSI cache-coherence
//! protocol with hardware transactional memory layered on top, built to
//! reproduce Ostrovsky & Morrison, *Scaling Concurrent Queues by Using HTM
//! to Profit from Failed Atomic Operations* (PPoPP 2020) on hardware
//! without HTM.
//!
//! The simulator substitutes for the paper's dual-socket Broadwell machine
//! (see DESIGN.md §1 for the substitution argument). It models:
//!
//! * point-to-point interconnect with per-hop latency and a two-socket
//!   topology (§3.1, §4.3 of the paper);
//! * a directory that serializes GetS/GetM requests and sends back-to-back
//!   invalidations (§3.1);
//! * private caches that stall Fwd requests behind their own pending
//!   request or executing RMW — the mechanism that serializes contended
//!   atomic operations (§3.2, Figure 2a);
//! * requester-wins HTM with flat nesting and RTM-style abort status
//!   words, including the tripped-writer abort and the paper's proposed
//!   microarchitectural fix (§3.3–3.4, Figures 2b and 3).
//!
//! Thread programs are ordinary Rust closures over [`machine::SimCtx`],
//! which implements [`absmem::ThreadCtx`]; the same queue code that runs
//! on real atomics runs here, measured in simulated cycles.
//!
//! ```
//! use coherence::{Machine, MachineConfig};
//! use absmem::ThreadCtx;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let cfg = MachineConfig::single_socket(4);
//! let shared = Arc::new(AtomicU64::new(0));
//! let s2 = Arc::clone(&shared);
//! let report = Machine::new(cfg).run(
//!     Box::new(move |ctx| {
//!         let a = ctx.alloc(1);
//!         ctx.write(a, 0);
//!         s2.store(a, Ordering::SeqCst);
//!     }),
//!     (0..4)
//!         .map(|_| {
//!             let shared = Arc::clone(&shared);
//!             Box::new(move |ctx: &mut coherence::SimCtx| {
//!                 let a = shared.load(Ordering::SeqCst);
//!                 for _ in 0..100 {
//!                     ctx.faa(a, 1);
//!                 }
//!             }) as coherence::Program
//!         })
//!         .collect(),
//! );
//! // 4 threads x 100 increments, fully accounted:
//! assert_eq!(report.stats.op("faa"), 400);
//! ```

pub mod config;
#[cfg(target_arch = "x86_64")]
pub mod fiber;
pub mod fxhash;
pub mod machine;
pub mod msg;
pub mod sim;
pub mod stats;

pub use config::{cycles_to_ns, ns_to_cycles, ComponentSpec, HomePolicy, MachineConfig, GHZ};
pub use machine::{Machine, Program, SimCtx};
pub use stats::{RunReport, Stats, TraceEvent};
