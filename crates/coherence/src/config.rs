//! Machine configuration: topology and timing parameters.
//!
//! Defaults are calibrated so that the simulated curves land in the same
//! regime as the paper's Broadwell measurements (§6.1): a coherence message
//! delay of "about 15–30 cycles", a 2.2 GHz clock, and a dual-socket
//! interconnect several times slower than the on-chip one.

/// Nominal clock, GHz, used to convert simulated cycles to nanoseconds.
pub const GHZ: f64 = 2.2;

/// Converts simulated cycles to nanoseconds at the nominal clock.
pub fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 / GHZ
}

/// Converts nanoseconds to simulated cycles at the nominal clock.
pub fn ns_to_cycles(ns: f64) -> u64 {
    (ns * GHZ).round() as u64
}

/// Declarative description of one non-core actor on the machine's
/// discrete-event component spine (built into a live
/// `coherence::component::Component` by `Sim::new`). All fields are plain
/// integers so specs round-trip exactly through text plans and fuzz
/// artifacts; an empty spec list leaves the simulator byte-identical to
/// the pre-component machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentSpec {
    /// A periodic preemption/interrupt source. Every `period` cycles
    /// (first firing at `start`) it interrupts one core: a victim inside a
    /// hardware transaction takes a `txn::INTERRUPT` abort and resumes
    /// `cost` cycles later (the handler runs before the abort is
    /// delivered). `victim` pins a single core; `None` round-robins over
    /// all application cores.
    Interrupt {
        /// Cycles between firings; must be nonzero.
        period: u64,
        /// Absolute time of the first firing.
        start: u64,
        /// Handler cost charged to an aborted victim, cycles.
        cost: u64,
        /// Pinned victim core, or `None` for round-robin.
        victim: Option<usize>,
    },
    /// A periodic tick gate pacing one core: every `period` cycles (first
    /// firing at `start`) it releases that core's `wait_tick()`, or banks
    /// the tick if the core is not waiting yet. Drives timer-paced
    /// consumers and DMA-style bulk producers. `count` bounds the number
    /// of firings; 0 means unlimited.
    TickGate {
        /// The paced application core.
        core: usize,
        /// Cycles between firings; must be nonzero.
        period: u64,
        /// Absolute time of the first firing.
        start: u64,
        /// Number of firings, 0 = unlimited.
        count: u64,
    },
    /// A benign no-op actor that ticks every `period` cycles and does
    /// nothing — it exists to prove that merely *scheduling* components
    /// never perturbs a run (the cross-link differential suite
    /// attaches one and demands byte-identical reports). `count` bounds
    /// the number of ticks; 0 = unlimited.
    Heartbeat {
        /// Cycles between ticks; must be nonzero.
        period: u64,
        /// Number of ticks, 0 = unlimited.
        count: u64,
    },
}

/// Per-line directory home-socket policy: which socket's LLC slice
/// holds a cache line's directory entry, and hence which hops its
/// directory-bound coherence messages pay. Core↔core transfers are
/// unaffected — only the `Node::Dir` leg of a message is priced by the
/// line's home.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HomePolicy {
    /// Every line homes on socket 0 — the seed behaviour, and the right
    /// model for a single socket. All calibrated goldens use this
    /// policy.
    #[default]
    Fixed,
    /// Hash-interleaved: a multiplicative hash of the line address
    /// spreads homes uniformly over the sockets, like interleaved page
    /// placement. The directory load and the cross-socket penalty are
    /// shared evenly regardless of access pattern.
    Interleave,
    /// First-touch: a line homes on the socket of the first core whose
    /// request for it reaches the interconnect, like first-touch page
    /// placement. Socket-local working sets stay local; shared lines
    /// home wherever they were first used.
    FirstTouch,
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of application cores (hardware threads in the paper's terms —
    /// we model one hardware thread per simulated core).
    pub cores: usize,
    /// Cores per socket; core `c` lives on socket `c / cores_per_socket`.
    /// The bootstrap core used for pre-run setup lives on socket 0.
    pub cores_per_socket: usize,
    /// One-way message delay between nodes on the same socket, cycles.
    pub hop_intra: u64,
    /// One-way message delay when crossing the socket interconnect, cycles.
    pub hop_cross: u64,
    /// How cache-line addresses map to directory home sockets (the NUMA
    /// geometry of the paper's dual-socket machine, §6.1). The default
    /// keeps every line on socket 0, which is byte-identical to the
    /// pre-policy simulator.
    pub home_policy: HomePolicy,
    /// Directory/LLC-slice occupancy: minimum spacing between two
    /// requests the directory processes, cycles. Nonzero occupancy is
    /// what staggers simultaneous requesters on real hardware; with 0 the
    /// deterministic simulator keeps contending cores in artificial
    /// lockstep.
    pub dir_occupancy: u64,
    /// Private-cache controller occupancy: minimum spacing between two
    /// *incoming coherence requests* (Fwd-GetS/Fwd-GetM/Inv) one cache
    /// serves, cycles. Lengthens owner-to-owner handoff chains and
    /// serializes request funnels to a single owner, as on real parts.
    pub cache_occupancy: u64,
    /// Random extension of every `delay()` as a percentage of its length
    /// (uniform in `0..=pct`), modelling the out-of-order/interrupt noise
    /// real cores experience. Deterministic per `seed`.
    pub delay_jitter_pct: u64,
    /// Cost of a load/store hit in the local cache, cycles.
    pub hit_cycles: u64,
    /// Execution cost of an atomic RMW once the line is owned, cycles.
    pub rmw_cycles: u64,
    /// Fixed per-operation front-end cost charged when a thread issues any
    /// memory operation, cycles.
    pub op_cycles: u64,
    /// Cost of an allocator call (simalloc fast path), cycles.
    pub alloc_cycles: u64,
    /// Cost of `_xbegin`, cycles.
    pub xbegin_cycles: u64,
    /// Cost of a committing `_xend`, cycles (on top of waiting for the
    /// write's GetM to complete).
    pub xend_cycles: u64,
    /// Grant the MESI Exclusive state on a sole-reader GetS, letting the
    /// owner upgrade to Modified silently (no GetM) on its first write.
    /// The paper's analysis is protocol-family-independent ("applies to
    /// the MOESI and MESIF protocols used commercially", §3.1); this flag
    /// exists to demonstrate that: contended behaviour — the subject of
    /// every figure — is unchanged, only uncontended read-then-write
    /// sequences save a directory round trip. Default off so the
    /// calibrated baseline stays the paper's MSI model.
    pub mesi_exclusive: bool,
    /// Enable the paper's §3.4.1 microarchitectural fix: a Fwd-GetS that
    /// reaches a core blocked in `_xend` with a single pending GetM is
    /// stalled until the transaction commits instead of aborting it.
    pub microarch_fix: bool,
    /// Probability that a transaction suffers a spurious (non-conflict)
    /// abort at `_xend`, modelling interrupts and other
    /// implementation-specific aborts. 0.0 disables.
    pub spurious_abort_prob: f64,
    /// Transactional capacity, in distinct read-set + write-set entries:
    /// a transaction whose footprint grows past this limit aborts with
    /// `txn::CAPACITY` (RTM's `_XABORT_CAPACITY`). 0 disables the model
    /// (unbounded capacity, the calibrated default — the paper's
    /// transactions touch a handful of lines). Used by the fuzzer to
    /// exercise fallback paths.
    pub tx_capacity_lines: usize,
    /// Scheduler-choice perturbation: maximum extra cycles (uniform in
    /// `0..=sched_perturb`, drawn from the seeded RNG) added to the issue
    /// time of each thread operation. This biases *which ready core runs
    /// next* without touching in-flight protocol messages, so distinct
    /// seeds explore distinct coherence interleavings instead of one
    /// canonical schedule. 0 disables (the calibrated default).
    pub sched_perturb: u64,
    /// RNG seed for delay jitter, spurious aborts, and scheduler
    /// perturbation (and nothing else — the simulator is otherwise
    /// deterministic).
    pub seed: u64,
    /// Decide uncontended local-hit operations at submission — no
    /// directory messages, no inbox, no per-op dispatch; a single
    /// stand-in event finishes the op — whenever doing so is provably
    /// bit-exact with the full protocol (see `Sim::try_fast_path` and
    /// DESIGN.md §12 for the admission conditions). The slow path remains
    /// the semantic reference: runs with this flag off are byte-identical
    /// to runs with it on, just slower. Default on; the determinism
    /// goldens pin both settings.
    pub fast_path: bool,
    /// Paint each fiber stack with the canary pattern at spawn so the
    /// run can report a stack high-water mark
    /// (`Stats::stack_high_water`). Costs one memset per fiber, so it
    /// is off by default — stack memory is otherwise deliberately left
    /// uninitialized (zeroing large stacks per run is a measured cost).
    /// Only the fiber link has stacks to paint; the thread link ignores
    /// it.
    pub measure_stacks: bool,
    /// Record a full message/transaction trace (costly; for the Figure 2/3
    /// reproductions and debugging).
    pub trace: bool,
    /// Check the single-writer/multi-reader invariant (at most one M/E
    /// holder per line) by scanning every cache's lines once every 64
    /// events. On by default in debug builds.
    pub check_invariants: bool,
    /// Non-core actors to place on the component spine (interrupt
    /// sources, tick gates, heartbeats — see [`ComponentSpec`]). Empty by
    /// default: with no components configured the event stream, and hence
    /// every determinism golden, is byte-identical to the pre-component
    /// simulator.
    pub components: Vec<ComponentSpec>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 4,
            cores_per_socket: 44,
            hop_intra: 25,
            hop_cross: 110,
            home_policy: HomePolicy::Fixed,
            dir_occupancy: 4,
            cache_occupancy: 8,
            delay_jitter_pct: 20,
            hit_cycles: 4,
            rmw_cycles: 15,
            op_cycles: 2,
            alloc_cycles: 30,
            xbegin_cycles: 12,
            xend_cycles: 12,
            mesi_exclusive: false,
            microarch_fix: false,
            spurious_abort_prob: 0.0,
            tx_capacity_lines: 0,
            sched_perturb: 0,
            seed: 0x5b90,
            fast_path: true,
            measure_stacks: false,
            trace: false,
            check_invariants: cfg!(debug_assertions),
            components: Vec::new(),
        }
    }
}

impl MachineConfig {
    /// A single-socket machine with `cores` cores (the paper's
    /// intra-processor evaluation setup).
    pub fn single_socket(cores: usize) -> Self {
        MachineConfig {
            cores,
            cores_per_socket: cores.max(1),
            ..Default::default()
        }
    }

    /// A dual-socket machine with `per_socket` cores on each socket
    /// (the paper's mixed-workload setup).
    pub fn dual_socket(per_socket: usize) -> Self {
        MachineConfig {
            cores: per_socket * 2,
            cores_per_socket: per_socket,
            ..Default::default()
        }
    }

    /// A machine with `sockets` sockets of `per_socket` cores each, lines
    /// hash-interleaved over the sockets' directory slices (the natural
    /// policy once more than one socket exists — a fixed home makes
    /// multi-socket sweeps degenerate).
    pub fn multi_socket(sockets: usize, per_socket: usize) -> Self {
        MachineConfig {
            cores: sockets * per_socket,
            cores_per_socket: per_socket.max(1),
            home_policy: if sockets > 1 {
                HomePolicy::Interleave
            } else {
                HomePolicy::Fixed
            },
            ..Default::default()
        }
    }

    /// Number of sockets the configured cores span.
    pub fn sockets(&self) -> usize {
        self.cores.div_ceil(self.cores_per_socket.max(1)).max(1)
    }

    /// Socket of core `c`. The bootstrap core (index == `cores`) is mapped
    /// to socket 0.
    pub fn socket_of(&self, core: usize) -> usize {
        if core >= self.cores {
            0
        } else {
            core / self.cores_per_socket
        }
    }

    /// One-way latency between two sockets.
    pub fn hop(&self, s1: usize, s2: usize) -> u64 {
        if s1 == s2 {
            self.hop_intra
        } else {
            self.hop_cross
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_mapping() {
        let c = MachineConfig::dual_socket(4);
        assert_eq!(c.socket_of(0), 0);
        assert_eq!(c.socket_of(3), 0);
        assert_eq!(c.socket_of(4), 1);
        assert_eq!(c.socket_of(7), 1);
        assert_eq!(c.socket_of(8), 0, "bootstrap core is on socket 0");
    }

    #[test]
    fn hop_latency_depends_on_socket() {
        let c = MachineConfig::dual_socket(2);
        assert_eq!(c.hop(0, 0), c.hop_intra);
        assert_eq!(c.hop(0, 1), c.hop_cross);
    }

    #[test]
    fn socket_counts() {
        assert_eq!(MachineConfig::single_socket(44).sockets(), 1);
        assert_eq!(MachineConfig::dual_socket(44).sockets(), 2);
        let quad = MachineConfig::multi_socket(4, 44);
        assert_eq!(quad.cores, 176);
        assert_eq!(quad.sockets(), 4);
        assert_eq!(quad.home_policy, HomePolicy::Interleave);
        assert_eq!(quad.socket_of(175), 3);
        assert_eq!(quad.socket_of(176), 0, "bootstrap core is on socket 0");
        assert_eq!(
            MachineConfig::multi_socket(1, 8).home_policy,
            HomePolicy::Fixed
        );
    }

    #[test]
    fn cycles_ns_roundtrip() {
        assert_eq!(ns_to_cycles(cycles_to_ns(2200)), 2200);
    }
}
