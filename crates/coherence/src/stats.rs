//! Run statistics and trace records.
//!
//! Counters are fixed arrays indexed by message/op kind — incrementing
//! one is an add at a compile-time-known offset, with no hashing on the
//! per-operation path — and iteration order is the declaration order
//! below, so every report renders deterministically.

/// Message kinds, in canonical (declaration/report) order. Indices match
/// `Msg::kind_id`.
pub const MSG_KINDS: [&str; 9] = [
    "GetS",
    "GetM",
    "Data",
    "Inv",
    "InvAck",
    "Fwd-GetS",
    "Fwd-GetM",
    "DataOwner",
    "WbData",
];

/// Operation kinds, in canonical (declaration/report) order. Indices
/// match `OpKind::name_id`.
pub const OP_KINDS: [&str; 10] = [
    "read", "write", "cas", "faa", "swap", "delay", "xbegin", "xend", "xabort", "waittick",
];

/// Counters accumulated over a simulation run.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Messages delivered, indexed by [`MSG_KINDS`].
    msgs: [u64; MSG_KINDS.len()],
    /// Transactions committed.
    pub tx_commits: u64,
    /// Transactions aborted by a data conflict.
    pub tx_aborts_conflict: u64,
    /// Conflict aborts specifically caused by a Fwd-GetS hitting a
    /// transactionally written line — the paper's *tripped writer* (§3.4).
    pub tripped_writers: u64,
    /// Transactions aborted explicitly by the program.
    pub tx_aborts_explicit: u64,
    /// Spurious (interrupt-like) aborts injected by configuration.
    pub tx_aborts_spurious: u64,
    /// Aborts from exceeding the modelled transactional capacity
    /// (`MachineConfig::tx_capacity_lines`).
    pub tx_aborts_capacity: u64,
    /// Aborts injected by a preemption/interrupt component
    /// (`ComponentSpec::Interrupt` → `txn::INTERRUPT`).
    pub tx_aborts_interrupt: u64,
    /// Interrupts fired by preemption components, whether or not the
    /// victim was in a transaction (non-transactional victims absorb the
    /// handler without an engine-visible effect).
    pub interrupts_fired: u64,
    /// Component ticks dispatched (`Event::CompTick`). Like `events`, an
    /// engine-work measure, not a protocol observable.
    pub comp_ticks: u64,
    /// Coherence messages stalled at a cache because of a pending request
    /// or an executing RMW.
    pub stalls: u64,
    /// Fwd-GetS requests stalled by the §3.4.1 microarchitectural fix.
    pub fix_stalls: u64,
    /// Operations admitted by the uncontended fast path
    /// (`MachineConfig::fast_path`): local hits decided at submission,
    /// skipping the inbox and per-op dispatch. Excluded from the
    /// determinism fingerprint — the fast path changes *how* an op
    /// retires, never *what* it does.
    pub fastpath_hits: u64,
    /// Operations submitted while the fast path was enabled that did not
    /// meet its admission conditions and took the full protocol path.
    pub fastpath_fallbacks: u64,
    /// Scheduler events processed (`Sim::step` calls that dispatched an
    /// event). A wall-clock cost measure — how much engine work a run
    /// took — not a protocol observable; excluded from the determinism
    /// fingerprint for the same reason as the fast-path counters.
    pub events: u64,
    /// Messages whose endpoints sat on the same socket (a directory leg
    /// is priced at the line's home socket — see
    /// `MachineConfig::home_policy`).
    pub hops_intra: u64,
    /// Messages that crossed the socket interconnect.
    pub hops_cross: u64,
    /// The subset of `hops_cross` with the directory on one end: a
    /// requesting or responding core that was not on the line's home
    /// socket. The NUMA cost the home-socket policies exist to shape;
    /// rendered as a Dir-track counter by the obs Chrome exporter.
    pub dir_hops_cross: u64,
    /// Total fiber-stack bytes the run reserved (spawned fibers ×
    /// `fiber::DEFAULT_STACK`). A host-footprint measure like `events`:
    /// 0 on the thread link, whose cores run on OS-thread stacks, and
    /// excluded from the determinism fingerprint.
    pub stack_bytes_total: u64,
    /// Deepest stack use, bytes, observed over all fibers via the canary
    /// paint. 0 unless `MachineConfig::measure_stacks` was set (and
    /// always 0 on the thread link).
    pub stack_high_water: u64,
    /// Memory operations executed, indexed by [`OP_KINDS`].
    ops: [u64; OP_KINDS.len()],
}

impl Stats {
    #[inline]
    pub(crate) fn count_msg(&mut self, kind_id: usize) {
        self.msgs[kind_id] += 1;
    }

    #[inline]
    pub(crate) fn count_op(&mut self, kind_id: usize) {
        self.ops[kind_id] += 1;
    }

    /// Total messages of the given kind (0 for unknown names).
    pub fn msg(&self, kind: &str) -> u64 {
        MSG_KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| self.msgs[i])
    }

    /// Total operations of the given kind ("read", "write", "cas", ...;
    /// 0 for unknown names).
    pub fn op(&self, kind: &str) -> u64 {
        OP_KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |i| self.ops[i])
    }

    /// Per-kind message counts, in [`MSG_KINDS`] order.
    pub fn msgs(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        MSG_KINDS.iter().zip(self.msgs).map(|(&k, n)| (k, n))
    }

    /// Per-kind operation counts, in [`OP_KINDS`] order.
    pub fn ops(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        OP_KINDS.iter().zip(self.ops).map(|(&k, n)| (k, n))
    }

    /// Total aborts of all causes.
    pub fn tx_aborts(&self) -> u64 {
        self.tx_aborts_conflict
            + self.tx_aborts_explicit
            + self.tx_aborts_spurious
            + self.tx_aborts_capacity
            + self.tx_aborts_interrupt
    }
}

/// One entry in the (optional) event trace, sufficient to re-draw the
/// paper's Figure 2/3 message diagrams.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A message was sent at `sent` and delivered at `recv`.
    Msg {
        sent: u64,
        recv: u64,
        src: String,
        dst: String,
        kind: &'static str,
        line: u64,
    },
    /// A transaction-lifecycle event ("xbegin", "commit", "abort") on
    /// `core` at `time`. `detail` (nesting depth or RTM status word) is
    /// carried at full counter width: paper-scale machines (176 cores ×
    /// long runs) overflow a `u32` once cumulative quantities ride in it.
    Tx {
        time: u64,
        core: usize,
        what: &'static str,
        detail: u64,
    },
    /// A memory operation by `core` completed at `time`.
    Op {
        time: u64,
        core: usize,
        what: &'static str,
        line: u64,
    },
    /// A component-spine action at `time`: component `comp` (its index in
    /// `MachineConfig::components`; `name` is its stable name) did `what`
    /// ("interrupt", "release", "bank") to application core `core`.
    Comp {
        time: u64,
        comp: usize,
        name: &'static str,
        what: &'static str,
        core: usize,
    },
}

/// Result of a full simulation run.
#[derive(Debug)]
pub struct RunReport {
    /// Simulated time at which the last thread finished, cycles.
    pub end_time: u64,
    /// Simulated finish time of each application thread, cycles.
    pub core_end: Vec<u64>,
    /// Counter snapshot.
    pub stats: Stats,
    /// Message/transaction trace, if `MachineConfig::trace` was set.
    pub trace: Vec<TraceEvent>,
}
