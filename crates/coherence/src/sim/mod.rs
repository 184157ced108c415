//! The protocol engine: directory, private caches, HTM conflict handling,
//! and the discrete-event core.
//!
//! Everything here runs on the scheduler thread; application threads only
//! see [`crate::machine::SimCtx`]. The engine models the dynamics the paper
//! analyzes in §3:
//!
//! * contended atomic RMWs serialize through an owner-to-owner Fwd-GetM
//!   handoff chain, giving the ≈(C+1)/2-message-delay average latency of
//!   §3.2;
//! * HTM transactions track read and write sets, buffer their writes, and
//!   abort on receipt of a conflicting coherence message (requester-wins),
//!   so the back-to-back invalidations of a single winning GetM abort all
//!   read-phase transactions *concurrently* (§3.3);
//! * a Fwd-GetS that reaches a core whose transactional write is still
//!   waiting for invalidation acks aborts it — the tripped writer (§3.4) —
//!   unless the §3.4.1 microarchitectural fix is enabled, in which case the
//!   request is stalled until the commit.
//!
//! Each rule has one home among the child modules: `event` orders
//! everything by `(time, seq)`; this module prices the interconnect
//! (`send`) and drives the events (`step`); `ops` issues thread ops — a
//! miss in `issue_miss`, the §3.2 RMW window in `start_rmw`, transaction
//! begin/commit/abort; `cache` holds per-core state, including the
//! buffered transactional write (`Cache::tx_write`); `protocol` handles
//! the messages a cache receives, with every Fwd stall rule in
//! `on_fwd`; `directory` serializes requests per line; `fastpath` decides
//! local hits at submission through the same `cache` and capacity
//! functions; and `spine` ticks the configured components.
//!
//! ### Commit atomicity
//!
//! On real hardware the transactional store retires into the store buffer
//! immediately and `_xend` blocks until the GetM completes, so the commit
//! is atomic with request completion (§3.4.1). In this engine the *write*
//! operation blocks the thread until ownership instead, which opens a
//! few-cycle simulated window between write completion and the `xend`
//! request. To keep the paper's "the first GetM winner commits" behaviour
//! exact, Fwd requests arriving for a transactionally written line whose
//! ownership is already held are stalled until commit/abort rather than
//! aborting the transaction; the true tripped-writer abort is the Fwd-GetS
//! that arrives while the GetM is still pending.
//!
//! ### State layout and the uncontended fast path
//!
//! Line addresses are interned into a dense `LineId` arena; everything
//! keyed per line — the line's value, each cache's state byte, the
//! directory entry — is an arena-indexed array rather than a hash map, so
//! the per-operation hit check is a couple of indexed loads. Under the
//! single-writer model every valid copy of a line holds the same value,
//! so the arena stores it once: a line costs 8 B of value, 1 B of state
//! per cache and a 40 B directory entry, and a 176-core machine about
//! 225 B per line it touches. On top of that layout, `submit_op` decides
//! uncontended local hits at submission: the state mutation happens
//! immediately (or is delegated for RMWs) and a single stand-in event —
//! no directory messages, no inbox traversal, no per-op dispatch —
//! retires the op at exactly the time and event-sequence position the
//! full protocol would have used. The admission conditions (see
//! `Sim::try_fast_path`) are chosen so this is provably bit-exact with
//! the full protocol, which remains available as the semantic reference
//! via `MachineConfig::fast_path = false`.

mod cache;
mod directory;
mod event;
mod fastpath;
mod ops;
mod protocol;
mod spine;

pub use event::testhooks;

use crate::config::{HomePolicy, MachineConfig};
use crate::fxhash::FxHashMap;
use crate::msg::{Msg, Node};
use crate::stats::{Stats, TraceEvent};
use cache::{decode_state, Cache, OpState};
use directory::Directory;
use event::{Event, EventQ};
use simrng::SimRng;
use std::sync::Arc;

/// Dense index of an interned line address. Word-granular simulated
/// memory recycles addresses through `simalloc`, so the arena grows only
/// with the lines a run has touched, and every per-line array is indexed
/// by it: 8 B of value per line, 1 B of state per cache per line, and a
/// 40 B directory entry.
type LineId = u32;

/// The address ⇄ id interner shared by the directory and every cache,
/// and beside it each line's one current value.
#[derive(Debug)]
struct LineArena {
    ids: FxHashMap<u64, LineId>,
    addrs: Vec<u64>,
    /// Each line's value, indexed by [`LineId`]. Under the single-writer
    /// model (§3.1) no core writes a line while another holds a valid
    /// copy, so every valid copy holds this one value and a cache keeps
    /// only its state byte. Only the line's M owner writes it, or a fill
    /// from a message carrying the same value; only a core with a valid
    /// copy reads it. During the owner's transaction it holds the
    /// uncommitted datum.
    values: Vec<u64>,
    /// One-entry lookup memo. Workloads hammer a handful of lines (a
    /// shared counter, a queue's head/tail), so consecutive lookups
    /// usually repeat the previous address; the memo answers them with a
    /// compare instead of a hash probe. `u64::MAX` is never a line
    /// address (word-granular addresses come from `simalloc`), so it
    /// serves as the empty sentinel.
    last: (u64, LineId),
}

impl Default for LineArena {
    fn default() -> Self {
        LineArena {
            ids: FxHashMap::default(),
            addrs: Vec::new(),
            values: Vec::new(),
            last: (u64::MAX, 0),
        }
    }
}

impl LineArena {
    /// Id of `addr`, allocating one on first sight.
    #[inline]
    fn intern(&mut self, addr: u64) -> LineId {
        if self.last.0 == addr {
            return self.last.1;
        }
        let id = if let Some(&id) = self.ids.get(&addr) {
            id
        } else {
            let id = self.addrs.len() as LineId;
            self.addrs.push(addr);
            self.values.push(0);
            self.ids.insert(addr, id);
            id
        };
        self.last = (addr, id);
        id
    }

    /// Id of `addr` if it has ever been touched.
    #[inline]
    fn get(&mut self, addr: u64) -> Option<LineId> {
        if self.last.0 == addr {
            return Some(self.last.1);
        }
        let id = self.ids.get(&addr).copied();
        if let Some(id) = id {
            self.last = (addr, id);
        }
        id
    }

    /// Number of distinct lines ever touched.
    fn len(&self) -> usize {
        self.addrs.len()
    }
}

/// A memory operation as issued by a thread.
#[derive(Debug, Clone, Copy)]
pub enum OpKind {
    Read(u64),
    Write(u64, u64),
    Cas(u64, u64, u64),
    Faa(u64, u64),
    Swap(u64, u64),
    Delay(u64),
    TxBegin,
    TxEnd,
    TxAbort(u8),
    /// Block until a `TickGate` component releases this core (or consume
    /// a banked release immediately). Not permitted inside a transaction.
    WaitTick,
}

impl OpKind {
    /// Dense index into [`crate::stats::OP_KINDS`].
    fn name_id(&self) -> usize {
        match self {
            OpKind::Read(..) => 0,
            OpKind::Write(..) => 1,
            OpKind::Cas(..) => 2,
            OpKind::Faa(..) => 3,
            OpKind::Swap(..) => 4,
            OpKind::Delay(..) => 5,
            OpKind::TxBegin => 6,
            OpKind::TxEnd => 7,
            OpKind::TxAbort(..) => 8,
            OpKind::WaitTick => 9,
        }
    }
}

/// What the engine reports back to a blocked thread.
#[derive(Debug, Clone, Copy)]
pub enum OpOutcome {
    /// Operation completed with this value (CAS reports 1/0; commit 1).
    Val(u64),
    /// The enclosing transaction aborted with this status word.
    Aborted(u32),
}

/// A completed thread resumption: deliver `outcome` to `core`, whose local
/// clock becomes `time`.
#[derive(Debug)]
pub struct Resume {
    pub core: usize,
    pub time: u64,
    pub outcome: OpOutcome,
}

/// The protocol engine. Owned and driven by [`crate::machine`].
pub struct Sim {
    pub cfg: Arc<MachineConfig>,
    clock: u64,
    seq: u64,
    events: EventQ,
    lines: LineArena,
    dir: Directory,
    caches: Vec<Cache>,
    /// Operation each core's thread has issued and not yet begun.
    op_inbox: Vec<Option<OpKind>>,
    /// Thread resumptions produced by event processing; drained by the
    /// machine layer after each `step`.
    pub resumes: Vec<Resume>,
    pub stats: Stats,
    pub trace: Vec<TraceEvent>,
    rng: SimRng,
    check_countdown: u32,
    /// Earliest time each directory slice can accept its next request,
    /// indexed by home socket. Under `HomePolicy::Fixed` every line maps
    /// to the socket-0 slot, which is exactly the old single-slice
    /// occupancy; the distributed policies give each socket's slice its
    /// own pipeline, as on real parts.
    dir_free_at: Vec<u64>,
    /// Number of sockets the topology spans.
    nsockets: usize,
    /// First-touch home assignments (`HomePolicy::FirstTouch` only):
    /// line address → socket of the first core whose request for it hit
    /// the interconnect. A separate map rather than the line arena so
    /// the policy cannot perturb intern order.
    first_touch: FxHashMap<u64, usize>,
    /// Earliest time each cache can serve its next incoming request.
    cache_free_at: Vec<u64>,
    /// Number of `Deliver`-to-core events currently in the wheel, per
    /// core. A core with zero in-flight messages and an issue time `t <
    /// clock + hop_min` provably receives nothing before `t` — the
    /// fast-path non-interference gate.
    inflight_to: Vec<u32>,
    /// Minimum one-way hop latency, precomputed for the fast-path gate.
    hop_min: u64,
    /// Reusable buffer for released stalled messages.
    stall_scratch: Vec<Msg>,
    /// Reusable buffer for directory-queued request replay.
    wb_scratch: Vec<Msg>,
    /// The component spine's one piece of state: how often each
    /// `MachineConfig::components` entry has fired, at the same index.
    /// Ticks arrive as `Event::CompTick` in ordinary `(time, seq)` order.
    comp_fired: Vec<u64>,
}

impl Sim {
    pub fn new(cfg: Arc<MachineConfig>) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid MachineConfig: {e}"));
        // +1 for the bootstrap core used by the setup phase.
        let ncaches = cfg.cores + 1;
        let caches = (0..ncaches).map(|c| Cache::new(cfg.socket_of(c))).collect();
        let nsockets = cfg.sockets();
        let mut sim = Sim {
            rng: SimRng::seed_from_u64(cfg.seed),
            clock: 0,
            seq: 0,
            events: EventQ::new(),
            lines: LineArena::default(),
            dir: Directory::default(),
            caches,
            op_inbox: vec![None; ncaches],
            resumes: Vec::new(),
            stats: Stats::default(),
            trace: Vec::new(),
            check_countdown: 0,
            dir_free_at: vec![0; nsockets],
            nsockets,
            first_touch: FxHashMap::default(),
            cache_free_at: vec![0; ncaches],
            inflight_to: vec![0; ncaches],
            hop_min: cfg.hop_intra.min(cfg.hop_cross),
            stall_scratch: Vec::new(),
            wb_scratch: Vec::new(),
            comp_fired: vec![0; cfg.components.len()],
            cfg,
        };
        sim.schedule_components();
        sim
    }

    /// Current simulated time, cycles.
    pub fn now(&self) -> u64 {
        self.clock
    }

    fn push(&mut self, time: u64, ev: Event) {
        debug_assert!(time >= self.clock, "event scheduled in the past");
        if let Event::Deliver {
            to: Node::Core(c), ..
        } = ev
        {
            self.inflight_to[c] += 1;
        }
        self.seq += 1;
        self.events.push(self.clock, time, self.seq, ev);
    }

    /// Home socket of the directory slice serving `addr`. `toucher` is
    /// the core on the other end of the directory leg — the assignee
    /// under the first-touch policy (the first directory-bound message
    /// for any line is its requester's GetS/GetM, so the entry a later
    /// Dir→core reply looks up always exists by then).
    fn home_socket_of(&mut self, addr: u64, toucher: usize) -> usize {
        match self.cfg.home_policy {
            HomePolicy::Fixed => 0,
            HomePolicy::Interleave => {
                (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.nsockets
            }
            HomePolicy::FirstTouch => {
                let s = self.caches[toucher].socket;
                *self.first_touch.entry(addr).or_insert(s)
            }
        }
    }

    fn send(&mut self, src: Node, dst: Node, msg: Msg) {
        let sent = self.clock;
        // A directory leg is priced at the line's home socket; the
        // core↔core legs (Fwd data transfers) never consult the home.
        let core_of = |n: Node| match n {
            Node::Core(c) => Some(c),
            Node::Dir => None,
        };
        let toucher = core_of(src).or(core_of(dst)).unwrap_or(0);
        let socket_of = |sim: &mut Self, n: Node| match n {
            Node::Core(c) => sim.caches[c].socket,
            Node::Dir => sim.home_socket_of(msg.line(), toucher),
        };
        let s_src = socket_of(self, src);
        let s_dst = socket_of(self, dst);
        if s_src == s_dst {
            self.stats.hops_intra += 1;
        } else {
            self.stats.hops_cross += 1;
            if matches!(src, Node::Dir) || matches!(dst, Node::Dir) {
                self.stats.dir_hops_cross += 1;
            }
        }
        let recv = sent + self.cfg.hop(s_src, s_dst);
        if self.cfg.trace {
            self.trace.push(TraceEvent::Msg {
                sent,
                recv,
                src: src.to_string(),
                dst: dst.to_string(),
                kind: msg.kind(),
                line: msg.line(),
            });
        }
        self.stats.count_msg(msg.kind_id());
        self.push(recv, Event::Deliver { to: dst, msg });
    }

    fn trace_tx(&mut self, core: usize, what: &'static str, detail: u64) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::Tx {
                time: self.clock,
                core,
                what,
                detail,
            });
        }
    }

    fn resume_at(&mut self, core: usize, time: u64, outcome: OpOutcome) {
        debug_assert_ne!(self.caches[core].op_state, OpState::Idle);
        self.caches[core].op_state = OpState::Idle;
        self.resumes.push(Resume {
            core,
            time,
            outcome,
        });
    }

    /// Hands the engine a thread's next operation, issued at the thread's
    /// local time `at`. When the fast path admits the operation (see
    /// `Sim::try_fast_path`) its outcome is decided here, at
    /// submission, and a stand-in event delivers it at the issue time.
    pub fn submit_op(&mut self, core: usize, at: u64, op: OpKind) {
        assert!(
            self.op_inbox[core].is_none(),
            "core {core} already has an op"
        );
        assert_eq!(self.caches[core].op_state, OpState::Idle);
        let mut t = at.max(self.clock) + self.cfg.op_cycles;
        // A thread's local time may lag the event clock (the clock keeps
        // advancing while the thread runs user code), so `at < now()` is
        // legitimate — but the *issue* must never land in the simulator's
        // past. The clamp above guarantees it; assert the guarantee so a
        // future fast-path change cannot silently schedule backwards.
        debug_assert!(t >= self.clock, "operation issued into the past");
        // Scheduler-choice perturbation: stretch the issue latency so a
        // different ready core wins the next engine slot. Only IssueOp
        // times are perturbed — in-flight protocol messages keep their
        // modelled latencies, so the protocol stays well-formed and both
        // schedulers consume the RNG in the same (submit) order. Drawn
        // before the fast-path attempt so the RNG stream is one draw per
        // submission regardless of which path the op takes.
        if self.cfg.sched_perturb > 0 {
            t += self.rng.gen_range_inclusive(0, self.cfg.sched_perturb);
        }
        if self.cfg.fast_path {
            if self.try_fast_path(core, at, t, op) {
                return;
            }
            self.stats.fastpath_fallbacks += 1;
        }
        self.caches[core].op_state = OpState::Inbox;
        self.op_inbox[core] = Some(op);
        self.push(t, Event::IssueOp { core });
    }

    /// Diagnostic for the machine layer's deadlock assertion: names every
    /// core still owing a response when the event queue runs dry, with a
    /// hint for the common misconfiguration (a `wait_tick()` with no
    /// `TickGate` firings left to release it).
    pub fn stuck_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (c, cache) in self.caches.iter().enumerate() {
            if cache.op_state != OpState::Idle {
                let _ = write!(s, " core {c} is {:?};", cache.op_state);
            }
        }
        if s.contains("TickWait") {
            s.push_str(
                " a TickWait core blocks in wait_tick() until a TickGate component \
                 releases it — configure one with enough firings (period/count)",
            );
        }
        s
    }

    /// Processes the next event; returns false if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((time, ev)) = self.events.pop(self.clock) else {
            return false;
        };
        debug_assert!(time >= self.clock);
        self.clock = time;
        self.stats.events += 1;
        match ev {
            Event::Deliver { to, msg } => match to {
                Node::Dir => self.dir_handle(msg),
                Node::Core(c) => {
                    self.inflight_to[c] -= 1;
                    self.cache_handle(c, msg);
                }
            },
            Event::IssueOp { core } => {
                let op = self.op_inbox[core].take().expect("no op in inbox");
                debug_assert_eq!(self.caches[core].op_state, OpState::Inbox);
                self.caches[core].op_state = OpState::Current;
                self.begin_op(core, op);
            }
            Event::RmwDone { core, gen } => {
                if self.caches[core].gen == gen {
                    self.rmw_done(core);
                }
            }
            Event::DelayDone { core, gen } => {
                if self.caches[core].gen == gen {
                    debug_assert_eq!(self.caches[core].op_state, OpState::Delaying);
                    self.resume_at(core, self.clock, OpOutcome::Val(0));
                }
            }
            Event::FastHit { core, result } => {
                debug_assert_eq!(self.caches[core].op_state, OpState::Inbox);
                self.caches[core].op_state = OpState::Current;
                // A component interrupt can abort the enclosing
                // transaction while the stand-in event is pending:
                // deliver the abort, as `begin_op` does on the slow path.
                if let Some(status) = self.caches[core].pending_abort.take() {
                    self.resume_at(core, self.clock, OpOutcome::Aborted(status));
                } else {
                    let done = self.clock + self.cfg.hit_cycles;
                    self.resume_at(core, done, OpOutcome::Val(result));
                }
            }
            Event::FastRmw { core, line, waiter } => {
                debug_assert_eq!(self.caches[core].op_state, OpState::Inbox);
                // RMW shapes are only admitted outside transactions, and
                // a core blocked on its own op cannot enter one — so no
                // abort can be pending here.
                debug_assert!(
                    self.caches[core].pending_abort.is_none(),
                    "abort pended against a non-transactional fast-path RMW"
                );
                self.caches[core].op_state = OpState::Current;
                self.start_rmw(core, line, waiter);
            }
            Event::CompTick { comp } => self.comp_tick(comp as usize),
        }
        if self.cfg.check_invariants {
            if self.check_countdown == 0 {
                self.check_invariants();
                self.check_countdown = 63;
            } else {
                self.check_countdown -= 1;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Single-writer/multi-reader: at most one cache in M per line.
    fn check_invariants(&self) {
        let mut owners: Vec<Option<usize>> = vec![None; self.lines.len()];
        for (i, c) in self.caches.iter().enumerate() {
            for (line, &f) in c.flags.iter().enumerate() {
                if decode_state(f).writable() {
                    if let Some(prev) = owners[line].replace(i) {
                        let addr = self.lines.addrs[line];
                        panic!("line {addr:#x}: two M holders: C{prev} and C{i}");
                    }
                }
            }
        }
    }
}

/// The target line of a memory operation, if it has one.
fn op_line(op: &OpKind) -> Option<u64> {
    match *op {
        OpKind::Read(line)
        | OpKind::Write(line, _)
        | OpKind::Cas(line, _, _)
        | OpKind::Faa(line, _)
        | OpKind::Swap(line, _) => Some(line),
        OpKind::Delay(_)
        | OpKind::TxBegin
        | OpKind::TxEnd
        | OpKind::TxAbort(_)
        | OpKind::WaitTick => None,
    }
}
