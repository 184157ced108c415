//! Machine configuration: topology and timing parameters.
//!
//! Defaults are calibrated so that the simulated curves land in the same
//! regime as the paper's Broadwell measurements (§6.1): a coherence message
//! delay of "about 15–30 cycles", a 2.2 GHz clock, and a dual-socket
//! interconnect several times slower than the on-chip one.
//!
//! One field table gives [`MachineConfig`] its exact `key=value` text
//! form, which `simctl`'s machine keys and the fuzz reproducer share.

/// Nominal clock, GHz, used to convert simulated cycles to nanoseconds:
/// the one the native backend's `delay` also assumes.
pub use absmem::native::GHZ;

/// Converts simulated cycles to nanoseconds at the nominal clock.
pub fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 / GHZ
}

/// Converts nanoseconds to simulated cycles at the nominal clock.
pub fn ns_to_cycles(ns: f64) -> u64 {
    (ns * GHZ).round() as u64
}

/// Declarative description of one non-core actor on the machine's
/// discrete-event component spine, which the engine ticks as ordinary
/// events. All fields are plain integers, so a spec round-trips exactly
/// through the machine's text form (`interrupt:PERIOD:START:COST:VICTIM`
/// with `rr` for a round-robin victim, or
/// `tick-gate:CORE:PERIOD:START:COUNT`); an empty spec list leaves the
/// simulator byte-identical to the pre-component machine.
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Enable the paper's §3.4.1 microarchitectural fix: a Fwd-GetS that
    /// reaches a core blocked in `_xend` with a single pending GetM is
    /// stalled until the transaction commits instead of aborting it.
    pub microarch_fix: bool,
    /// Parts per million of transactions that suffer a spurious
    /// (non-conflict) abort at `_xend`, modelling interrupts and other
    /// implementation-specific aborts. 0 disables.
    pub spurious_abort_ppm: u64,
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
    /// Record a full message/transaction trace (costly; for the Figure 2/3
    /// reproductions and debugging).
    pub trace: bool,
    /// Check the single-writer/multi-reader invariant (at most one M
    /// holder per line) by scanning every cache's lines once every 64
    /// events. On by default in debug builds.
    pub check_invariants: bool,
    /// Non-core actors to place on the component spine (interrupt
    /// sources and tick gates — see [`ComponentSpec`]). Empty by
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
            microarch_fix: false,
            spurious_abort_ppm: 0,
            tx_capacity_lines: 0,
            sched_perturb: 0,
            seed: 0x5b90,
            fast_path: true,
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

    /// The text form's keys, in [`MachineConfig::to_text`] order: each
    /// field's name in kebab case.
    pub fn keys() -> impl Iterator<Item = String> {
        FIELDS.iter().map(Field::key)
    }

    /// The exact text form: one `key=value` line per field, in declaration
    /// order, each value an integer, a 0/1 flag, a home policy name or a
    /// comma-separated component list.
    pub fn to_text(&self) -> String {
        FIELDS
            .iter()
            .map(|f| format!("{}={}\n", f.key(), (f.get)(self)))
            .collect()
    }

    /// Parses [`MachineConfig::to_text`] output strictly: an unknown,
    /// repeated or missing key, a malformed line or value, or a config
    /// that fails [`MachineConfig::validate`] is an error.
    pub fn from_text(text: &str) -> Result<MachineConfig, String> {
        let mut cfg = MachineConfig::default();
        let mut seen = [false; FIELDS.len()];
        for line in text.lines() {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{line}`"))?;
            let i = field_index(key)?;
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("duplicate machine key `{key}`"));
            }
            cfg.set(key, value)?;
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(format!("missing machine key `{}`", FIELDS[i].key()));
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Sets the field named `key` (a [`MachineConfig::keys`] entry) from
    /// its text form.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        (FIELDS[field_index(key)?].set)(self, value)
            .ok_or_else(|| format!("bad value `{value}` for machine key `{key}`"))
    }

    /// Checks what the simulator needs to run: nonzero `cores` and
    /// `cores_per_socket`, on more than one socket a `hop_intra` of at
    /// most twice `hop_cross`, and components with nonzero periods whose
    /// cores exist. `Sim::new` panics on an error; tools report it.
    ///
    /// The hop bound keeps a reader's DataOwner ahead of any Inv for the
    /// same line. The directory sends that Inv only once the owner's
    /// writeback has reached it, so the Inv arrives at least two hops
    /// after the owner sent the DataOwner; a one-hop DataOwner slower
    /// than those two hops would be overtaken, the IS^D→I race the
    /// engine does not model. At equality the DataOwner, pushed first,
    /// wins the tie.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.cores_per_socket == 0 {
            return Err(format!(
                "cores ({}) and cores-per-socket ({}) must be positive",
                self.cores, self.cores_per_socket
            ));
        }
        if self.sockets() > 1 && self.hop_intra > self.hop_cross.saturating_mul(2) {
            return Err(format!(
                "hop-intra ({}) must be at most 2 × hop-cross ({}) on a multi-socket \
                 machine: a slower intra-socket hop lets an Inv overtake a reader's \
                 data, which the engine does not model",
                self.hop_intra, self.hop_cross
            ));
        }
        for c in &self.components {
            let (period, core) = match *c {
                ComponentSpec::Interrupt { period, victim, .. } => (period, victim),
                ComponentSpec::TickGate { core, period, .. } => (period, Some(core)),
            };
            let problem = if period == 0 {
                "its period must be nonzero".to_string()
            } else if let Some(core) = core.filter(|&core| core >= self.cores) {
                format!("core {core} is out of range ({} cores)", self.cores)
            } else {
                continue;
            };
            return Err(format!("component `{}`: {problem}", c.render()));
        }
        Ok(())
    }
}

/// One field of the text form: its name, and how to render and parse
/// its value.
struct Field {
    name: &'static str,
    get: fn(&MachineConfig) -> String,
    set: fn(&mut MachineConfig, &str) -> Option<()>,
}

impl Field {
    /// The field's key: its name in kebab case.
    fn key(&self) -> String {
        self.name.replace('_', "-")
    }
}

fn field_index(key: &str) -> Result<usize, String> {
    FIELDS
        .iter()
        .position(|f| f.key() == key)
        .ok_or_else(|| format!("unknown machine key `{key}`"))
}

macro_rules! fields {
    ($($field:ident),* $(,)?) => {
        /// The text form's one field table, in declaration order.
        const FIELDS: &[Field] = &[$(Field {
            name: stringify!($field),
            get: |c| c.$field.render(),
            set: |c, v| {
                c.$field = Value::parse(v)?;
                Some(())
            },
        }),*];
    };
}

fields! {
    cores, cores_per_socket, hop_intra, hop_cross, home_policy, dir_occupancy, cache_occupancy,
    delay_jitter_pct, hit_cycles, rmw_cycles, op_cycles, alloc_cycles, xbegin_cycles,
    xend_cycles, microarch_fix, spurious_abort_ppm, tx_capacity_lines, sched_perturb, seed,
    fast_path, trace, check_invariants, components,
}

/// A field value's text form; `parse(&v.render()) == Some(v)`.
trait Value: Sized {
    fn render(&self) -> String;
    fn parse(s: &str) -> Option<Self>;
}

macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn render(&self) -> String {
                self.to_string()
            }
            fn parse(s: &str) -> Option<Self> {
                s.parse().ok()
            }
        }
    )*};
}

int_value!(u64, usize);

impl Value for bool {
    fn render(&self) -> String {
        u8::from(*self).to_string()
    }
    fn parse(s: &str) -> Option<Self> {
        match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
}

const POLICIES: [HomePolicy; 3] = [
    HomePolicy::Fixed,
    HomePolicy::Interleave,
    HomePolicy::FirstTouch,
];

impl Value for HomePolicy {
    fn render(&self) -> String {
        let name = match self {
            HomePolicy::Fixed => "fixed",
            HomePolicy::Interleave => "interleave",
            HomePolicy::FirstTouch => "first-touch",
        };
        name.to_string()
    }
    fn parse(s: &str) -> Option<Self> {
        POLICIES.into_iter().find(|p| p.render() == s)
    }
}

impl Value for ComponentSpec {
    fn render(&self) -> String {
        match *self {
            ComponentSpec::Interrupt {
                period,
                start,
                cost,
                victim,
            } => format!(
                "interrupt:{period}:{start}:{cost}:{}",
                victim.map_or("rr".to_string(), |v| v.to_string())
            ),
            ComponentSpec::TickGate {
                core,
                period,
                start,
                count,
            } => format!("tick-gate:{core}:{period}:{start}:{count}"),
        }
    }
    fn parse(s: &str) -> Option<Self> {
        let f: Vec<&str> = s.split(':').collect();
        let n = |i: usize| f[i].parse::<u64>().ok();
        match (f[0], f.len()) {
            ("interrupt", 5) => Some(ComponentSpec::Interrupt {
                period: n(1)?,
                start: n(2)?,
                cost: n(3)?,
                victim: match f[4] {
                    "rr" => None,
                    v => Some(v.parse().ok()?),
                },
            }),
            ("tick-gate", 5) => Some(ComponentSpec::TickGate {
                core: f[1].parse().ok()?,
                period: n(2)?,
                start: n(3)?,
                count: n(4)?,
            }),
            _ => None,
        }
    }
}

impl Value for Vec<ComponentSpec> {
    fn render(&self) -> String {
        self.iter().map(Value::render).collect::<Vec<_>>().join(",")
    }
    fn parse(s: &str) -> Option<Self> {
        if s.is_empty() {
            return Some(Vec::new());
        }
        s.split(',').map(<ComponentSpec as Value>::parse).collect()
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

    /// A valid config that draws every field from `rng`: any home
    /// policy and 0–3 components of both kinds.
    fn random_config(rng: &mut simrng::SimRng) -> MachineConfig {
        let cores = rng.gen_range_inclusive(1, 200) as usize;
        let mut r = |lo: u64, hi: u64| rng.gen_range_inclusive(lo, hi);
        let components = (0..r(0, 3))
            .map(|_| match r(0, 1) {
                0 => ComponentSpec::Interrupt {
                    period: r(1, u64::MAX),
                    start: r(0, u64::MAX),
                    cost: r(0, 500),
                    victim: (r(0, 1) == 1).then(|| r(0, cores as u64 - 1) as usize),
                },
                _ => ComponentSpec::TickGate {
                    core: r(0, cores as u64 - 1) as usize,
                    period: r(1, 50_000),
                    start: r(0, 50_000),
                    count: r(0, 100),
                },
            })
            .collect();
        let hop_intra = r(0, 200);
        MachineConfig {
            cores,
            cores_per_socket: r(1, cores as u64) as usize,
            hop_intra,
            // Inside the hop bound `validate` enforces.
            hop_cross: r(hop_intra.div_ceil(2), u64::MAX),
            home_policy: POLICIES[r(0, 2) as usize],
            dir_occupancy: r(0, 16),
            cache_occupancy: r(0, 16),
            delay_jitter_pct: r(0, 100),
            hit_cycles: r(0, 10),
            rmw_cycles: r(0, 40),
            op_cycles: r(0, 10),
            alloc_cycles: r(0, 100),
            xbegin_cycles: r(0, 40),
            xend_cycles: r(0, 40),
            microarch_fix: r(0, 1) == 1,
            spurious_abort_ppm: r(0, 1_000_000),
            tx_capacity_lines: r(0, 64) as usize,
            sched_perturb: r(0, 1_000),
            seed: r(0, u64::MAX),
            fast_path: r(0, 1) == 1,
            trace: r(0, 1) == 1,
            check_invariants: r(0, 1) == 1,
            components,
        }
    }

    #[test]
    fn text_form_roundtrips_exactly() {
        let mut rng = simrng::SimRng::seed_from_u64(0xc0f1);
        let mut policies = [false; 3];
        let mut kinds = [false; 2];
        for _ in 0..512 {
            let cfg = random_config(&mut rng);
            policies[cfg.home_policy as usize] = true;
            for c in &cfg.components {
                kinds[matches!(c, ComponentSpec::TickGate { .. }) as usize] = true;
            }
            let text = cfg.to_text();
            assert_eq!(MachineConfig::from_text(&text), Ok(cfg), "{text}");
        }
        assert_eq!((policies, kinds), ([true; 3], [true; 2]));
        let d = MachineConfig::default();
        assert_eq!(MachineConfig::from_text(&d.to_text()), Ok(d));
    }

    #[test]
    fn text_form_rejects_bad_input() {
        let good = MachineConfig::single_socket(4).to_text();
        let err = |text: &str| MachineConfig::from_text(text).unwrap_err();
        assert!(err(&format!("{good}nope=1\n")).contains("unknown machine key `nope`"));
        assert!(err(&good.replace("hop-intra=", "hop=")).contains("unknown machine key `hop`"));
        assert!(err(&format!("{good}hop-intra=3\n")).contains("duplicate machine key `hop-intra`"));
        let seed = format!("seed={}\n", MachineConfig::default().seed);
        assert!(err(&good.replace(&seed, "")).contains("missing machine key `seed`"));
        assert!(err(&good.replace("cores=4\n", "cores=0\n")).contains("must be positive"));
        let dual = MachineConfig {
            hop_intra: 21,
            hop_cross: 10,
            ..MachineConfig::dual_socket(2)
        };
        let bound = "hop-intra (21) must be at most 2 × hop-cross (10)";
        assert!(err(&dual.to_text()).contains(bound));
        let tie = MachineConfig {
            hop_intra: 20,
            ..dual.clone()
        };
        assert_eq!(
            MachineConfig::from_text(&tie.to_text()),
            Ok(tie),
            "equality is legal"
        );
        let one_socket = MachineConfig {
            cores_per_socket: 4,
            ..dual
        };
        assert!(one_socket.validate().is_ok(), "one socket has no cross hop");
        let with = |c: &str| good.replace("components=", &format!("components={c}"));
        assert!(err(&with("interrupt:0:5:5:rr")).contains("period must be nonzero"));
        assert!(err(&with("tick-gate:4:100:0:0")).contains("core 4 is out of range"));
        assert!(err(&with("tick-gate:1:100")).contains("bad value"));
        assert!(err(&good.replace("fast-path=1", "fast-path=2")).contains("bad value"));
        assert!(err(&good.replace("home-policy=fixed", "home-policy=near")).contains("bad value"));
        assert!(err("cores 4").contains("expected key=value"));
    }
}
