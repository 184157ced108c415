//! The component spine: every time-evolving actor outside the coherence
//! protocol — an interrupt source, a timer, a DMA engine — is a
//! [`Component`] scheduled on the simulator's slab-backed calendar wheel.
//! Cores and the directory are not components: their work is the
//! message and issue events the protocol already schedules.
//!
//! The shape follows the classic embedded-emulator architecture: a
//! component exposes `next_tick` (the absolute time it next wants to
//! run) and `tick` (what it does when that time arrives). The simulator
//! turns each wanted tick into an ordinary `Event::CompTick` on the
//! shared event queue, so component activity interleaves with coherence
//! messages under the same `(time, seq)` total order that makes runs
//! deterministic.
//!
//! ## Tick ordering and determinism
//!
//! Component ticks are events like any other: pushed with the machine's
//! monotonically increasing sequence number and popped in `(time, seq)`
//! order. Two components due at the same cycle therefore fire in the
//! order their ticks were *scheduled* (registration order on the first
//! round, reschedule order after), never in a data-structure-dependent
//! or platform-dependent order. A component may not touch the seeded
//! RNG — its context ([`crate::CompCtx`]) exposes only deterministic
//! machine state — so a component whose ticks change nothing a thread
//! can see (a [`TickGate`] on a core that never waits) leaves every
//! thread-visible value, message, and resume time of a run unchanged,
//! and attaching none at all leaves the event stream byte-identical to
//! the pre-component simulator.

use crate::config::ComponentSpec;
use crate::sim::CompCtx;

/// One time-evolving actor on the machine's discrete-event spine.
pub trait Component {
    /// Short stable name, used for trace tracks and assertion messages.
    fn name(&self) -> &'static str;

    /// Absolute time of this component's next tick, or `None` once it
    /// has finished. Called once at registration (with `now == 0`) and
    /// again after every `tick`; a returned time must be `> now` on
    /// reschedule.
    fn next_tick(&self, now: u64) -> Option<u64>;

    /// Runs the component at its scheduled time. `ctx` exposes the
    /// deterministic machine surface: clock, core states, interrupt
    /// injection, and tick-gate release.
    fn tick(&mut self, now: u64, ctx: &mut CompCtx<'_>);
}

/// Periodic preemption/interrupt source (`ComponentSpec::Interrupt`): the
/// machine-level cause of `txn::INTERRUPT` aborts. Victim selection is
/// either a pinned core or a deterministic round-robin over the
/// application cores.
pub struct InterruptSource {
    period: u64,
    cost: u64,
    victim: Option<usize>,
    next: u64,
    rr: usize,
}

impl Component for InterruptSource {
    fn name(&self) -> &'static str {
        "interrupt"
    }

    fn next_tick(&self, _now: u64) -> Option<u64> {
        Some(self.next)
    }

    fn tick(&mut self, now: u64, ctx: &mut CompCtx<'_>) {
        self.next = now + self.period;
        let victim = match self.victim {
            Some(core) => core,
            None => {
                let v = self.rr % ctx.cores();
                self.rr += 1;
                v
            }
        };
        ctx.interrupt(victim, self.cost);
    }
}

/// Periodic tick gate (`ComponentSpec::TickGate`): releases one core's
/// `wait_tick()` on a fixed schedule, banking ticks the core has not
/// asked for yet. The pacing primitive behind timer-driven consumers
/// and DMA-style bulk producers (which are ordinary programs built from
/// `wait_tick()` + queue ops — see `harness::scenario`).
pub struct TickGate {
    core: usize,
    period: u64,
    /// Firings left; `None` = unlimited.
    remaining: Option<u64>,
    next: u64,
}

impl Component for TickGate {
    fn name(&self) -> &'static str {
        "tick-gate"
    }

    fn next_tick(&self, _now: u64) -> Option<u64> {
        match self.remaining {
            Some(0) => None,
            _ => Some(self.next),
        }
    }

    fn tick(&mut self, now: u64, ctx: &mut CompCtx<'_>) {
        self.next = now + self.period;
        if let Some(r) = &mut self.remaining {
            *r -= 1;
        }
        ctx.release_tick(self.core);
    }
}

/// Builds a live component from its declarative spec, which
/// `MachineConfig::validate` has already checked.
pub(crate) fn build(spec: &ComponentSpec) -> Box<dyn Component> {
    match *spec {
        ComponentSpec::Interrupt {
            period,
            start,
            cost,
            victim,
        } => Box::new(InterruptSource {
            period,
            cost,
            victim,
            next: start,
            rr: 0,
        }),
        ComponentSpec::TickGate {
            core,
            period,
            start,
            count,
        } => Box::new(TickGate {
            core,
            period,
            remaining: (count > 0).then_some(count),
            next: start,
        }),
    }
}
