//! The component spine: every time-evolving actor in the machine —
//! cores, the directory, and non-core devices — is a [`Component`]
//! scheduled on the simulator's slab-backed calendar wheel.
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
//! machine state — so attaching a component that takes no action (a
//! [`Heartbeat`]) leaves every thread-visible value, message, and resume
//! time of a run unchanged, and attaching none at all leaves the event
//! stream byte-identical to the pre-component simulator. The built-in
//! actors below are intentionally *fused*: the core pipeline and the
//! directory are message-driven (their "ticks" are the Deliver/IssueOp
//! events the protocol already schedules), so their `next_tick` is
//! `None` and they never occupy wheel slots of their own.

use crate::config::ComponentSpec;
use crate::sim::CompCtx;

/// One time-evolving actor on the machine's discrete-event spine.
pub trait Component {
    /// Short stable name, used for trace tracks and assertion messages.
    fn name(&self) -> &'static str;

    /// Absolute time of this component's next tick, or `None` if it has
    /// none (finished, or purely event-driven like the built-in cores).
    /// Called once at registration (with `now == 0`) and again after
    /// every `tick`; a returned time must be `> now` on reschedule.
    fn next_tick(&self, now: u64) -> Option<u64>;

    /// Runs the component at its scheduled time. `ctx` exposes the
    /// deterministic machine surface: clock, core states, interrupt
    /// injection, and tick-gate release.
    fn tick(&mut self, now: u64, ctx: &mut CompCtx<'_>);
}

/// Component 0: the core pipeline. Cores are event-driven — their
/// "ticks" are the IssueOp/Deliver/RmwDone/DelayDone events the
/// protocol schedules — so the component registration is fused: it
/// never requests a tick of its own, and the hot path stays exactly the
/// pre-component event dispatch.
pub struct CoreComplex;

impl Component for CoreComplex {
    fn name(&self) -> &'static str {
        "cores"
    }

    fn next_tick(&self, _now: u64) -> Option<u64> {
        None
    }

    fn tick(&mut self, _now: u64, _ctx: &mut CompCtx<'_>) {
        unreachable!("the core complex is message-driven and never ticks");
    }
}

/// Component 1: the directory/LLC slice. Like the cores, message-driven
/// and fused into the Deliver dispatch.
pub struct DirectoryUnit;

impl Component for DirectoryUnit {
    fn name(&self) -> &'static str {
        "dir"
    }

    fn next_tick(&self, _now: u64) -> Option<u64> {
        None
    }

    fn tick(&mut self, _now: u64, _ctx: &mut CompCtx<'_>) {
        unreachable!("the directory is message-driven and never ticks");
    }
}

/// Stand-in installed in a component's slot while its `tick` runs (the
/// component is temporarily moved out so it can borrow the simulator
/// mutably through [`CompCtx`]).
pub(crate) struct Tombstone;

impl Component for Tombstone {
    fn name(&self) -> &'static str {
        "tombstone"
    }

    fn next_tick(&self, _now: u64) -> Option<u64> {
        None
    }

    fn tick(&mut self, _now: u64, _ctx: &mut CompCtx<'_>) {
        unreachable!("a component ticked re-entrantly while its own tick was running");
    }
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

/// Benign no-op actor (`ComponentSpec::Heartbeat`): occupies wheel slots
/// and dispatch cycles but takes no machine-visible action. Exists so
/// the differential suite can prove the spine itself is inert.
pub struct Heartbeat {
    period: u64,
    /// Ticks left; `None` = unlimited.
    remaining: Option<u64>,
    next: u64,
}

impl Component for Heartbeat {
    fn name(&self) -> &'static str {
        "heartbeat"
    }

    fn next_tick(&self, _now: u64) -> Option<u64> {
        match self.remaining {
            Some(0) => None,
            _ => Some(self.next),
        }
    }

    fn tick(&mut self, now: u64, _ctx: &mut CompCtx<'_>) {
        self.next = now + self.period;
        if let Some(r) = &mut self.remaining {
            *r -= 1;
        }
    }
}

fn bound(count: u64) -> Option<u64> {
    if count == 0 {
        None
    } else {
        Some(count)
    }
}

/// Builds a live component from its declarative spec. `ncores` is the
/// application core count, used to validate pinned victims/paced cores.
pub(crate) fn build(spec: &ComponentSpec, ncores: usize) -> Box<dyn Component> {
    match *spec {
        ComponentSpec::Interrupt {
            period,
            start,
            cost,
            victim,
        } => {
            assert!(period > 0, "InterruptSource: period must be nonzero");
            if let Some(v) = victim {
                assert!(
                    v < ncores,
                    "InterruptSource: victim core {v} out of range (machine has {ncores} cores)"
                );
            }
            Box::new(InterruptSource {
                period,
                cost,
                victim,
                next: start,
                rr: 0,
            })
        }
        ComponentSpec::TickGate {
            core,
            period,
            start,
            count,
        } => {
            assert!(period > 0, "TickGate: period must be nonzero");
            assert!(
                core < ncores,
                "TickGate: paced core {core} out of range (machine has {ncores} cores)"
            );
            Box::new(TickGate {
                core,
                period,
                remaining: bound(count),
                next: start,
            })
        }
        ComponentSpec::Heartbeat { period, count } => {
            assert!(period > 0, "Heartbeat: period must be nonzero");
            Box::new(Heartbeat {
                period,
                remaining: bound(count),
                next: period,
            })
        }
    }
}
