//! The component spine: the two non-core actors a
//! `MachineConfig::components` entry places on the machine — an
//! interrupt source and a tick gate — ticking on the event queue.
//!
//! Each entry's tick is an ordinary `Event::CompTick`, pushed with the
//! machine's sequence number and popped in `(time, seq)` order, so
//! component activity interleaves with coherence messages under the same
//! total order that makes runs deterministic. Same-cycle ticks fire in
//! the order they were scheduled: declaration order on the first round,
//! reschedule order after. A tick has exactly two effects — interrupt a
//! core, release (or bank) a core's tick — and draws nothing from the
//! seeded RNG, so a tick that changes nothing a thread can see (a tick
//! gate on a core that never waits) leaves every thread-visible value,
//! message and resume time unchanged, and a machine with no components
//! pushes no tick at all.

use super::cache::OpState;
use super::event::Event;
use super::{OpOutcome, Sim};
use crate::config::ComponentSpec;
use crate::stats::TraceEvent;
use absmem::txn;

impl Sim {
    /// Schedules every component's first tick at its `start`, in
    /// declaration order, which (with the shared seq counter) fixes the
    /// firing order of same-cycle ticks.
    pub(super) fn schedule_components(&mut self) {
        for i in 0..self.cfg.components.len() {
            let (ComponentSpec::Interrupt { start, .. } | ComponentSpec::TickGate { start, .. }) =
                self.cfg.components[i];
            self.push(start, Event::CompTick { comp: i as u32 });
        }
    }

    /// Runs component `i`'s tick at the current clock and schedules its
    /// next one, `period` cycles later. An interrupt source fires forever,
    /// at its pinned victim or round-robin over the application cores; a
    /// tick gate stops after `count` firings (0 = never).
    pub(super) fn comp_tick(&mut self, i: usize) {
        self.stats.comp_ticks += 1;
        let fired = self.comp_fired[i];
        self.comp_fired[i] += 1;
        let (period, again) = match self.cfg.components[i] {
            ComponentSpec::Interrupt {
                period,
                cost,
                victim,
                ..
            } => {
                let core = victim.unwrap_or(fired as usize % self.cfg.cores);
                self.interrupt(i, core, cost);
                (period, true)
            }
            ComponentSpec::TickGate {
                core,
                period,
                count,
                ..
            } => {
                self.release_tick(i, core);
                (period, count == 0 || fired + 1 < count)
            }
        };
        if again {
            self.push(self.clock + period, Event::CompTick { comp: i as u32 });
        }
    }

    /// Interrupt source `comp` fires at `core`. A victim inside a
    /// transaction takes a `txn::INTERRUPT` abort and resumes `cost`
    /// cycles later (the handler runs before the abort is delivered); a
    /// victim outside one absorbs the handler with no engine-visible
    /// effect (its timing is dominated by whatever protocol event it is
    /// blocked on).
    fn interrupt(&mut self, comp: usize, core: usize, cost: u64) {
        self.stats.interrupts_fired += 1;
        self.trace_comp(comp, "interrupt", "interrupt", core);
        if self.caches[core].in_txn() {
            self.stats.tx_aborts_interrupt += 1;
            self.abort_txn_at(core, txn::INTERRUPT, cost.max(1));
        }
    }

    /// Tick gate `comp` releases `core`'s `wait_tick()`: resumes the
    /// thread if it is blocked in one, otherwise banks the tick for the
    /// next call.
    fn release_tick(&mut self, comp: usize, core: usize) {
        if self.caches[core].op_state == OpState::TickWait {
            self.trace_comp(comp, "tick-gate", "release", core);
            self.resume_at(core, self.clock, OpOutcome::Val(0));
        } else {
            self.trace_comp(comp, "tick-gate", "bank", core);
            self.caches[core].ticks_banked += 1;
        }
    }

    fn trace_comp(&mut self, comp: usize, name: &'static str, what: &'static str, core: usize) {
        if self.cfg.trace {
            self.trace.push(TraceEvent::Comp {
                time: self.clock,
                comp,
                name,
                what,
                core,
            });
        }
    }
}
