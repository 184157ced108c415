//! The component spine's glue: the context a component ticks against and
//! the tick dispatch.

use super::cache::OpState;
use super::event::Event;
use super::{OpOutcome, Sim};
use crate::stats::TraceEvent;
use absmem::txn;

/// The deterministic machine surface a [`crate::component::Component`]
/// sees during its tick. Deliberately narrow: no RNG, no direct cache or
/// directory mutation — everything a component can do is expressible as
/// the existing abort/resume machinery, so attaching components never
/// perturbs state they did not explicitly act on.
pub struct CompCtx<'a> {
    sim: &'a mut Sim,
    /// The ticking component's index in `MachineConfig::components`
    /// (for trace attribution).
    comp: usize,
    /// The ticking component's stable name.
    name: &'static str,
}

impl CompCtx<'_> {
    /// Current simulated time, cycles.
    pub fn now(&self) -> u64 {
        self.sim.clock
    }

    /// Number of application cores (excluding the bootstrap core).
    pub fn cores(&self) -> usize {
        self.sim.cfg.cores
    }

    /// True if `core`'s thread is inside a hardware transaction.
    pub fn in_txn(&self, core: usize) -> bool {
        self.sim.caches[core].in_txn()
    }

    /// Fires an interrupt at `core`. A victim inside a transaction takes
    /// a `txn::INTERRUPT` abort and resumes `cost` cycles later (the
    /// handler runs before the abort is delivered); a victim outside one
    /// absorbs the handler with no engine-visible effect (its timing is
    /// dominated by whatever protocol event it is blocked on). Returns
    /// whether a transaction was actually aborted.
    pub fn interrupt(&mut self, core: usize, cost: u64) -> bool {
        assert!(
            core < self.sim.cfg.cores,
            "component {:?} interrupted core {core}, but the machine has {} cores",
            self.name,
            self.sim.cfg.cores
        );
        self.sim.stats.interrupts_fired += 1;
        self.sim.trace_comp(self.comp, self.name, "interrupt", core);
        if !self.sim.caches[core].in_txn() {
            return false;
        }
        self.sim.stats.tx_aborts_interrupt += 1;
        let cost = cost.max(1);
        self.sim.abort_txn_at(core, txn::INTERRUPT, cost);
        true
    }

    /// Releases `core`'s `wait_tick()`: resumes the thread if it is
    /// blocked in one, otherwise banks the tick for the next call.
    /// Returns whether a thread was released (vs. banked).
    pub fn release_tick(&mut self, core: usize) -> bool {
        assert!(
            core < self.sim.cfg.cores,
            "component {:?} released core {core}, but the machine has {} cores",
            self.name,
            self.sim.cfg.cores
        );
        if self.sim.caches[core].op_state == OpState::TickWait {
            self.sim.trace_comp(self.comp, self.name, "release", core);
            let now = self.sim.clock;
            self.sim.resume_at(core, now, OpOutcome::Val(0));
            true
        } else {
            self.sim.trace_comp(self.comp, self.name, "bank", core);
            self.sim.caches[core].ticks_banked += 1;
            false
        }
    }
}

impl Sim {
    /// Dispatches one component tick: runs `tick` at the current clock
    /// and reschedules from `next_tick`. The component is taken out of
    /// its slot for the duration of the call so it can mutate the
    /// simulator through [`CompCtx`].
    pub(super) fn comp_tick(&mut self, i: usize) {
        self.stats.comp_ticks += 1;
        let mut c = self.comps[i]
            .take()
            .expect("a component ticked re-entrantly while its own tick was running");
        let now = self.clock;
        c.tick(
            now,
            &mut CompCtx {
                sim: self,
                comp: i,
                name: c.name(),
            },
        );
        if let Some(t) = c.next_tick(now) {
            debug_assert!(
                t > now,
                "component {:?} rescheduled its tick into the past or present \
                 (next {t} <= now {now}); ticks must strictly advance",
                c.name()
            );
            self.push(t, Event::CompTick { comp: i as u32 });
        }
        self.comps[i] = Some(c);
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
