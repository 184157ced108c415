//! Fuzz plans: everything that determines one randomized run, derived
//! deterministically from a single seed.
//!
//! A plan is the unit of shrinking: its fields are the knobs the
//! shrinker turns. [`FuzzPlan::run`] resolves it into the exact
//! [`FuzzRun`] the runner consumes (never ambient randomness), which is
//! also what a `fuzz-artifacts/` reproducer stores — so a replay runs
//! the same machine even if [`FuzzPlan::machine`]'s defaults change.
//! All fields are integers or flags; probabilities are stored in
//! parts-per-million.

use coherence::{ComponentSpec, MachineConfig};
use harness::QueueKind;
use simrng::SimRng;

/// Queue kinds the fuzzer sweeps: the paper set plus the MS-queue base
/// case and the experimental striped basket — every implementation in
/// the tree, in [`QueueKind::ALL`]'s rotation order.
pub const FUZZ_QUEUES: [QueueKind; 7] = QueueKind::ALL;

/// One fully determined fuzz run, as the knobs the shrinker turns;
/// [`FuzzPlan::run`] resolves it into the exact [`FuzzRun`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzPlan {
    /// Master seed: identifies the plan and seeds the per-thread op
    /// streams (`thread_ops`).
    pub seed: u64,
    /// Queue implementation under test.
    pub queue: QueueKind,
    /// Worker threads (simulated cores).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Enqueue probability of each op, in permille (the rest dequeue).
    pub enq_permille: u64,
    /// Spurious-abort probability at `_xend`, parts-per-million.
    pub spurious_ppm: u64,
    /// `MachineConfig::delay_jitter_pct`.
    pub jitter_pct: u64,
    /// `MachineConfig::sched_perturb` (max extra issue cycles).
    pub sched_perturb: u64,
    /// `MachineConfig::tx_capacity_lines` (0 = unbounded).
    pub capacity_lines: u64,
    /// Dual-socket topology instead of single-socket.
    pub dual_socket: bool,
    /// The paper's §3.4.1 microarchitectural fix.
    pub microarch_fix: bool,
    /// Seed handed to the machine (spurious aborts, jitter, perturbation);
    /// distinct from `seed` so schedule noise and op mix vary
    /// independently.
    pub machine_seed: u64,
    /// Preemption-source period in cycles; 0 disables the component.
    /// When set, a [`ComponentSpec::Interrupt`] actor fires
    /// round-robin across cores, aborting in-flight transactions with
    /// `txn::INTERRUPT` — the fuzzer's oracle must hold through
    /// interrupt-aborted-and-retried operations.
    pub preempt_period: u64,
    /// Simulated interrupt-handler cost in cycles (used only when
    /// `preempt_period > 0`, but always drawn so plans stay comparable).
    pub preempt_cost: u64,
    /// Timer-consumer period in cycles; 0 disables. When set, thread 0
    /// is paced: a `TickGate` releases one of its ops per period.
    pub timer_period: u64,
}

impl FuzzPlan {
    /// Derives the plan for `seed`. The queue rotates through
    /// [`FUZZ_QUEUES`] unless pinned, so a contiguous seed range covers
    /// every implementation; every other dimension is drawn from the
    /// seed's own RNG stream.
    pub fn derive(seed: u64, queue: Option<QueueKind>) -> FuzzPlan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x51f7_755a_9e3c_0b1d);
        let queue = queue.unwrap_or(FUZZ_QUEUES[(seed % FUZZ_QUEUES.len() as u64) as usize]);
        // Fault-injection extremes are drawn independently so some seeds
        // combine all of them and some run clean.
        let spurious_ppm = if rng.gen_bool(0.5) {
            rng.gen_range_inclusive(1_000, 200_000) // up to a 20% abort rate
        } else {
            0
        };
        let capacity_lines = if rng.gen_bool(0.3) {
            // Small but survivable: TxCAS's wait-free fallback bounds the
            // retries a permanently-aborting transaction can burn.
            rng.gen_range_inclusive(6, 24)
        } else {
            0
        };
        FuzzPlan {
            seed,
            queue,
            threads: rng.gen_range_inclusive(2, 6) as usize,
            ops_per_thread: rng.gen_range_inclusive(4, 24),
            enq_permille: rng.gen_range_inclusive(300, 700),
            spurious_ppm,
            jitter_pct: rng.gen_range_inclusive(0, 80),
            sched_perturb: rng.gen_range_inclusive(0, 600),
            capacity_lines,
            dual_socket: rng.gen_bool(0.4),
            microarch_fix: rng.gen_bool(0.5),
            machine_seed: rng.next_u64(),
            // Component knobs draw *after* machine_seed so every pre-spine
            // plan field keeps its historical derivation (struct literal
            // fields evaluate in written order).
            preempt_period: if rng.gen_bool(0.35) {
                rng.gen_range_inclusive(1_500, 30_000)
            } else {
                0
            },
            preempt_cost: rng.gen_range_inclusive(50, 400),
            timer_period: if rng.gen_bool(0.25) {
                rng.gen_range_inclusive(2_000, 20_000)
            } else {
                0
            },
        }
    }

    /// The exact run this plan describes.
    pub fn run(&self) -> FuzzRun {
        FuzzRun {
            queue: self.queue,
            seed: self.seed,
            threads: self.threads,
            ops_per_thread: self.ops_per_thread,
            enq_permille: self.enq_permille,
            machine: self.machine(),
        }
    }

    /// Builds the machine configuration this plan runs on.
    pub fn machine(&self) -> MachineConfig {
        let mut m = if self.dual_socket {
            MachineConfig::dual_socket(self.threads.div_ceil(2))
        } else {
            MachineConfig::single_socket(self.threads)
        };
        m.delay_jitter_pct = self.jitter_pct;
        m.spurious_abort_ppm = self.spurious_ppm;
        m.tx_capacity_lines = self.capacity_lines as usize;
        m.sched_perturb = self.sched_perturb;
        m.microarch_fix = self.microarch_fix;
        m.seed = self.machine_seed;
        // Protocol invariants are the simulator's own regression net, not
        // the fuzzer's oracle; skip them for campaign throughput.
        m.check_invariants = false;
        if self.preempt_period > 0 {
            m.components.push(ComponentSpec::Interrupt {
                period: self.preempt_period,
                start: (self.preempt_period / 2).max(1),
                cost: self.preempt_cost,
                victim: None,
            });
        }
        if self.timer_period > 0 {
            // Exactly one release per paced main-loop op of thread 0
            // (see `pace` in the runner); the drain phase is unpaced.
            m.components.push(ComponentSpec::TickGate {
                core: 0,
                period: self.timer_period,
                start: self.timer_period,
                count: self.ops_per_thread,
            });
        }
        m
    }
}

/// One exact simulator run: the workload half of a [`FuzzPlan`] plus the
/// machine it runs on, in full. A reproducer artifact stores this, so
/// replay needs neither the plan's knobs nor any default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzRun {
    /// Queue implementation under test.
    pub queue: QueueKind,
    /// The plan's master seed, which seeds the op streams.
    pub seed: u64,
    /// Worker threads, on cores `0..threads`.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Enqueue probability of each op, in permille.
    pub enq_permille: u64,
    /// The machine. A `TickGate` on a worker's core paces that worker
    /// to one op per release.
    pub machine: MachineConfig,
}

impl FuzzRun {
    /// The op stream of thread `t`: `true` = enqueue. Derived from
    /// `(seed, t)` only, so shrinking `threads` or `ops_per_thread`
    /// leaves the surviving threads' streams intact.
    pub fn thread_ops(&self, t: usize) -> Vec<bool> {
        let mut rng = SimRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(t as u64 + 1),
        );
        (0..self.ops_per_thread)
            .map(|_| rng.gen_bool(self.enq_permille as f64 / 1000.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        for seed in 0..32 {
            assert_eq!(FuzzPlan::derive(seed, None), FuzzPlan::derive(seed, None));
        }
    }

    #[test]
    fn seed_range_covers_every_queue() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..FUZZ_QUEUES.len() as u64 {
            seen.insert(FuzzPlan::derive(seed, None).queue.name());
        }
        assert_eq!(seen.len(), FUZZ_QUEUES.len());
    }

    #[test]
    fn thread_ops_stable_under_shrinking() {
        let plan = FuzzPlan::derive(7, None);
        let mut smaller = plan.clone();
        smaller.threads = 2;
        let (run, small) = (plan.run(), smaller.run());
        assert_eq!(run.thread_ops(0), small.thread_ops(0));
        assert_eq!(run.thread_ops(1), small.thread_ops(1));
    }
}
