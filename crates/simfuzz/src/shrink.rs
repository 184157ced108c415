//! Plan-level shrinking: reduces a failing [`FuzzPlan`] to a minimal
//! reproducer that still triggers the *same kind* of violation.
//!
//! Strategy (greedy, to fixpoint, bounded by a run budget):
//!
//! 1. shrink the workload — halve then decrement `ops_per_thread`,
//!    decrement `threads` (never below 2: a linearizability violation
//!    needs contention);
//! 2. discharge fault knobs one at a time — spurious aborts, capacity
//!    limit, jitter, scheduler perturbation, dual-socket topology, and
//!    the component actors (preemption source, timer pacing). A knob
//!    that survives zeroing was not needed to trigger the bug, so the
//!    artifact records only the faults that matter;
//! 3. hand the final witness history to [`linearize::shrink_history`]
//!    for event-level 1-minimization.
//!
//! Every candidate is validated by a full deterministic re-run, and a
//! mutation is kept only if the violation's `std::mem::discriminant`
//! matches the original — shrinking must not wander onto a different bug.

use crate::plan::FuzzPlan;
use crate::run::run_plan;
use linearize::{shrink_history, Event, Violation};

/// Default cap on the number of candidate re-runs one shrink may spend.
/// Plans are small (≤ 6 threads × 24 ops), so this is generous: greedy
/// shrinking converges in well under 100 runs in practice.
pub const DEFAULT_SHRINK_BUDGET: usize = 300;

/// A minimized reproducer.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The smallest plan found that still fails with the original kind.
    pub plan: FuzzPlan,
    /// The violation the minimized plan produces.
    pub violation: Violation,
    /// Event-level minimized witness history from the final run.
    pub witness: Vec<Event>,
    /// Candidate runs spent (including the initial confirmation run).
    pub runs: usize,
}

/// Shrinks `plan` to a minimal same-kind reproducer. Returns `None` if
/// the plan does not fail to begin with.
pub fn shrink_plan(plan: &FuzzPlan, budget: usize) -> Option<ShrinkOutcome> {
    let first = run_plan(plan);
    let mut violation = first.violation?;
    let kind = std::mem::discriminant(&violation);
    let mut runs = 1usize;
    let mut cur = plan.clone();
    let mut history = first.history;

    // Greedy descent: after each accepted mutation, restart the pass on
    // the smaller plan (its candidate list is different). Stop at
    // fixpoint or budget.
    'outer: while runs < budget {
        for cand in candidates(&cur) {
            if runs >= budget {
                break 'outer;
            }
            let out = run_plan(&cand);
            runs += 1;
            if let Some(v) = out.violation {
                if std::mem::discriminant(&v) == kind {
                    cur = cand;
                    violation = v;
                    history = out.history;
                    continue 'outer;
                }
            }
        }
        break; // full pass without progress: fixpoint
    }

    // Event-level minimization of the witness. Only adopt the result if
    // it preserved the kind (shrink_history tracks its own verdict).
    let witness = match shrink_history(&history) {
        Some((min, v)) if std::mem::discriminant(&v) == kind => {
            violation = v;
            min
        }
        _ => history,
    };

    Some(ShrinkOutcome {
        plan: cur,
        violation,
        witness,
        runs,
    })
}

/// A mutation, and whether it applies to the plan at hand.
type Step = (bool, fn(&mut FuzzPlan));

/// Single-step mutations of `p`, most aggressive first.
fn candidates(p: &FuzzPlan) -> Vec<FuzzPlan> {
    let steps: [Step; 10] = [
        (p.ops_per_thread > 1, |c| {
            c.ops_per_thread = (c.ops_per_thread / 2).max(1)
        }),
        (p.ops_per_thread > 2, |c| c.ops_per_thread -= 1),
        (p.threads > 2, |c| c.threads -= 1),
        (p.spurious_ppm != 0, |c| c.spurious_ppm = 0),
        (p.capacity_lines != 0, |c| c.capacity_lines = 0),
        (p.jitter_pct != 0, |c| c.jitter_pct = 0),
        (p.sched_perturb != 0, |c| c.sched_perturb = 0),
        (p.dual_socket, |c| c.dual_socket = false),
        // Component actors are fault knobs too: a bug that survives
        // without the preemption source or the timer pacing should
        // record neither.
        (p.preempt_period != 0, |c| c.preempt_period = 0),
        (p.timer_period != 0, |c| c.timer_period = 0),
    ];
    steps
        .into_iter()
        .filter(|&(applies, _)| applies)
        .map(|(_, mutate)| {
            let mut c = p.clone();
            mutate(&mut c);
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_does_not_shrink() {
        // Seed 1 runs clean (covered by run.rs tests), so there is
        // nothing to shrink.
        let plan = FuzzPlan::derive(1, None);
        assert!(shrink_plan(&plan, DEFAULT_SHRINK_BUDGET).is_none());
    }

    #[test]
    fn candidates_strictly_simplify() {
        for seed in 0..16 {
            let p = FuzzPlan::derive(seed, None);
            for c in candidates(&p) {
                assert_ne!(c, p, "seed {seed}: candidate equals its parent");
                assert!(c.threads >= 2);
                assert!(c.ops_per_thread >= 1);
            }
        }
    }
}
