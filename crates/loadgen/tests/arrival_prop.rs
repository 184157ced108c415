//! Property tests for the arrival processes: the open-loop schedule is
//! the load layer's foundation, so its statistical and determinism
//! contracts are pinned across many seeds.

use loadgen::{ArrivalPattern, LoadPlan, CLOCK_HZ};

fn plan_with(seed: u64, pattern: ArrivalPattern) -> LoadPlan {
    LoadPlan {
        seed,
        pattern,
        rate_rps: 2_000_000,
        requests: 2_048,
        ..Default::default()
    }
}

#[test]
fn offsets_are_deterministic_per_seed_and_nondecreasing() {
    for seed in 0..32u64 {
        for pattern in [
            ArrivalPattern::Poisson,
            ArrivalPattern::Bursty {
                on_cycles: 3_000,
                off_cycles: 9_000,
            },
            ArrivalPattern::Diurnal {
                low_permille: 200,
                high_permille: 1_800,
                period_cycles: 400_000,
            },
        ] {
            let plan = plan_with(seed, pattern);
            let a = plan.arrival_offsets();
            let b = plan.arrival_offsets();
            assert_eq!(a, b, "same plan must give the same schedule");
            assert_eq!(a.len() as u64, plan.requests);
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "offsets must be non-decreasing ({pattern:?}, seed {seed})"
            );
        }
    }
}

#[test]
fn different_seeds_give_different_poisson_schedules() {
    let a = plan_with(1, ArrivalPattern::Poisson).arrival_offsets();
    let b = plan_with(2, ArrivalPattern::Poisson).arrival_offsets();
    assert_ne!(a, b);
}

#[test]
fn poisson_mean_rate_is_close_across_seeds() {
    // Per-seed the empirical rate fluctuates; averaged over 32 seeds the
    // relative error of the mean gap must be small (exponential gaps,
    // n = 32 * 2048 samples → stderr ≈ 0.4%; bound at 3%).
    let mut total_span = 0u128;
    let mut total_arrivals = 0u128;
    for seed in 0..32u64 {
        let plan = plan_with(seed, ArrivalPattern::Poisson);
        let offs = plan.arrival_offsets();
        total_span += *offs.last().unwrap() as u128;
        total_arrivals += offs.len() as u128;
    }
    let mean_gap = total_span as f64 / total_arrivals as f64;
    let expect = CLOCK_HZ as f64 / 2_000_000.0; // 1100 cycles
    let rel_err = (mean_gap - expect).abs() / expect;
    assert!(
        rel_err < 0.03,
        "poisson mean gap {mean_gap:.1} vs expected {expect:.1} (rel err {rel_err:.4})"
    );
}

#[test]
fn bursty_arrivals_land_inside_on_windows_exactly() {
    for seed in 0..8u64 {
        let (on, off) = (2_500u64, 7_500u64);
        let plan = plan_with(
            seed,
            ArrivalPattern::Bursty {
                on_cycles: on,
                off_cycles: off,
            },
        );
        let offs = plan.arrival_offsets();
        for &t in &offs {
            assert!(
                t % (on + off) < on,
                "arrival at {t} lies in an off-window (period {})",
                on + off
            );
        }
        // Duty-cycle exactness: the mapping preserves the long-run mean
        // rate, so the last arrival sits within one period of the ideal
        // open-loop makespan requests * mean_gap scaled by period/on.
        let ideal = plan.requests * plan.mean_gap_cycles();
        let got = *offs.last().unwrap();
        let slack = on + off + plan.mean_gap_cycles();
        assert!(
            got.abs_diff(ideal) <= slack,
            "bursty makespan {got} vs ideal {ideal} (slack {slack})"
        );
    }
}

#[test]
fn diurnal_rate_has_monotone_ramp_segments() {
    let plan = plan_with(
        7,
        ArrivalPattern::Diurnal {
            low_permille: 100,
            high_permille: 2_000,
            period_cycles: 1_000_000,
        },
    );
    let period = 1_000_000u64;
    let half = period / 2;
    // First half: non-decreasing instantaneous rate; second half:
    // non-increasing. Probe both segments densely.
    let mut prev = 0;
    for step in 0..=100u64 {
        let r = plan.rate_at(step * (half / 100));
        assert!(r >= prev, "ramp-up must be monotone at step {step}");
        prev = r;
    }
    for step in 0..=100u64 {
        let t = half + step * (half / 100);
        let r = plan.rate_at(t.min(period - 1));
        assert!(r <= prev, "ramp-down must be monotone at step {step}");
        prev = r;
    }
    // Extremes hit the configured band.
    assert_eq!(plan.rate_at(0), 2_000_000 * 100 / 1000);
    assert_eq!(plan.rate_at(half), 2_000_000 * 2_000 / 1000);
}

#[test]
fn service_jitter_is_a_pure_function_of_seed_and_id() {
    let plan = LoadPlan {
        service_jitter_pct: 50,
        ..Default::default()
    };
    for id in 1..=64u64 {
        let s = plan.service_cycles_for(id);
        assert_eq!(s, plan.service_cycles_for(id), "same id, same jitter");
        assert!(s >= plan.service_cycles);
        assert!(s <= plan.service_cycles + plan.service_cycles / 2);
    }
    // Jitter off: exactly the mean.
    let flat = LoadPlan::default();
    assert_eq!(flat.service_cycles_for(9), flat.service_cycles);
}
