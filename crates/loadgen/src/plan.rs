//! Load plans: everything that determines one open-loop run, stored as
//! integers so a plan is a pure, exactly comparable value.
//!
//! A plan owns the **arrival process**: the request arrival times are a
//! pure function of `(seed, pattern, rate_rps, requests)` and are
//! computed up front, before any thread runs. That is what makes the
//! traffic *open-loop* — a slow queue cannot throttle its own offered
//! load, because arrival time `k` does not depend on how request `k-1`
//! fared — and what makes a sim run byte-identical across repeats and
//! across `runner` job counts.

use simrng::SimRng;

/// Nominal clock in cycles per second. Must agree with
/// [`coherence::GHZ`]; pinned by a unit test below.
pub const CLOCK_HZ: u64 = 2_200_000_000;

/// How request arrivals are distributed in time. All parameters are
/// integers (cycles or permille of the plan's mean rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Memoryless arrivals: exponential inter-arrival gaps with mean
    /// `1/rate`, sampled from the plan seed.
    Poisson,
    /// On/off traffic: arrivals come uniformly spaced inside `on_cycles`
    /// windows separated by `off_cycles` of silence, with the in-burst
    /// rate raised so the *long-run mean* stays the plan rate. Every
    /// arrival lands inside an on-window exactly (`t % period <
    /// on_cycles`) — the duty-cycle-exactness property test pins this.
    Bursty { on_cycles: u64, off_cycles: u64 },
    /// A diurnal ramp: the instantaneous rate climbs linearly from
    /// `low_permille/1000` of the plan rate to `high_permille/1000` over
    /// the first half of `period_cycles`, then descends symmetrically —
    /// two monotone segments per period, like a day of user traffic
    /// compressed into simulated time.
    Diurnal {
        low_permille: u64,
        high_permille: u64,
        period_cycles: u64,
    },
}

impl ArrivalPattern {
    /// Stable token used by the TSV and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Poisson => "poisson",
            ArrivalPattern::Bursty { .. } => "bursty",
            ArrivalPattern::Diurnal { .. } => "diurnal",
        }
    }
}

/// One fully determined open-loop load run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadPlan {
    /// Seed for the arrival process and per-request service jitter.
    pub seed: u64,
    pub pattern: ArrivalPattern,
    /// Mean offered load, requests per second of (simulated or wall)
    /// time at the nominal [`CLOCK_HZ`] clock.
    pub rate_rps: u64,
    /// Total requests driven through the stage graph.
    pub requests: u64,
    /// Ingress threads replaying the arrival process (source `s` owns
    /// arrivals `k ≡ s (mod sources)`).
    pub sources: usize,
    /// Worker-pool threads: dequeue ingress, spend the service time,
    /// enqueue egress.
    pub workers: usize,
    /// Egress threads draining the final queue and timestamping
    /// completion.
    pub egress: usize,
    /// Mean per-request service time, cycles.
    pub service_cycles: u64,
    /// Uniform per-request service-time extension, percent of
    /// `service_cycles` (0 = constant service time). Drawn per request
    /// id from the plan seed, so it is identical across backends.
    pub service_jitter_pct: u64,
    /// Idle back-off between empty dequeue polls, cycles.
    pub poll_cycles: u64,
}

impl Default for LoadPlan {
    fn default() -> Self {
        LoadPlan {
            seed: 0x10ad,
            pattern: ArrivalPattern::Poisson,
            rate_rps: 1_000_000,
            requests: 256,
            sources: 1,
            workers: 2,
            egress: 1,
            service_cycles: 1_500,
            service_jitter_pct: 0,
            poll_cycles: 200,
        }
    }
}

impl LoadPlan {
    /// Threads the stage graph occupies (sources + workers + egress).
    pub fn threads(&self) -> usize {
        self.sources + self.workers + self.egress
    }

    /// Mean inter-arrival gap at the plan rate, cycles (≥ 1).
    pub fn mean_gap_cycles(&self) -> u64 {
        (CLOCK_HZ / self.rate_rps.max(1)).max(1)
    }

    /// The worker pool's nominal service capacity, requests per second:
    /// where the offered load crosses this, the queue saturates. Uses
    /// the mean service time (jitter raises it by `pct/2` on average)
    /// plus nothing for queue-op overhead, so the true knee sits
    /// slightly below this estimate.
    pub fn capacity_rps(&self) -> u64 {
        let mean_service =
            self.service_cycles + self.service_cycles * self.service_jitter_pct / 200;
        self.workers as u64 * CLOCK_HZ / mean_service.max(1)
    }

    /// Validates the plan's integer invariants, returning a diagnostic
    /// for the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("requests must be positive".into());
        }
        if self.rate_rps == 0 {
            return Err("rate-rps must be positive".into());
        }
        if self.sources == 0 || self.workers == 0 || self.egress == 0 {
            return Err("sources, workers, and egress must all be positive".into());
        }
        if self.service_cycles == 0 {
            return Err("service-cycles must be positive".into());
        }
        match self.pattern {
            ArrivalPattern::Bursty { on_cycles: 0, .. } => {
                Err("bursty on_cycles must be positive".into())
            }
            ArrivalPattern::Diurnal {
                low_permille,
                high_permille,
                period_cycles,
            } => {
                if low_permille == 0 || high_permille < low_permille {
                    Err("diurnal needs 0 < low_permille <= high_permille".into())
                } else if period_cycles < 2 {
                    Err("diurnal period_cycles must be >= 2".into())
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }

    /// The instantaneous offered rate at offset `t` cycles from the run
    /// start, requests per second. Constant for Poisson; the burst-local
    /// rate inside on-windows (0 inside off-windows) for bursty; the
    /// triangular ramp for diurnal. Public so the monotone-segment
    /// property tests can probe the ramp directly.
    pub fn rate_at(&self, t: u64) -> u64 {
        match self.pattern {
            ArrivalPattern::Poisson => self.rate_rps,
            ArrivalPattern::Bursty {
                on_cycles,
                off_cycles,
            } => {
                let period = on_cycles + off_cycles;
                if period == 0 || t % period < on_cycles {
                    // In-burst rate scaled so the long-run mean is rate_rps.
                    mul_ratio(self.rate_rps, period.max(1), on_cycles.max(1))
                } else {
                    0
                }
            }
            ArrivalPattern::Diurnal {
                low_permille,
                high_permille,
                period_cycles,
            } => {
                let half = (period_cycles / 2).max(1);
                let phase = t % period_cycles;
                let permille = if phase < half {
                    // Ramp up.
                    low_permille + mul_ratio(high_permille - low_permille, phase, half)
                } else {
                    // Ramp down.
                    high_permille - mul_ratio(high_permille - low_permille, phase - half, half)
                };
                mul_ratio(self.rate_rps, permille, 1000).max(1)
            }
        }
    }

    /// The arrival offsets of all `requests` requests, cycles from the
    /// post-barrier run start, non-decreasing. A pure function of the
    /// plan — computed before any thread runs, never influenced by
    /// service progress (the open-loop contract).
    pub fn arrival_offsets(&self) -> Vec<u64> {
        let mean = self.mean_gap_cycles();
        let mut rng = SimRng::seed_from_u64(self.seed ^ ARRIVAL_SEED_DOMAIN);
        let mut out = Vec::with_capacity(self.requests as usize);
        match self.pattern {
            ArrivalPattern::Poisson => {
                let mut t = 0u64;
                for _ in 0..self.requests {
                    t += exp_gap(&mut rng, mean);
                    out.push(t);
                }
            }
            ArrivalPattern::Bursty {
                on_cycles,
                off_cycles,
            } => {
                // Walk cumulative *on-time* uniformly, then map on-time
                // back to absolute time: on-time `u` lands in period
                // `u / on` at in-window offset `u % on`. Spacing in
                // on-time is `mean * on / period`, so the long-run mean
                // rate is exactly the plan rate.
                let period = on_cycles + off_cycles;
                let gap_on = mul_ratio(mean, on_cycles, period.max(1)).max(1);
                let mut u = 0u64;
                for _ in 0..self.requests {
                    u += gap_on;
                    out.push((u / on_cycles) * period + (u % on_cycles));
                }
            }
            ArrivalPattern::Diurnal { .. } => {
                let mut t = 0u64;
                for _ in 0..self.requests {
                    t += (CLOCK_HZ / self.rate_at(t).max(1)).max(1);
                    out.push(t);
                }
            }
        }
        out
    }

    /// The service time of request `id` (1-based), cycles: the plan mean
    /// extended by a uniform jitter in `0..=service_jitter_pct`% drawn
    /// from `(seed, id)` only — identical on either backend.
    pub fn service_cycles_for(&self, id: u64) -> u64 {
        if self.service_jitter_pct == 0 {
            return self.service_cycles;
        }
        let mut rng = SimRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(id),
        );
        let max_extra = self.service_cycles * self.service_jitter_pct / 100;
        self.service_cycles + rng.gen_range_inclusive(0, max_extra)
    }
}

/// `v * num / den` without intermediate overflow.
fn mul_ratio(v: u64, num: u64, den: u64) -> u64 {
    ((v as u128 * num as u128) / den.max(1) as u128) as u64
}

/// One exponential inter-arrival gap with mean `mean` cycles (≥ 1).
fn exp_gap(rng: &mut SimRng, mean: u64) -> u64 {
    // u uniform in (0, 1]: 53 mantissa bits, never exactly 0 so ln is
    // finite. The f64 math is a pure function of the integer draw, so
    // the stream is deterministic for a fixed seed.
    let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    ((-u.ln() * mean as f64).round() as u64).max(1)
}

/// Seed-domain separator: keeps the arrival stream disjoint from every
/// other [`SimRng`] consumer seeded from the same user seed.
const ARRIVAL_SEED_DOMAIN: u64 = 0x4c0a_d6e2_a881_7c3b;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_matches_coherence() {
        assert_eq!((coherence::GHZ * 1e9) as u64, CLOCK_HZ);
        assert_eq!(coherence::ns_to_cycles(1e9 / CLOCK_HZ as f64), 1);
    }

    #[test]
    fn default_plan_validates() {
        assert_eq!(LoadPlan::default().validate(), Ok(()));
    }

    #[test]
    fn capacity_estimate_is_sane() {
        let plan = LoadPlan {
            workers: 2,
            service_cycles: 2_200,
            service_jitter_pct: 0,
            ..Default::default()
        };
        // 2 workers * 2.2e9 / 2200 = 2M rps.
        assert_eq!(plan.capacity_rps(), 2_000_000);
    }
}
