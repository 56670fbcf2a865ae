//! Deterministic, dependency-free initial conditions for golden and
//! bench scenarios.
//!
//! Everything here uses only integer arithmetic, IEEE-754 multiplies and
//! comparisons — no `rand`, no libm — so committed artifacts built from
//! these ICs (the golden trace snapshot, the bench baseline) are stable
//! across dependency versions and platforms.

use crate::chaos::{run_treecode_traced, ChaosConfig, ChaosReport};
use hot::gravity::GravityConfig;
use hot::tree::Body;
use msg::{FaultPlan, Machine, RetransmitConfig};

pub use hot::models::golden_ics;
pub use msg::SplitMix64;

/// The golden run — "treecode16" everywhere it is named: 16 ranks on an
/// ideal crossbar, `golden_ics(192, 42)`, 4 KDK steps of 0.01 at
/// θ 0.6 / ε 0.05, checkpoints every 2 steps, deterministic retransmit.
/// The committed trace snapshot (`tests/golden/`), the bench ledger's
/// standing scenarios, the scaling sweep and `trace_dump` all start
/// from these definitions, so they describe the same run.
pub const GOLDEN_RANKS: usize = 16;
pub const GOLDEN_STEPS: u64 = 4;
pub const GOLDEN_DT: f64 = 0.01;

/// Timeline window of the pinned runs: the golden horizon is ~1.8 ms of
/// virtual time, so this yields a handful of windows — enough to see the
/// phase cadence, small enough to read in a committed snapshot.
pub const GOLDEN_TIMELINE_WINDOW_S: f64 = 2.5e-4;

pub fn golden_bodies() -> Vec<Body> {
    golden_ics(192, 42)
}

/// Fault-free, with the retransmit timer off: ack servicing order races
/// wall clock and must not change what goes on the wire.
pub fn golden_plan() -> FaultPlan {
    FaultPlan::none(11).with_retransmit(RetransmitConfig::deterministic())
}

pub fn golden_chaos() -> ChaosConfig {
    ChaosConfig {
        checkpoint_every: 2,
        ..Default::default()
    }
}

pub fn golden_gravity() -> GravityConfig {
    GravityConfig {
        theta: 0.6,
        eps: 0.05,
        ..Default::default()
    }
}

/// The golden world under `plan` and `chaos` (start both from
/// [`golden_plan`] / [`golden_chaos`]), traced, for `steps` KDK steps —
/// [`GOLDEN_STEPS`] for the golden run itself.
pub fn golden_run(
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    steps: u64,
) -> (Vec<Body>, ChaosReport, Option<obs::WorldTrace>) {
    run_treecode_traced(
        &Machine::ideal(GOLDEN_RANKS as u32),
        GOLDEN_RANKS,
        plan,
        chaos,
        golden_bodies(),
        &golden_gravity(),
        steps,
        GOLDEN_DT,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ics_are_reproducible() {
        let a = golden_ics(64, 42);
        let b = golden_ics(64, 42);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.vel, y.vel);
        }
        let c = golden_ics(64, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.pos != y.pos));
    }

    #[test]
    fn splitmix64_known_answers_on_every_path() {
        // Words recorded from the three separate copies this generator
        // had before they became one (seed 42): every committed golden,
        // fault draw, schedule decision and query stream hangs off them.
        fn check(mut rng: SplitMix64) {
            assert_eq!(rng.next_u64(), 0xBDD7_3226_2FEB_6E95);
            assert_eq!(rng.next_u64(), 0x28EF_E333_B266_F103);
            assert_eq!(rng.next_u64(), 0x4752_6757_130F_9F52);
            assert_eq!(rng.unit().to_bits(), 0x3FD6_0738_7FC3_92B8);
            assert_eq!(rng.sym().to_bits(), 0xBFED_90E9_E976_EDF8);
        }
        check(msg::SplitMix64(42));
        check(crate::ics::SplitMix64(42));
        check(query::fleet::SplitMix64(42));
    }
}
