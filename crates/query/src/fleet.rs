//! The seeded open-loop client fleet.
//!
//! Each rank hosts one synthetic client stream: a pure function of
//! `(seed, rank)` producing queries with virtual-time arrivals at a
//! target rate, mixed over the four classes. *Open-loop* means arrivals
//! never wait for replies — the arrival clock marches on whether or not
//! the engine keeps up, so sustained queries/s and the latency
//! percentiles measure the engine, not the generator.
//!
//! Determinism: the generator uses only SplitMix64 integer mixing and
//! basic float arithmetic (`sqrt` is IEEE-exact; no `ln`/trig), so the
//! committed bench numbers are bit-stable across platforms. Inter-
//! arrival gaps are `(0.5 + u) / rate` with `u` uniform in `[0, 1)` —
//! mean `1/rate`, bounded jitter — rather than exponential, which would
//! drag a non-portable `ln` into committed artifacts.

use crate::wire::{QueryKind, Shape};

pub use msg::SplitMix64;

/// Knobs for one fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    pub seed: u64,
    /// Arrival rate per rank, queries per virtual second.
    pub rate_hz: f64,
    /// Queries each rank issues over the run.
    pub per_rank: u64,
    /// Client patience: a reply later than this after arrival counts as
    /// `query.late` (the exactly-once oracle requires zero).
    pub timeout_s: f64,
    /// Body-id universe `[0, n_bodies)`; a slice of ids above it is
    /// also sampled so the Missing path stays exercised.
    pub n_bodies: u64,
    /// Spatial extent query geometry samples within (the IC scale).
    pub span: f64,
    /// Largest k a kNN query asks for.
    pub knn_max: u32,
    /// Fraction (per mille) of queries that are time-travel.
    pub past_per_mille: u32,
    /// Fraction (per mille) of *time-travel* queries that ask for a
    /// generation the commit schedule never produced — the typed-miss
    /// (`Answer::NotCommitted`) path. Zero (the default) draws nothing
    /// from the stream, so existing schedules stay byte-identical.
    pub uncommitted_per_mille: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 42,
            rate_hz: 2.0e5,
            per_rank: 24,
            timeout_s: 5.0e-3,
            n_bodies: 0,
            span: 2.0,
            knn_max: 8,
            past_per_mille: 250,
            uncommitted_per_mille: 0,
        }
    }
}

/// One scheduled client query: what to ask and when it arrives.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Virtual arrival time (seconds from run start).
    pub at_s: f64,
    /// This query wants the newest *committed* generation instead of
    /// the live universe; the engine resolves the concrete step at
    /// issue time (the client only knows "the past", not the commit
    /// schedule).
    pub past: bool,
    /// This time-travel query targets a generation that was never
    /// committed; the engine must answer it with the typed
    /// `NotCommitted` miss, never an empty partial.
    pub uncommitted: bool,
    pub kind: QueryKind,
}

/// The full arrival schedule for one rank: `per_rank` queries, strictly
/// increasing arrival times, deterministic in `(cfg.seed, rank)`.
pub fn schedule(cfg: &FleetConfig, rank: usize) -> Vec<Arrival> {
    let mut rng = SplitMix64(cfg.seed ^ (rank as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(cfg.per_rank as usize);
    for _ in 0..cfg.per_rank {
        t += (0.5 + rng.unit()) / cfg.rate_hz;
        let past = (rng.next_u64() % 1000) < cfg.past_per_mille as u64;
        // Drawn only when the knob is armed, so default-config streams
        // are byte-identical to what they were before the knob existed.
        let uncommitted = past
            && cfg.uncommitted_per_mille > 0
            && (rng.next_u64() % 1000) < cfg.uncommitted_per_mille as u64;
        let kind = match rng.next_u64() % 3 {
            0 => {
                // Mostly-valid ids with a 1/8 slice of misses.
                let hi = cfg.n_bodies + cfg.n_bodies / 8 + 1;
                QueryKind::Point {
                    id: rng.next_u64() % hi.max(1),
                }
            }
            1 => {
                let center = [
                    rng.sym() * cfg.span,
                    rng.sym() * cfg.span,
                    rng.sym() * cfg.span,
                ];
                if rng.next_u64().is_multiple_of(4) {
                    // Cone: unit axis via normalized sample (sqrt only),
                    // half-angle cosine in [0.5, 0.95].
                    let raw = [rng.sym() + 1e-3, rng.sym() + 1e-3, rng.sym() + 1e-3];
                    let norm = (raw[0] * raw[0] + raw[1] * raw[1] + raw[2] * raw[2]).sqrt();
                    QueryKind::Region(Shape::Cone {
                        apex: center,
                        axis: [raw[0] / norm, raw[1] / norm, raw[2] / norm],
                        cos_half: 0.5 + 0.45 * rng.unit(),
                        range: (0.2 + rng.unit()) * cfg.span,
                    })
                } else {
                    QueryKind::Region(Shape::Ball {
                        center,
                        radius: (0.1 + rng.unit()) * cfg.span * 0.5,
                    })
                }
            }
            _ => QueryKind::Knn {
                at: [
                    rng.sym() * cfg.span,
                    rng.sym() * cfg.span,
                    rng.sym() * cfg.span,
                ],
                k: 1 + (rng.next_u64() % cfg.knn_max as u64) as u32,
            },
        };
        out.push(Arrival {
            at_s: t,
            past,
            uncommitted,
            kind,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetConfig {
        FleetConfig {
            n_bodies: 100,
            per_rank: 200,
            ..Default::default()
        }
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let a = schedule(&cfg(), 3);
        let b = schedule(&cfg(), 3);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_s.to_bits(), y.at_s.to_bits());
            assert_eq!(x.kind, y.kind);
        }
        for w in a.windows(2) {
            assert!(w[0].at_s < w[1].at_s, "arrivals strictly increase");
        }
        assert_ne!(
            schedule(&cfg(), 0)[0].kind,
            schedule(&cfg(), 1)[0].kind,
            "ranks draw distinct streams"
        );
    }

    #[test]
    fn mix_covers_every_class() {
        let a = schedule(&cfg(), 0);
        let mut point = 0;
        let mut ball = 0;
        let mut cone = 0;
        let mut knn = 0;
        let mut past = 0;
        for q in &a {
            match q.kind {
                QueryKind::Point { .. } => point += 1,
                QueryKind::Region(Shape::Ball { .. }) => ball += 1,
                QueryKind::Region(Shape::Cone { .. }) => cone += 1,
                QueryKind::Knn { .. } => knn += 1,
            }
            past += q.past as u64;
        }
        assert!(
            point > 0 && ball > 0 && cone > 0 && knn > 0,
            "mix degenerate"
        );
        assert!(past > 0, "no time-travel queries in the mix");
    }

    #[test]
    fn arrival_rate_is_near_target() {
        let c = cfg();
        let a = schedule(&c, 0);
        let horizon = a.last().unwrap().at_s;
        let rate = a.len() as f64 / horizon;
        assert!(
            (rate / c.rate_hz - 1.0).abs() < 0.1,
            "open-loop rate {rate} vs target {}",
            c.rate_hz
        );
    }
}
