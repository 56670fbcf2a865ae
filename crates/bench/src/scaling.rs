//! Weak/strong scaling sweeps over the treecode (ISSUE PR 9).
//!
//! The paper's Table 6 / Fig 7 claim is a *shape*: parallel efficiency
//! holds inside one 16-port switch module (non-blocking), then falls
//! off once the allgather has to cross the shared 6 Gbit/s module
//! uplinks, and falls again past the chassis boundary where all traffic
//! serializes on the 8 Gbit/s trunk. This module reproduces that curve
//! by sweeping the chaos-harness treecode over a rank list on two
//! machines — the real two-switch fabric and an ideal crossbar control —
//! and folding each point into a [`Scenario`] row tagged with its curve
//! (`mode`, `fabric`) and its efficiency relative to the curve's
//! smallest rank count.
//!
//! Efficiency definitions, on end-to-end virtual time `T(p)`:
//! * weak scaling (fixed bodies per rank): `eff(p) = T(p0) / T(p)`;
//! * strong scaling (fixed total bodies): `eff(p) = T(p0)·p0 / (T(p)·p)`.
//!
//! Crossbar points are byte-deterministic (stateless transfers); the
//! contended fabric serializes transfers in wall-clock arrival order, so
//! its rows carry `deterministic: false` and the comparator pins only
//! their structural claims — exactly the split the standing bisection
//! scenarios already use.

use crate::report::{BenchReport, Scenario};
use cluster::chaos::{run_treecode_traced, ChaosConfig};
use cluster::ics::{golden_gravity, golden_ics, golden_plan};
use msg::Machine;

/// The full sweep of the paper's scaling exhibits: one point per
/// populated power of two, capped at the 288 CPUs of the April 2003
/// record run.
pub const DEFAULT_RANKS: &[usize] = &[2, 4, 8, 16, 32, 64, 128, 288];

/// Scaling discipline of one curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fixed bodies per rank; the problem grows with the machine.
    Weak,
    /// Fixed total bodies; the machine eats a constant problem.
    Strong,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Weak => "weak",
            Mode::Strong => "strong",
        }
    }
}

/// Machine under the curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// The two-switch Space Simulator fabric (FastIron 1500 + 800,
    /// LAM profile): module uplinks and the trunk are real, contended
    /// resources.
    Lam,
    /// An ideal crossbar with as many ports as ranks: the control run
    /// where every route is non-blocking.
    Xbar,
}

impl FabricKind {
    pub fn name(self) -> &'static str {
        match self {
            FabricKind::Lam => "lam",
            FabricKind::Xbar => "xbar",
        }
    }

    pub fn machine(self, ranks: usize) -> Machine {
        match self {
            FabricKind::Lam => Machine::space_simulator_lam(),
            FabricKind::Xbar => Machine::ideal(ranks as u32),
        }
    }

    /// Whether virtual timings on this fabric are byte-deterministic.
    /// Contended transfers serialize in wall-clock arrival order.
    pub fn deterministic(self) -> bool {
        matches!(self, FabricKind::Xbar)
    }
}

/// One sweep's shape. `Default` is the full exhibit; tests and the CI
/// job shrink `ranks`/bodies for wall-clock budget.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Rank counts, ascending; the first is each curve's baseline.
    pub ranks: Vec<usize>,
    pub modes: Vec<Mode>,
    pub fabrics: Vec<FabricKind>,
    /// KDK steps per point.
    pub steps: u64,
    pub dt: f64,
    /// Weak scaling: bodies per rank.
    pub bodies_per_rank: usize,
    /// Strong scaling: total bodies (must cover the largest rank count).
    pub strong_bodies: usize,
    /// IC seed, shared by every point so curves differ only in scale.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            ranks: DEFAULT_RANKS.to_vec(),
            modes: vec![Mode::Weak, Mode::Strong],
            fabrics: vec![FabricKind::Lam, FabricKind::Xbar],
            steps: 2,
            dt: 0.01,
            bodies_per_rank: 24,
            strong_bodies: 1152,
            seed: 42,
        }
    }
}

impl SweepConfig {
    /// Drop rank counts above `max` (the CI reduced sweep).
    pub fn capped(mut self, max: usize) -> SweepConfig {
        self.ranks.retain(|&p| p <= max);
        self
    }

    fn bodies_for(&self, mode: Mode, ranks: usize) -> usize {
        match mode {
            Mode::Weak => self.bodies_per_rank * ranks,
            Mode::Strong => self.strong_bodies,
        }
    }
}

/// Run one point of a curve and fold it into a (not yet
/// efficiency-tagged) scenario row named `{mode}_{fabric}_{ranks}`.
pub fn run_point(cfg: &SweepConfig, mode: Mode, fabric: FabricKind, ranks: usize) -> Scenario {
    let bodies = cfg.bodies_for(mode, ranks);
    assert!(
        bodies >= ranks,
        "{} bodies cannot cover {ranks} ranks",
        bodies
    );
    // One checkpoint commit at the end of the horizon: the curve should
    // measure the force/exchange pipeline, not checkpoint cadence.
    let chaos = ChaosConfig {
        checkpoint_every: cfg.steps,
        ..Default::default()
    };
    let (_, report, trace) = run_treecode_traced(
        &fabric.machine(ranks),
        ranks,
        &golden_plan(),
        &chaos,
        golden_ics(bodies, cfg.seed),
        &golden_gravity(),
        cfg.steps,
        cfg.dt,
    );
    let name = format!("{}_{}_{}", mode.name(), fabric.name(), ranks);
    let mut row = Scenario::from_treecode(&name, &report, trace);
    row.set_tag("mode", mode.name());
    row.set_tag("fabric", fabric.name());
    row.set("bodies", bodies as f64);
    row.deterministic = fabric.deterministic();
    row
}

/// Run every curve of the sweep and set `scaling_efficiency` relative to
/// each curve's smallest rank count. Rows come back in
/// curve order (mode, fabric, then ascending ranks) inside a
/// schema-current [`BenchReport`].
pub fn run_sweep(cfg: &SweepConfig) -> BenchReport {
    assert!(!cfg.ranks.is_empty(), "sweep needs at least one rank count");
    let mut rows = Vec::new();
    for &mode in &cfg.modes {
        for &fabric in &cfg.fabrics {
            let mut base: Option<(usize, f64)> = None;
            for &ranks in &cfg.ranks {
                let mut row = run_point(cfg, mode, fabric, ranks);
                let t = row.metric("end_vtime_s").expect("traced rows carry it");
                let (p0, t0) = *base.get_or_insert((ranks, t));
                let eff = scaling_efficiency(mode, p0, t0, ranks, t);
                row.set("scaling_efficiency", eff);
                eprintln!(
                    "ran {}: end {t:.6}s eff {eff:.3} dominant {}",
                    row.name,
                    row.tag("dominant_wire")
                );
                rows.push(row);
            }
        }
    }
    BenchReport::new(rows)
}

/// The efficiency of a `(ranks, T)` point against its curve baseline
/// `(p0, T0)`.
pub fn scaling_efficiency(mode: Mode, p0: usize, t0: f64, ranks: usize, t: f64) -> f64 {
    // Not `<= 0.0`: a NaN time scores zero too.
    if !(t > 0.0 && t0 > 0.0) {
        return 0.0;
    }
    match mode {
        Mode::Weak => t0 / t,
        Mode::Strong => (t0 * p0 as f64) / (t * ranks as f64),
    }
}

/// Render one curve (filtered from `rows` by mode + fabric) as a TSV
/// series for plotting: `ranks  end_vtime_s  scaling_efficiency`.
pub fn render_curve(report: &BenchReport, mode: Mode, fabric: FabricKind) -> String {
    const COLS: [&str; 3] = ["ranks", "end_vtime_s", "scaling_efficiency"];
    let rows: Vec<Vec<f64>> = (report.scenarios.iter())
        .filter(|s| s.tag("mode") == mode.name() && s.tag("fabric") == fabric.name())
        .map(|s| {
            COLS.map(|c| s.metric(c).expect("sweep rows carry it"))
                .to_vec()
        })
        .collect();
    crate::render_series(
        &format!("{}-scaling, {} fabric", mode.name(), fabric.name()),
        &COLS,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_definitions() {
        // Perfect weak scaling: constant T.
        assert!((scaling_efficiency(Mode::Weak, 2, 1.0, 8, 1.0) - 1.0).abs() < 1e-12);
        // T doubled: half the efficiency.
        assert!((scaling_efficiency(Mode::Weak, 2, 1.0, 8, 2.0) - 0.5).abs() < 1e-12);
        // Perfect strong scaling: T shrinks with 1/p.
        assert!((scaling_efficiency(Mode::Strong, 2, 1.0, 8, 0.25) - 1.0).abs() < 1e-12);
        // No speedup at all: eff = p0/p.
        assert!((scaling_efficiency(Mode::Strong, 2, 1.0, 8, 1.0) - 0.25).abs() < 1e-12);
        // Degenerate timings never divide by zero.
        assert_eq!(scaling_efficiency(Mode::Weak, 2, 0.0, 8, 1.0), 0.0);
        assert_eq!(scaling_efficiency(Mode::Weak, 2, 1.0, 8, 0.0), 0.0);
    }

    #[test]
    fn capped_sweep_drops_large_ranks() {
        let cfg = SweepConfig::default().capped(64);
        assert_eq!(cfg.ranks, vec![2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn weak_bodies_grow_and_strong_bodies_hold() {
        let cfg = SweepConfig::default();
        assert_eq!(cfg.bodies_for(Mode::Weak, 2), 2 * cfg.bodies_per_rank);
        assert_eq!(cfg.bodies_for(Mode::Weak, 288), 288 * cfg.bodies_per_rank);
        assert_eq!(cfg.bodies_for(Mode::Strong, 2), cfg.strong_bodies);
        assert_eq!(cfg.bodies_for(Mode::Strong, 288), cfg.strong_bodies);
        // The default strong problem covers the largest default machine.
        assert!(cfg.strong_bodies >= *DEFAULT_RANKS.last().unwrap());
    }
}
