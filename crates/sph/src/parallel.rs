//! Distributed SPH over the message-passing layer (§4.4: "For our 1
//! million particle simulations on 128 processors...").
//!
//! The decomposition is the treecode's: particles are split by Morton key
//! across ranks with `hot::domain::decompose_by`; each rank then imports
//! **ghost** particles — remote particles within interaction range of its
//! domain box — computes density, EOS and hydrodynamic forces locally, and
//! returns its shard. Ghosts are **sources, not targets**: they sit in
//! the neighbour tree and every sum over an owned particle reads them,
//! but no sum is evaluated *at* a ghost — its owner does that, with the
//! whole neighbourhood an edge ghost lacks here. Neutrino transport runs
//! in the force phase the same way. [`DistributedSph`] runs self-gravity
//! with `hot::parallel::accelerations_on` on that same decomposition, so
//! each acceleration lands on the rank that owns it; on one rank it is
//! [`SphSimulation`](crate::SphSimulation).

use crate::density::compute_density_targets;
use crate::eos::Eos;
use crate::forces::{apply_eos, hydro_forces_targets, Viscosity};
use crate::integrate::{cfl_limit, SphConfig};
use crate::kernel;
use crate::neighbors::NeighborTree;
use crate::neutrino::neutrino_transport_targets;
use crate::particle::SphParticle;
use hot::domain::{decompose_by, Decomposition};
use hot::gravity::GravityConfig;
use hot::parallel::{accelerations_on, ParallelConfig};
use hot::tree::Body;
use msg::Comm;

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): the force phase imports
    /// ghosts through a pad one `h_max` short of `SUPPORT · h_max`, so
    /// an edge particle misses neighbours it interacts with. Rank threads
    /// read their own copy, so a test arms it inside the rank closure.
    static SHORT_GHOST_PAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl msg::payload::FixedWire for SphParticle {
    // pos, vel (48) + mass, id (16) + h, rho, u, pres, cs (40)
    // + acc (24) + du_dt, enu, denu_dt (24)
    const WIRE: usize = 152;
}

/// Wire/memory footprint of one particle, for the compute-charge
/// occupancy model.
const PARTICLE_BYTES: usize = <SphParticle as msg::payload::FixedWire>::WIRE;

/// Axis-aligned bounds of a particle set, grown by `pad`.
fn bounds(parts: &[SphParticle], pad: f64) -> [f64; 6] {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in parts {
        for d in 0..3 {
            lo[d] = lo[d].min(p.pos[d]);
            hi[d] = hi[d].max(p.pos[d]);
        }
    }
    [
        lo[0] - pad,
        lo[1] - pad,
        lo[2] - pad,
        hi[0] + pad,
        hi[1] + pad,
        hi[2] + pad,
    ]
}

fn in_box(p: &SphParticle, b: &[f64; 6]) -> bool {
    (0..3).all(|d| p.pos[d] >= b[d] && p.pos[d] <= b[d + 3])
}

/// One distributed density + hydro-force evaluation.
///
/// Returns this rank's (possibly migrated) shard with `rho`, `pres`,
/// `cs`, `acc` and `du_dt` filled in, exactly as the serial pipeline
/// would have computed them over the union of all shards.
pub fn distributed_hydro(
    comm: &mut Comm,
    parts: Vec<SphParticle>,
    eos: &Eos,
    visc: &Viscosity,
    h_max_hint: f64,
) -> Vec<SphParticle> {
    let cfg = SphConfig {
        eos: *eos,
        viscosity: *visc,
        ..Default::default()
    };
    hydro(comm, parts, &cfg, h_max_hint).0
}

/// [`distributed_hydro`] under `cfg`'s EOS and viscosity, with neutrino
/// transport if `cfg` has it, also returning the decomposition the shard
/// is this rank's part of and the converged global `(h_min, h_max)`.
fn hydro(
    comm: &mut Comm,
    parts: Vec<SphParticle>,
    cfg: &SphConfig,
    h_max_hint: f64,
) -> (Vec<SphParticle>, Decomposition, (f64, f64)) {
    // 1. Rebalance: the treecode's Morton-key decomposition, one unit of
    //    work per particle.
    comm.span_enter("sph.rebalance");
    let health = vec![1.0; comm.size()];
    let (mut mine, decomp) = decompose_by(comm, parts, |p| p.pos, |_| 1.0, &health);
    comm.span_exit("sph.rebalance");

    // 2. Ghost exchange helper: ship my particles lying inside other
    //    ranks' padded boxes. A rank that owns nothing publishes an empty
    //    box (as `hot::domain::decompose` does for an empty key range).
    let exchange_ghosts = |comm: &mut Comm, mine: &[SphParticle], pad: f64| -> Vec<SphParticle> {
        comm.span_enter("sph.ghosts");
        let my_box = if mine.is_empty() {
            Vec::new()
        } else {
            bounds(mine, pad).to_vec()
        };
        let boxes = comm.allgather(my_box);
        let mut outgoing: Vec<Vec<SphParticle>> = (0..comm.size()).map(|_| Vec::new()).collect();
        for (r, bx) in boxes.iter().enumerate() {
            if r == comm.rank() || bx.is_empty() {
                continue;
            }
            let b = [bx[0], bx[1], bx[2], bx[3], bx[4], bx[5]];
            for p in mine {
                if in_box(p, &b) {
                    outgoing[r].push(*p);
                }
            }
        }
        let ghosts: Vec<SphParticle> = comm.alltoallv(outgoing).into_iter().flatten().collect();
        comm.span_exit("sph.ghosts");
        ghosts
    };

    let n_own = mine.len();

    // 3. Phase 1 — density and EOS for OWNED particles, with position
    //    ghosts completing the boundary neighbourhoods. If the adaptive
    //    h outgrows the pad, widen and redo.
    let mut pad = kernel::SUPPORT * h_max_hint * 1.3;
    let (mut h_min, mut h_max) = (0.0, 0.0);
    comm.span_enter("sph.density");
    for attempt in 0..4 {
        let ghosts = exchange_ghosts(comm, &mine, pad);
        let mut work: Vec<SphParticle> = Vec::with_capacity(n_own + ghosts.len());
        work.extend(mine.iter().copied());
        work.extend(ghosts);
        if !work.is_empty() {
            let nt = NeighborTree::build(&work);
            compute_density_targets(&mut work, &nt, n_own);
            apply_eos(&mut work[..n_own], &cfg.eos);
            // Charge the density pass to the virtual clock with the
            // §4.4 cost model: ~120 neighbours/particle, density+EOS is
            // the cheaper ~2/5 of the ~250 flops per interaction. Flops
            // are spent on owned particles only; ghosts are still read.
            let flops = n_own as f64 * 120.0 * 100.0;
            comm.compute(flops, (work.len() * PARTICLE_BYTES) as f64);
            comm.obs_count("sph.interactions", (n_own as u64).saturating_mul(120));
        }
        work.truncate(n_own);
        mine = work;
        let h_min_local = mine.iter().map(|p| p.h).fold(f64::INFINITY, f64::min);
        let h_max_local = mine.iter().map(|p| p.h).fold(0.0f64, f64::max);
        (h_min, h_max) = comm.allreduce((h_min_local, h_max_local), |a, b| {
            (a.0.min(b.0), a.1.max(b.1))
        });
        let needed = kernel::SUPPORT * h_max * 1.05;
        let done = comm.allreduce(u8::from(needed <= pad), |a, b| (*a).min(*b));
        if done == 1 || attempt == 3 {
            pad = needed.max(pad);
            break;
        }
        pad = needed * 1.3;
    }
    comm.span_exit("sph.density");

    // 4. Phase 2 — forces, with ghosts now carrying their owners'
    //    converged rho / pres / cs / h.
    comm.span_enter("sph.forces");
    #[cfg(test)]
    if SHORT_GHOST_PAD.get() {
        pad = (kernel::SUPPORT - 1.0) * h_max;
    }
    let ghosts = exchange_ghosts(comm, &mine, pad);
    let mut work: Vec<SphParticle> = Vec::with_capacity(n_own + ghosts.len());
    work.extend(mine.iter().copied());
    work.extend(ghosts);
    if work.is_empty() {
        comm.span_exit("sph.forces");
        return (work, decomp, (h_min, h_max));
    }
    let nt = NeighborTree::build(&work);
    hydro_forces_targets(&mut work, &nt, &cfg.viscosity, n_own);
    // Force pass: the remaining ~3/5 of the per-interaction flops.
    let flops = n_own as f64 * 120.0 * 150.0;
    comm.compute(flops, (work.len() * PARTICLE_BYTES) as f64);
    comm.obs_count("sph.interactions", (n_own as u64).saturating_mul(120));
    if let Some(nu) = &cfg.neutrino {
        // Transport over the same pairs: ~60 flops per interaction.
        neutrino_transport_targets(&mut work, &nt, nu, n_own);
        let flops = n_own as f64 * 120.0 * 60.0;
        comm.compute(flops, (work.len() * PARTICLE_BYTES) as f64);
    }
    work.truncate(n_own);
    comm.span_exit("sph.forces");
    (work, decomp, (h_min, h_max))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collapse::{rotating_core, CollapseSetup};
    use crate::density::compute_density;
    use crate::forces::hydro_forces;
    use crate::neighbors::GATHER_ONLY_REACH;
    use crate::neutrino::{neutrino_transport, OWNED_SOURCES_ONLY};
    use msg::Machine;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::thread::LocalKey;

    pub(crate) fn gas_ball(n: usize, seed: u64) -> Vec<SphParticle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let r = rng.gen::<f64>().cbrt();
                let costh = rng.gen_range(-1.0..1.0f64);
                let sinth = (1.0 - costh * costh).sqrt();
                let phi = rng.gen::<f64>() * std::f64::consts::TAU;
                let mut p = SphParticle::new(
                    [r * sinth * phi.cos(), r * sinth * phi.sin(), r * costh],
                    [
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                        rng.gen_range(-0.5..0.5),
                    ],
                    1.0 / n as f64,
                    1.0,
                    i as u64,
                );
                p.h = 0.2;
                p
            })
            .collect()
    }

    /// Rank `c`'s round-robin share of `all`.
    pub(crate) fn shard_of(all: &[SphParticle], c: &Comm) -> Vec<SphParticle> {
        let mine = all.iter().skip(c.rank()).step_by(c.size()).copied();
        mine.collect()
    }

    fn serial_reference(all: &[SphParticle]) -> HashMap<u64, SphParticle> {
        let mut work = all.to_vec();
        let eos = Eos::GammaLaw { gamma: 5.0 / 3.0 };
        let nt = NeighborTree::build(&work);
        compute_density(&mut work, &nt);
        apply_eos(&mut work, &eos);
        hydro_forces(&mut work, &nt, &Viscosity::default());
        work.into_iter().map(|p| (p.id, p)).collect()
    }

    #[test]
    fn distributed_hydro_matches_serial() {
        let all = gas_ball(600, 5);
        let serial = serial_reference(&all);
        for ranks in [1usize, 2, 4] {
            let shards = msg::run(ranks, |c| {
                let mine = shard_of(&all, c);
                distributed_hydro(
                    c,
                    mine,
                    &Eos::GammaLaw { gamma: 5.0 / 3.0 },
                    &Viscosity::default(),
                    0.25,
                )
            });
            let total: usize = shards.iter().map(Vec::len).sum();
            assert_eq!(total, 600, "{ranks} ranks: lost particles");
            for shard in &shards {
                for p in shard {
                    let s = &serial[&p.id];
                    assert!(
                        (p.rho - s.rho).abs() < 1e-9 * s.rho,
                        "{ranks} ranks: rho {} vs {}",
                        p.rho,
                        s.rho
                    );
                    for d in 0..3 {
                        assert!(
                            (p.acc[d] - s.acc[d]).abs() < 1e-6 * (1.0 + s.acc[d].abs()),
                            "{ranks} ranks: acc[{d}] {} vs {}",
                            p.acc[d],
                            s.acc[d]
                        );
                    }
                    assert!((p.du_dt - s.du_dt).abs() < 1e-6 * (1.0 + s.du_dt.abs()));
                }
            }
        }
    }

    /// One `distributed_hydro` of the 600-particle rotating core (seed 5,
    /// round-robin shards) on the Space Simulator fabric.
    fn one_hydro_call(c: &mut Comm) -> Vec<SphParticle> {
        let (all, cfg) = rotating_core(&CollapseSetup {
            n_particles: 600,
            seed: 5,
            ..Default::default()
        });
        let mine = shard_of(&all, c);
        distributed_hydro(c, mine, &cfg.eos, &Viscosity::default(), 0.2)
    }

    /// FNV-1a over the bits of `(id, h, rho, pres, cs, du_dt, acc)` in id
    /// order of that call's result.
    fn hydro_digest(nranks: usize) -> u64 {
        digest_of(msg::run_with(
            Machine::space_simulator_lam(),
            nranks,
            one_hydro_call,
        ))
    }

    /// [`hydro_digest`] with `mutant` armed on every rank.
    fn mutant_digest(nranks: usize, mutant: &'static LocalKey<std::cell::Cell<bool>>) -> u64 {
        digest_of(msg::run_with(Machine::space_simulator_lam(), nranks, |c| {
            mutant.set(true);
            one_hydro_call(c)
        }))
    }

    fn digest_of(shards: Vec<Vec<SphParticle>>) -> u64 {
        let mut parts: Vec<SphParticle> = shards.into_iter().flatten().collect();
        parts.sort_by_key(|p| p.id);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in &parts {
            let [ax, ay, az] = p.acc;
            let state = [p.h, p.rho, p.pres, p.cs, p.du_dt, ax, ay, az].map(f64::to_bits);
            for word in [p.id].into_iter().chain(state) {
                for byte in word.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// `hydro_digest` pins, recorded at the last commit that evaluated
    /// density, EOS and forces at every ghost and threw those rows away
    /// (c1a2bf0).
    const HYDRO_PINS: [(usize, u64); 3] = [
        (1, 0xc8ae_ad35_2453_3a28),
        (2, 0xc8ae_ad35_2453_3a28),
        (4, 0xd800_a88c_0751_8833),
    ];

    #[test]
    fn owned_only_hydro_reproduces_full_evaluation_bit_for_bit() {
        for (nranks, want) in HYDRO_PINS {
            let got = hydro_digest(nranks);
            assert_eq!(got, want, "{nranks} ranks: digest {got:016x}");
        }
    }

    /// Teeth: a force-phase ghost pad one `h_max` short of the kernel's
    /// reach must move the pinned digest wherever ghosts exist.
    #[test]
    fn hydro_oracle_catches_a_ghost_pad_one_h_short() {
        for (nranks, want) in HYDRO_PINS.into_iter().skip(1) {
            assert_eq!(hydro_digest(nranks), want, "{nranks} ranks, no mutant");
            let got = mutant_digest(nranks, &SHORT_GHOST_PAD);
            assert_ne!(got, want, "{nranks} ranks, short pad");
        }
    }

    /// Teeth: a pair search pruned at the target's own reach, `SUPPORT·h`,
    /// fails the pair-search property and moves the pinned digest.
    #[test]
    fn pair_oracle_catches_a_gather_only_reach() {
        let parts = crate::neighbors::tests::spread_particles(150, 1);
        let violation = crate::neighbors::tests::pair_visit_violation;
        assert_eq!(violation(&parts), None, "no mutant");
        GATHER_ONLY_REACH.set(true);
        let caught = violation(&parts);
        GATHER_ONLY_REACH.set(false);
        assert!(caught.is_some(), "gather-only reach kept every pair");
        for (nranks, want) in HYDRO_PINS {
            let got = mutant_digest(nranks, &GATHER_ONLY_REACH);
            assert_ne!(got, want, "{nranks} ranks, gather-only reach");
        }
    }

    /// Worst relative deviation of an owned particle's `denu_dt` on
    /// `nranks` ranks from the full `neutrino_transport`, on the
    /// 600-particle core (seed 5) with random `enu`, with `mutant` (if
    /// any) armed on every rank.
    fn neutrino_deviation(nranks: usize, mutant: Option<&'static LocalKey<Cell<bool>>>) -> f64 {
        let (mut all, cfg) = rotating_core(&CollapseSetup {
            n_particles: 600,
            seed: 5,
            ..Default::default()
        });
        let mut rng = SmallRng::seed_from_u64(5);
        for p in &mut all {
            p.enu = rng.gen();
        }
        let mut full = all.clone();
        let nt = NeighborTree::build(&full);
        compute_density(&mut full, &nt);
        apply_eos(&mut full, &cfg.eos);
        neutrino_transport(&mut full, &nt, &cfg.neutrino.unwrap());
        let want: HashMap<u64, f64> = full.iter().map(|p| (p.id, p.denu_dt)).collect();
        let shards = msg::run(nranks, |c| {
            if let Some(m) = mutant {
                m.set(true);
            }
            hydro(c, shard_of(&all, c), &cfg, 0.2).0
        });
        let owned = shards.iter().flatten();
        assert_eq!(owned.clone().count(), 600);
        owned
            .map(|p| (p.denu_dt - want[&p.id]).abs() / want[&p.id].abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn owned_neutrino_transport_matches_the_full_evaluation() {
        for nranks in [1, 2, 4] {
            let worst = neutrino_deviation(nranks, None);
            assert!(worst <= 1e-12, "{nranks} ranks: worst {worst:e}");
        }
    }

    /// Teeth: transport that reads no ghost misses the pair terms across
    /// every rank boundary.
    #[test]
    fn neutrino_oracle_catches_a_transport_blind_to_ghosts() {
        for nranks in [2, 4] {
            assert!(neutrino_deviation(nranks, None) <= 1e-12, "{nranks} ranks");
            let worst = neutrino_deviation(nranks, Some(&OWNED_SOURCES_ONLY));
            assert!(
                worst > 1e-12,
                "{nranks} ranks, owned sources only: {worst:e}"
            );
        }
    }

    #[test]
    fn adding_ranks_shortens_the_hydro_call_on_the_virtual_clock() {
        let end_vtime = |nranks: usize| {
            let ends = msg::run_with(Machine::space_simulator_lam(), nranks, |c| {
                one_hydro_call(c);
                c.time()
            });
            ends.into_iter().fold(0.0f64, f64::max)
        };
        // With ghosts as targets this rose: 0.0102, 0.0133, 0.0136 s.
        let (t1, t2, t4) = (end_vtime(1), end_vtime(2), end_vtime(4));
        assert!(
            t2 < t1 && t4 < t2,
            "virtual s on 1/2/4 ranks: {t1} {t2} {t4}"
        );
    }

    #[test]
    fn interaction_counter_counts_owned_particles_only() {
        // 120 per owned particle per pass: the density passes (two here,
        // the first pad is too narrow for the envelope's h) and the force
        // pass. However many ghosts a rank imports, the world's total is
        // that of one rank owning everything.
        let totals = [1usize, 2, 4].map(|nranks| {
            let (_, trace) =
                msg::run_observed(Machine::space_simulator_lam(), nranks, one_hydro_call);
            trace.counter_total("sph.interactions")
        });
        assert_eq!(totals, [3 * 120 * 600; 3]);
    }

    #[test]
    fn ranks_that_own_nothing_publish_no_box() {
        // Fewer particles than ranks (yet enough for h to converge):
        // some rank owns nothing, must be sent no ghosts and must not
        // keep the others from theirs.
        let all = gas_ball(40, 13);
        let serial = serial_reference(&all);
        let shards = msg::run(48, |c| {
            let mine = shard_of(&all, c);
            let eos = Eos::GammaLaw { gamma: 5.0 / 3.0 };
            // A first pad that already spans the ball: h adapted among
            // too few ghosts would not come back down on the retry.
            distributed_hydro(c, mine, &eos, &Viscosity::default(), 2.0)
        });
        assert!(shards.iter().any(Vec::is_empty));
        let got: Vec<&SphParticle> = shards.iter().flatten().collect();
        assert_eq!(got.len(), 40);
        for p in got {
            let s = &serial[&p.id];
            assert!(
                (p.rho - s.rho).abs() <= 1e-9 * s.rho,
                "{} vs {}",
                p.rho,
                s.rho
            );
        }
    }

    #[test]
    fn ghosts_really_cross_rank_boundaries() {
        // With 2 ranks splitting a ball along Morton order, the boundary
        // region needs ghosts; run with an artificially tiny pad and
        // check the answers DEGRADE (proving ghosts matter).
        let all = gas_ball(400, 9);
        let serial = serial_reference(&all);
        let shards = msg::run(2, |c| {
            let mine = shard_of(&all, c);
            distributed_hydro(
                c,
                mine,
                &Eos::GammaLaw { gamma: 5.0 / 3.0 },
                &Viscosity::default(),
                0.001, // pad far below the true interaction range
            )
        });
        let mut worst: f64 = 0.0;
        for shard in &shards {
            for p in shard {
                let s = &serial[&p.id];
                worst = worst.max((p.rho - s.rho).abs() / s.rho);
            }
        }
        assert!(
            worst > 1e-6,
            "tiny ghost pad should have broken boundary densities (worst {worst})"
        );
    }
}

/// A fully distributed SPH simulation: hydrodynamics and neutrino
/// transport via ghost exchange, self-gravity via the distributed HOT
/// traversal on the hydro's own decomposition, global CFL timestep.
#[derive(Clone)]
pub struct DistributedSph {
    pub shard: Vec<SphParticle>,
    pub cfg: SphConfig,
    pub time: f64,
    /// The last converged global `h_max`: the next ghost pad's guess.
    pub(crate) h_hint: f64,
}

impl DistributedSph {
    /// Set up from this rank's initial shard with gravity at `theta`,
    /// `dt_max` 0.02 and the other defaults (no neutrinos), and compute
    /// the first RHS.
    pub fn new(comm: &mut Comm, shard: Vec<SphParticle>, eos: Eos, theta: f64) -> DistributedSph {
        let cfg = SphConfig {
            eos,
            gravity_theta: Some(theta),
            dt_max: 0.02,
            ..Default::default()
        };
        Self::with_config(comm, shard, cfg)
    }

    /// Set up from this rank's initial shard and compute the first RHS.
    pub fn with_config(comm: &mut Comm, shard: Vec<SphParticle>, cfg: SphConfig) -> DistributedSph {
        let mut sim = DistributedSph {
            shard: Vec::new(),
            cfg,
            time: 0.0,
            h_hint: 0.2,
        };
        sim.shard = sim.compute_rhs(comm, shard);
        sim
    }

    /// Hydro, neutrino and gravity RHS across the world; returns `parts`
    /// re-sharded. Gravity is softened at `0.5 · h_min`.
    fn compute_rhs(&mut self, comm: &mut Comm, parts: Vec<SphParticle>) -> Vec<SphParticle> {
        let (mut parts, decomp, (h_min, h_max)) = hydro(comm, parts, &self.cfg, self.h_hint);
        self.h_hint = h_max.max(1e-6);
        let Some(theta) = self.cfg.gravity_theta else {
            return parts;
        };
        let bodies: Vec<Body> = parts
            .iter()
            .map(|p| Body {
                pos: p.pos,
                vel: [0.0; 3],
                mass: p.mass,
                id: p.id,
                work: 1.0,
            })
            .collect();
        let cfg = ParallelConfig {
            gravity: GravityConfig {
                theta,
                eps: (0.5 * h_min).max(1e-6),
                ..Default::default()
            },
            ..Default::default()
        };
        // The shard is key-sorted, so the walk hands it back in order.
        let r = accelerations_on(comm, bodies, &decomp, &cfg);
        assert_eq!(r.bodies.len(), parts.len());
        for ((p, b), g) in parts.iter_mut().zip(&r.bodies).zip(&r.accel) {
            assert_eq!(p.id, b.id, "gravity out of shard order");
            for d in 0..3 {
                p.acc[d] += g.acc[d];
            }
        }
        parts
    }

    /// Global CFL timestep (allreduced minimum).
    pub fn cfl_dt(&self, comm: &mut Comm) -> f64 {
        let dt = cfl_limit(&self.shard, &self.cfg);
        comm.allreduce(dt, |a, b| a.min(*b))
    }

    /// One kick–drift–kick leapfrog step of an explicit `dt` (pass
    /// `cfl_dt` for adaptive): a half kick of `vel`, `u` and `enu`, the
    /// drift, the RHS (which re-shards), and the closing half kick.
    pub fn step(&mut self, comm: &mut Comm, dt: f64) {
        let half_kick = |parts: &mut [SphParticle]| {
            for p in parts {
                for d in 0..3 {
                    p.vel[d] += 0.5 * dt * p.acc[d];
                }
                p.u = (p.u + 0.5 * dt * p.du_dt).max(0.0);
                p.enu = (p.enu + 0.5 * dt * p.denu_dt).max(0.0);
            }
        };
        half_kick(&mut self.shard);
        for p in &mut self.shard {
            for d in 0..3 {
                p.pos[d] += dt * p.vel[d];
            }
        }
        let drifted = std::mem::take(&mut self.shard);
        self.shard = self.compute_rhs(comm, drifted);
        half_kick(&mut self.shard);
        self.time += dt;
    }
}

#[cfg(test)]
mod stepper_tests {
    use super::*;
    use crate::collapse::{rotating_core, CollapseSetup};
    use crate::integrate::SphSimulation;

    /// `gas_ball(500, 21)` after three fixed 0.004 steps of θ = 0.5
    /// gravity on `nranks` ranks, as `(id, pos)` in id order.
    fn fixed_dt_positions(nranks: usize) -> Vec<(u64, [f64; 3])> {
        let all = tests::gas_ball(500, 21);
        let shards = msg::run(nranks, |c| {
            let mine = tests::shard_of(&all, c);
            let mut sim = DistributedSph::new(c, mine, Eos::GammaLaw { gamma: 5.0 / 3.0 }, 0.5);
            for _ in 0..3 {
                sim.step(c, 0.004);
            }
            sim.shard.iter().map(|p| (p.id, p.pos)).collect::<Vec<_>>()
        });
        let mut pos: Vec<(u64, [f64; 3])> = shards.into_iter().flatten().collect();
        pos.sort_by_key(|x| x.0);
        pos
    }

    #[test]
    fn distributed_stepper_tracks_the_serial_one() {
        // The serial stepper is the one-rank case.
        let (serial_pos, dist_pos) = (fixed_dt_positions(1), fixed_dt_positions(3));
        assert_eq!(dist_pos.len(), serial_pos.len());
        let mut worst: f64 = 0.0;
        for ((_, a), (_, b)) in dist_pos.iter().zip(&serial_pos) {
            for d in 0..3 {
                worst = worst.max((a[d] - b[d]).abs());
            }
        }
        // Three ranks cut the gravity tree and order the pair sums
        // differently from one, so the bits part, but the trajectories
        // agree far inside MAC error over a few steps.
        assert!(worst < 5e-3, "worst position deviation {worst}");
    }

    /// Every particle's state as bits, in shard order.
    fn state_bits(parts: &[SphParticle]) -> Vec<u64> {
        let mut bits = Vec::new();
        for p in parts {
            let vectors = [p.pos, p.vel, p.acc].into_iter().flatten();
            let scalars = [p.h, p.rho, p.u, p.pres, p.cs, p.du_dt, p.enu, p.denu_dt];
            bits.push(p.id);
            bits.extend(vectors.chain(scalars).map(f64::to_bits));
        }
        bits
    }

    #[test]
    fn sph_simulation_is_the_one_rank_stepper() {
        let (parts, cfg) = rotating_core(&CollapseSetup {
            n_particles: 500,
            ..Default::default()
        });
        assert!(cfg.gravity_theta.is_some() && cfg.neutrino.is_some());
        let mut serial = SphSimulation::new(parts.clone(), cfg);
        for _ in 0..3 {
            serial.step();
        }
        let mut one = msg::run(1, |c| {
            let mut sim = DistributedSph::with_config(c, parts.clone(), cfg);
            for _ in 0..3 {
                let dt = sim.cfl_dt(c);
                sim.step(c, dt);
            }
            sim
        });
        let one = one.pop().unwrap();
        assert_eq!(serial.time.to_bits(), one.time.to_bits());
        assert!(state_bits(&serial.parts) == state_bits(&one.shard));
    }

    /// FNV-1a over the bits of `(id, pos, vel, acc, u, rho, enu)` in id
    /// order of `gas_ball(500, 21)` after `new` and three CFL steps on
    /// one rank.
    fn one_rank_end_state_digest() -> u64 {
        let all = tests::gas_ball(500, 21);
        let mut shards = msg::run(1, |c| {
            let mut sim =
                DistributedSph::new(c, all.clone(), Eos::GammaLaw { gamma: 5.0 / 3.0 }, 0.5);
            for _ in 0..3 {
                let dt = sim.cfl_dt(c);
                sim.step(c, dt);
            }
            sim.shard
        });
        let mut parts = shards.pop().unwrap();
        parts.sort_by_key(|p| p.id);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in &parts {
            let vectors = [p.pos, p.vel, p.acc].into_iter().flatten();
            let state = vectors.chain([p.u, p.rho, p.enu]).map(f64::to_bits);
            for word in std::iter::once(p.id).chain(state) {
                for byte in word.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Recorded when gravity softening moved from `0.5 · h_max` to the
    /// serial stepper's `0.5 · h_min` (was `019463c6fba9ddf3`).
    #[test]
    fn one_rank_stepper_end_state_is_pinned() {
        let got = one_rank_end_state_digest();
        assert_eq!(got, 0xb7cd_308b_b4d5_99b1, "digest {got:016x}");
    }

    #[test]
    fn ranks_that_own_nothing_step_with_the_rest() {
        // 40 particles on 48 ranks: most ranks own nothing and enter the
        // hydro and the gravity walk with an empty shard.
        let all = tests::gas_ball(40, 13);
        let run = |nranks: usize| {
            let shards = msg::run(nranks, |c| {
                let mine = tests::shard_of(&all, c);
                let mut sim = DistributedSph::new(c, mine, Eos::GammaLaw { gamma: 5.0 / 3.0 }, 0.5);
                sim.step(c, 0.004);
                sim.shard
            });
            assert!(nranks == 1 || shards.iter().any(Vec::is_empty));
            let mut parts: Vec<SphParticle> = shards.into_iter().flatten().collect();
            parts.sort_by_key(|p| p.id);
            parts
        };
        let (one, many) = (run(1), run(48));
        let ids = |ps: &[SphParticle]| ps.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(ids(&many), (0..40).collect::<Vec<u64>>());
        let mut worst: f64 = 0.0;
        for (a, b) in many.iter().zip(&one) {
            for d in 0..3 {
                worst = worst.max((a.pos[d] - b.pos[d]).abs());
            }
        }
        assert!(worst < 5e-3, "worst position deviation {worst}");
    }

    #[test]
    fn distributed_cfl_is_global() {
        let all = tests::gas_ball(200, 31);
        let dts = msg::run(2, |c| {
            let mine = tests::shard_of(&all, c);
            let sim = DistributedSph::new(c, mine, Eos::GammaLaw { gamma: 5.0 / 3.0 }, 0.6);
            sim.cfl_dt(c)
        });
        assert!((dts[0] - dts[1]).abs() < 1e-15, "CFL not global: {dts:?}");
        assert!(dts[0] > 0.0 && dts[0] <= 0.02);
    }
}
