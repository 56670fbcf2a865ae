//! `sph_collapse4`: the supernova half of the paper — the rotating core
//! of Figure 8 sharded round-robin over 4 ranks of the two-switch
//! fabric and advanced five CFL steps by `sph::parallel::DistributedSph`.
//! It drives the same `hot::parallel` walk as `hot_distributed4`, but as
//! six short calls on a centrally condensed core instead of one long
//! call, plus ghost exchange through `alltoallv`/sample sort and the
//! `sph` density and force kernels — so a walk optimisation tuned for
//! one long phase that costs start-up per call shows as a loss here.

use super::{observed_pass, round_robin, scaled, Check, Digest, Metrics, Rep, Workload};
use crate::host::thread_cpu_s;
use crate::span::Recorder;
use msg::{Comm, Machine};
use sph::collapse::{rotating_core, CollapseSetup};
use sph::density::compute_density;
use sph::forces::{add_gravity, apply_eos, hydro_forces};
use sph::neighbors::NeighborTree;
use sph::neutrino::neutrino_transport;
use sph::parallel::{distributed_hydro, DistributedSph};
use sph::{SphConfig, SphParticle, SphSimulation};

pub const NAME: &str = "sph_collapse4";

const PARTICLES: usize = 2000;
const RANKS: usize = 4;
const STEPS: usize = 5;
const THETA: f64 = 0.6;
/// The tolerance of the crate's own
/// `distributed_stepper_tracks_the_serial_one`.
const POSITION_TOLERANCE: f64 = 5e-3;

pub struct SphCollapse {
    parts: Vec<SphParticle>,
    cfg: SphConfig,
    machine: Machine,
}

pub struct Output {
    /// All ranks' particles after the last step, sorted by id.
    parts: Vec<SphParticle>,
    /// The global CFL timestep each step took.
    dts: Vec<f64>,
}

struct RankOut {
    shard: Vec<SphParticle>,
    dts: Vec<f64>,
    vtime: f64,
    sends: u64,
}

impl SphCollapse {
    /// `dts`: `None` steps at the CFL limit, `Some` replays given steps.
    fn rank_program(&self, comm: &mut Comm, dts: Option<&[f64]>) -> RankOut {
        let mine = round_robin(&self.parts, comm.rank(), comm.size());
        let mut sim = DistributedSph::new(comm, mine, self.cfg.eos, THETA);
        let mut taken = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            let dt = match dts {
                Some(dts) => dts[step],
                None => sim.cfl_dt(comm),
            };
            sim.step(comm, dt);
            taken.push(dt);
        }
        RankOut {
            shard: sim.shard,
            dts: taken,
            vtime: comm.time(),
            sends: comm.stats().sends,
        }
    }

    fn collect(outs: Vec<RankOut>) -> Rep<Output> {
        let vtime_s = outs.iter().map(|o| o.vtime).fold(0.0, f64::max);
        let sends = outs.iter().map(|o| o.sends).sum();
        let dts = outs[0].dts.clone();
        let mut parts: Vec<SphParticle> = outs.into_iter().flat_map(|o| o.shard).collect();
        parts.sort_by_key(|p| p.id);
        let mut d = Digest::new();
        for p in &parts {
            d.u64(p.id);
            d.f64s(&p.pos);
            d.f64s(&p.vel);
            d.f64(p.rho);
            d.f64(p.u);
        }
        Rep {
            vtime_s,
            digest: d.finish(),
            counts: vec![("msg.sends", sends)],
            output: Output { parts, dts },
        }
    }
}

impl Workload for SphCollapse {
    type Output = Output;
    const NAME: &'static str = NAME;
    const DIGEST_REPEATS: bool = false;
    const VTIME_REPEATS: bool = false;

    fn setup(seed: u64, smoke: bool) -> SphCollapse {
        let (parts, cfg) = rotating_core(&CollapseSetup {
            n_particles: scaled(PARTICLES, smoke),
            seed,
            ..Default::default()
        });
        SphCollapse {
            parts,
            cfg,
            machine: Machine::space_simulator_lam(),
        }
    }

    fn operations(&self) -> u64 {
        (STEPS * self.parts.len()) as u64
    }

    fn rep(&self) -> Rep<Output> {
        self.machine.fabric.reset();
        let outs = msg::run_with(self.machine.clone(), RANKS, |c| self.rank_program(c, None));
        Self::collect(outs)
    }

    /// Conservation and sanity on every particle, and the trajectory
    /// against a 1-rank run fed the same five timesteps.
    fn verify(&self, out: &Output) -> Check {
        let mut check = Check::new(self.operations());
        let ids_conserved = out.parts.len() == self.parts.len()
            && out.parts.iter().zip(&self.parts).all(|(a, b)| a.id == b.id);
        check.require(ids_conserved && out.dts.len() == STEPS, || {
            format!(
                "{} particles in, {} out (or ids changed); {} steps taken",
                self.parts.len(),
                out.parts.len(),
                out.dts.len()
            )
        });
        if check.failed > 0 {
            return check;
        }
        self.machine.fabric.reset();
        let reference = Self::collect(msg::run_with(self.machine.clone(), 1, |c| {
            self.rank_program(c, Some(&out.dts))
        }));
        let mut bad = 0u64;
        let mut worst: f64 = 0.0;
        for (p, r) in out.parts.iter().zip(&reference.output.parts) {
            let sane = p.rho.is_finite() && p.rho > 0.0 && p.u.is_finite();
            let deviation = (0..3)
                .map(|d| (p.pos[d] - r.pos[d]).abs())
                .fold(0.0, f64::max);
            worst = worst.max(deviation);
            // A NaN deviation makes the comparison false and so fails.
            let on_track = deviation < POSITION_TOLERANCE;
            if !(sane && on_track) {
                bad += 1;
            }
        }
        if bad > 0 {
            check.fail(
                STEPS as u64 * bad,
                format!("{bad} particles are unphysical or off the 1-rank trajectory (worst deviation {worst:e})"),
            );
        }
        check
    }

    fn trace(&self, rec: &mut Recorder, _rep_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let n = self.parts.len() as f64;

        self.machine.fabric.reset();
        observed_pass(rec, &mut m, "msg.run_observed", || {
            msg::run_observed(self.machine.clone(), RANKS, |c| self.rank_program(c, None))
        });

        // Stage replay: the five public stages of the serial right-hand
        // side, on all particles at once.
        let mut parts = self.parts.clone();
        let (nt, s) = rec.timed("sph.neighbor_build", |_| NeighborTree::build(&parts));
        m.insert("sph.neighbor_build_ns_per_particle", s * 1e9 / n);
        let ((), s) = rec.timed("sph.density", |_| compute_density(&mut parts, &nt));
        m.insert("sph.density_ns_per_particle", s * 1e9 / n);
        apply_eos(&mut parts, &self.cfg.eos);
        let ((), s) = rec.timed("sph.hydro_forces", |_| {
            hydro_forces(&mut parts, &nt, &self.cfg.viscosity)
        });
        m.insert("sph.hydro_forces_ns_per_particle", s * 1e9 / n);
        let eps = 0.5 * parts.iter().map(|p| p.h).fold(f64::INFINITY, f64::min);
        let ((), s) = rec.timed("sph.gravity", |_| {
            add_gravity(&mut parts, &nt, THETA, eps.max(1e-6))
        });
        m.insert("sph.gravity_ns_per_particle", s * 1e9 / n);
        let neutrino = self
            .cfg
            .neutrino
            .expect("the collapse problem has neutrinos");
        let ((), s) = rec.timed("sph.neutrino", |_| {
            neutrino_transport(&mut parts, &nt, &neutrino)
        });
        m.insert("sph.neutrino_ns_per_particle", s * 1e9 / n);

        let ((), s) = rec.timed("sph.serial_step", |_| {
            let mut sim = SphSimulation::new(self.parts.clone(), self.cfg);
            sim.step();
            std::hint::black_box(&sim.parts);
        });
        // `new` evaluates the right-hand side once and `step` once more.
        m.insert("sph.serial_step_us_per_particle", s * 1e6 / (2.0 * n));

        // The distributed hydro stage alone, timed inside the
        // benchmark's own rank closure and summed over ranks.
        self.machine.fabric.reset();
        let hydro_s: f64 = rec.scope("sph.distributed_hydro", |_| {
            msg::run_with(self.machine.clone(), RANKS, |c| {
                let mine = round_robin(&self.parts, c.rank(), c.size());
                let t0 = thread_cpu_s();
                std::hint::black_box(distributed_hydro(
                    c,
                    mine,
                    &self.cfg.eos,
                    &self.cfg.viscosity,
                    0.2,
                ));
                thread_cpu_s() - t0
            })
            .into_iter()
            .sum()
        });
        m.insert("sph.distributed_hydro_cpu_s", hydro_s);
        // A repetition evaluates the distributed right-hand side once
        // per step plus once at construction; the gravity walk inside it
        // belongs to `hot` and is replayed by `hot_distributed4`.
        m.insert("layer_cpu_s", hydro_s * (STEPS + 1) as f64);
        m
    }
}
