//! `hot_distributed4`: the benchmark's own 4-rank program on the
//! two-switch Space Simulator fabric — round-robin shards of a Plummer
//! sphere into `hot::parallel::parallel_accelerations`, the Table 6 path
//! of `cluster::treecode_run::measured_run`, called directly so the
//! forces come back. The only workload where deferred walks, `msg::abm`
//! batching, Safra termination and the *contended* `netsim` fabric do
//! the work and the group-walk engine does none.

use super::{
    observed_pass, round_robin, scaled, Check, Digest, Metrics, RelativeRms, Rep, Workload,
};
use crate::host::thread_cpu_s;
use crate::span::Recorder;
use hot::direct_accelerations;
use hot::domain::decompose;
use hot::gravity::Accel;
use hot::models::plummer;
use hot::parallel::{parallel_accelerations, ParallelConfig};
use hot::tree::Body;
use msg::{Comm, Machine};

pub const NAME: &str = "hot_distributed4";

const BODIES: usize = 8192;
const RANKS: usize = 4;
/// The repo's own `tests/force_accuracy.rs` tolerance at θ = 0.6.
const FORCE_TOLERANCE: f64 = 3e-3;

pub struct HotDistributed {
    bodies: Vec<Body>,
    machine: Machine,
    cfg: ParallelConfig,
}

pub struct Output {
    /// `(body id, force)` over all ranks, sorted by id.
    forces: Vec<(u64, Accel)>,
}

struct RankOut {
    forces: Vec<(u64, Accel)>,
    interactions: u64,
    requests: u64,
    sends: u64,
    vtime: f64,
}

impl HotDistributed {
    fn rank_program(&self, comm: &mut Comm) -> RankOut {
        let mine = round_robin(&self.bodies, comm.rank(), comm.size());
        let r = parallel_accelerations(comm, mine, &self.cfg);
        RankOut {
            forces: r.bodies.iter().map(|b| b.id).zip(r.accel).collect(),
            interactions: r.stats.interactions(),
            requests: r.requests,
            sends: comm.stats().sends,
            vtime: r.vtime,
        }
    }

    fn collect(outs: Vec<RankOut>) -> Rep<Output> {
        let vtime_s = outs.iter().map(|o| o.vtime).fold(0.0, f64::max);
        let counts = vec![
            (
                "hot.parallel_ixns",
                outs.iter().map(|o| o.interactions).sum(),
            ),
            (
                "hot.parallel_requests",
                outs.iter().map(|o| o.requests).sum(),
            ),
            ("msg.sends", outs.iter().map(|o| o.sends).sum()),
        ];
        let mut forces: Vec<(u64, Accel)> = outs.into_iter().flat_map(|o| o.forces).collect();
        forces.sort_by_key(|f| f.0);
        let mut d = Digest::new();
        for (id, a) in &forces {
            d.u64(*id);
            d.f64s(&a.acc);
            d.f64(a.pot);
        }
        Rep {
            vtime_s,
            digest: d.finish(),
            counts,
            output: Output { forces },
        }
    }
}

impl Workload for HotDistributed {
    type Output = Output;
    const NAME: &'static str = NAME;
    // Forces and interaction counts repeat; requests, sends and the
    // virtual clock drift with the host's delivery order (ROADMAP item
    // 1), so the digest covers forces only and vtime is not pinned.
    const DIGEST_REPEATS: bool = true;
    const VTIME_REPEATS: bool = false;

    fn setup(seed: u64, smoke: bool) -> HotDistributed {
        HotDistributed {
            bodies: plummer(scaled(BODIES, smoke), seed),
            machine: Machine::space_simulator_lam(),
            cfg: ParallelConfig::default(),
        }
    }

    fn operations(&self) -> u64 {
        self.bodies.len() as u64
    }

    fn rep(&self) -> Rep<Output> {
        self.machine.fabric.reset();
        let outs = msg::run_with(self.machine.clone(), RANKS, |c| self.rank_program(c));
        Self::collect(outs)
    }

    fn verify(&self, out: &Output) -> Check {
        let mut check = Check::new(self.operations());
        let ids_match = out.forces.len() == self.bodies.len()
            && out
                .forces
                .iter()
                .zip(&self.bodies)
                .all(|(f, b)| f.0 == b.id);
        check.require(ids_match, || {
            format!(
                "forces came back for {} of {} bodies, or for the wrong ids",
                out.forces.len(),
                self.bodies.len()
            )
        });
        if check.failed == 0 {
            // `plummer` numbers its bodies in order, so the direct sum
            // over the inputs lines up with the id-sorted forces.
            let exact = direct_accelerations(&self.bodies, self.cfg.gravity.eps);
            let mut error = RelativeRms::default();
            for ((_, got), want) in out.forces.iter().zip(&exact) {
                error.add(got.acc, want.acc);
            }
            let rms = error.value();
            // A NaN force makes the comparison false and so fails.
            check.require(rms < FORCE_TOLERANCE, || {
                format!("rms relative force error {rms:e} is not below {FORCE_TOLERANCE:e}")
            });
        }
        check
    }

    fn trace(&self, rec: &mut Recorder, _rep_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let n = self.bodies.len();

        self.machine.fabric.reset();
        observed_pass(rec, &mut m, "msg.run_observed", || {
            msg::run_observed(self.machine.clone(), RANKS, |c| self.rank_program(c))
        });

        // Stage replay inside the benchmark's own rank closure: the
        // decomposition alone, then the whole call; the walk is the
        // difference. CPU-seconds are per rank thread, summed.
        self.machine.fabric.reset();
        let per_rank = rec.scope("hot.parallel_replay", |_| {
            msg::run_with(self.machine.clone(), RANKS, |c| {
                let mine = round_robin(&self.bodies, c.rank(), c.size());
                let t0 = thread_cpu_s();
                std::hint::black_box(decompose(c, mine.clone()));
                let t1 = thread_cpu_s();
                std::hint::black_box(parallel_accelerations(c, mine, &self.cfg).accel);
                (t1 - t0, thread_cpu_s() - t1)
            })
        });
        let decompose_s: f64 = per_rank.iter().map(|t| t.0).sum();
        let whole_s: f64 = per_rank.iter().map(|t| t.1).sum();
        m.insert("hot.decompose_cpu_s", decompose_s);
        m.insert(
            "hot.parallel_walk_us_per_body",
            (whole_s - decompose_s).max(0.0) * 1e6 / n as f64,
        );
        m.insert("layer_cpu_s", whole_s);
        m
    }
}
