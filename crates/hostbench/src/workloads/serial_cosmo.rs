//! `serial_cosmo`: no `msg` world at all — the paper's Table 6
//! "standard problem" (a sphere carved from a Zel'dovich-perturbed 64³
//! lattice, ≈137 k bodies) set up and stepped once on one thread, with a
//! `store::GenerationLog` commit after each force evaluation and both
//! generations read back. It is the plain single-threaded run of the
//! same problem class: tree build, span kernels and `store`
//! encode/decode at a size (≈10 MB of bodies) where memory traffic
//! matters, and the control on which any `msg`/`netsim`/`cluster`
//! change must predict *no change*.

use super::{by_id, Check, Digest, Metrics, RelativeRms, Rep, Workload, SMOKE_DIVISOR};
use crate::host::{process_cpu_s, thread_cpu_s};
use crate::span::Recorder;
use cosmo::integrate::CosmoSimulation;
use cosmo::sphere::standard_problem;
use hot::gravity::{p2p, Accel};
use hot::tree::Body;
use nodesim::NodeModel;
use query::Shape;
use store::{GenerationLog, StoreConfig};

pub const NAME: &str = "serial_cosmo";

/// The lattice is the next power of two, so this target yields 64³
/// sites of which the sphere keeps π/6.
const TARGET_BODIES: usize = 100_000;
const DELTA_RMS: f64 = 0.35;
const THETA: f64 = 0.7;
const EPS: f64 = 0.01;
const DT: f64 = 0.008;
/// Sustained fraction of peak of the P4/gcc gravity micro-kernel
/// (Table 5), as everywhere else in the repo.
const CPU_EFF: f64 = 790.0 / 5060.0;
const SAMPLED_TARGETS: usize = 256;
const FORCE_TOLERANCE: f64 = 3e-3;

pub struct SerialCosmo {
    ics: Vec<Body>,
    /// CPU-seconds `standard_problem` took during set-up.
    ics_cpu_s: f64,
}

pub struct Output {
    /// Bodies after the one step, as the integrator holds them.
    last: Vec<Body>,
    /// Both generations as read back from the store.
    decoded: [Vec<Body>; 2],
    interactions: u64,
}

/// CPU-seconds of each stage of one repetition.
#[derive(Default)]
struct StageCpu {
    new: f64,
    step: f64,
    commit_full: f64,
    commit_delta: f64,
    materialize: f64,
    decode: f64,
}

impl SerialCosmo {
    /// The repetition, with a span and a CPU reading around every call
    /// into a layer. The timed repetitions pass a throwaway recorder.
    fn run(&self, rec: &mut Recorder) -> (Rep<Output>, StageCpu, GenerationLog) {
        let mut cpu = StageCpu::default();
        let (mut sim, new_s) = rec.timed("cosmo.new", |_| {
            CosmoSimulation::new(self.ics.clone(), THETA, EPS, DT)
        });
        cpu.new = new_s;
        let mut log = GenerationLog::new(StoreConfig::default(), 0);
        cpu.commit_full = rec
            .timed("store.commit_full", |_| {
                log.commit(0, &sim.sim.bodies, &[]);
            })
            .1;
        cpu.step = rec.timed("cosmo.step", |_| sim.step()).1;
        cpu.commit_delta = rec
            .timed("store.commit_delta", |_| {
                log.commit(1, &sim.sim.bodies, &[]);
            })
            .1;
        let mut decoded = [Vec::new(), Vec::new()];
        for (step, slot) in decoded.iter_mut().enumerate() {
            let (snap, materialize_s) = rec.timed("store.materialize", |_| {
                log.materialize(step as u64)
                    .expect("own commit materializes")
            });
            let (bodies, decode_s) = rec.timed("store.decode_all", |_| {
                snap.decode_all().expect("own commit decodes").0
            });
            *slot = bodies;
            cpu.materialize += materialize_s;
            cpu.decode += decode_s;
        }

        let stats = sim.stats();
        let n = self.ics.len();
        // One modelled node: flops by the paper's counting convention,
        // and the body array streamed once per force evaluation.
        let bytes = (2 * n * std::mem::size_of::<Body>()) as f64;
        let vtime_s = NodeModel::space_simulator().time(stats.flops(true), bytes, CPU_EFF);
        let mut d = Digest::new();
        sim.sim.bodies.iter().for_each(|b| d.body(b));
        decoded.iter().flatten().for_each(|b| d.body(b));
        let rep = Rep {
            vtime_s,
            digest: d.finish(),
            counts: vec![
                ("hot.group_walk_ixns", stats.interactions()),
                ("store.commit_bytes", log.commit_bytes),
            ],
            output: Output {
                last: sim.sim.bodies,
                decoded,
                interactions: stats.interactions(),
            },
        };
        (rep, cpu, log)
    }
}

/// Direct-sum acceleration on body `i` of `bodies`.
fn direct_on(bodies: &[Body], i: usize) -> [f64; 3] {
    let mut out = Accel::default();
    for (j, b) in bodies.iter().enumerate() {
        if j != i {
            p2p(bodies[i].pos, b.pos, b.mass, EPS * EPS, &mut out);
        }
    }
    out.acc
}

impl Workload for SerialCosmo {
    type Output = Output;
    const NAME: &'static str = NAME;
    const DIGEST_REPEATS: bool = true;
    const VTIME_REPEATS: bool = true;

    fn setup(seed: u64, smoke: bool) -> SerialCosmo {
        let target = if smoke {
            // A 16³ lattice: the lattice side is a power of two, so the
            // divisor is applied to the site count, not the side.
            TARGET_BODIES / (2 * SMOKE_DIVISOR)
        } else {
            TARGET_BODIES
        };
        let t0 = thread_cpu_s();
        let ics = standard_problem(target, DELTA_RMS, seed);
        SerialCosmo {
            ics,
            ics_cpu_s: thread_cpu_s() - t0,
        }
    }

    fn operations(&self) -> u64 {
        // Two force evaluations over every body, two generations.
        2 * self.ics.len() as u64 + 2
    }

    fn rep(&self) -> Rep<Output> {
        self.run(&mut Recorder::new(NAME)).0
    }

    /// The forces are checked on the integrator's own output: a KDK
    /// step from `(x0, v0)` gives `x1 = x0 + dt·(v0 + dt/2·a0)` and
    /// `v1 = v0 + dt/2·(a0 + a1)`, so both force evaluations can be
    /// read back from the bodies alone and compared with a direct sum.
    fn verify(&self, out: &Output) -> Check {
        let n = self.ics.len();
        let mut check = Check::new(self.operations());
        check.require(out.last.len() == n, || {
            format!("{n} bodies in, {} out", out.last.len())
        });
        if check.failed > 0 {
            return check;
        }
        let first = by_id(&self.ics);
        let last = by_id(&out.last);

        // Generation 0 is the initial state (set-up only sorts it),
        // generation 1 the stepped one: bit-equal, row for row.
        for (step, (decoded, committed)) in out.decoded.iter().zip([&first, &last]).enumerate() {
            if &by_id(decoded) != committed {
                check.fail(
                    1,
                    format!("generation {step} read back differs from what was committed"),
                );
            }
        }

        let stride = (n / SAMPLED_TARGETS).max(1);
        let mut error = RelativeRms::default();
        for i in (0..n).step_by(stride) {
            let (b0, b1) = (&first[i], &last[i]);
            let a0: [f64; 3] =
                std::array::from_fn(|d| 2.0 * ((b1.pos[d] - b0.pos[d]) / DT - b0.vel[d]) / DT);
            let a1: [f64; 3] = std::array::from_fn(|d| 2.0 * (b1.vel[d] - b0.vel[d]) / DT - a0[d]);
            error.add(a0, direct_on(&first, i));
            error.add(a1, direct_on(&last, i));
        }
        let rms = error.value();
        check.require(rms < FORCE_TOLERANCE, || {
            format!(
                "rms relative force error {rms:e} on {} sampled bodies is not below {FORCE_TOLERANCE:e}",
                n.div_ceil(stride)
            )
        });
        check
    }

    fn trace(&self, rec: &mut Recorder, _rep_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let n = self.ics.len();
        let state_mb = (n * std::mem::size_of::<Body>()) as f64 / 1e6;

        // There is no world to observe: the traced pass is the
        // repetition itself under the recorder, which is also the
        // stage replay.
        let cpu0 = process_cpu_s();
        let (rep, cpu, log) = rec.scope("serial_cosmo.rep", |rec| self.run(rec));
        m.insert("traced_cpu_s", process_cpu_s() - cpu0);
        rec.count("hot.group_walk_ixns", rep.output.interactions);
        rec.count("store.commit_bytes", log.commit_bytes);

        // One rank, all of it useful work.
        for (name, value) in [
            ("msg.sends", 0.0),
            ("msg.bytes_sent", 0.0),
            ("msg.wait_vs", 0.0),
            ("msg.cp_wait_vs", 0.0),
            ("netsim.messages", 0.0),
            ("netsim.cp_wire_vs", 0.0),
            ("nodesim.cp_work_vs", rep.vtime_s),
            ("obs.analysis_cpu_s", 0.0),
            ("obs.spans", 0.0),
            ("obs.parallel_efficiency", 1.0),
            ("obs.transfer_efficiency", 1.0),
            ("obs.serialization_efficiency", 1.0),
            ("hot.parallel_ixns", 0.0),
            ("hot.parallel_requests", 0.0),
            ("hot.parallel_deferred", 0.0),
            ("hot.parallel_resumed", 0.0),
        ] {
            m.insert(name, value);
        }

        m.insert("cosmo.standard_problem_cpu_s", self.ics_cpu_s);
        m.insert("cosmo.step_cpu_s", cpu.step);
        m.insert("store.commit_full_mb_s", state_mb / cpu.commit_full);
        m.insert("store.commit_delta_mb_s", state_mb / cpu.commit_delta);
        m.insert(
            "store.materialize_mb_s",
            2.0 * state_mb / (cpu.materialize + cpu.decode),
        );
        m.insert(
            "store.incremental_ratio",
            log.full_bytes as f64 / log.commit_bytes as f64,
        );
        m.insert("store.commit_bytes", log.commit_bytes as f64);

        // Predicate pushdown: the share of cells a fixed region query
        // has to decode after pruning on the footer index alone.
        let snap = log.materialize(1).expect("own commit materializes");
        let region = Shape::Ball {
            center: [0.3, 0.2, 0.1],
            radius: 0.25,
        };
        let kept = rec.scope("store.prune", |_| {
            snap.prune(|center, half| !region.certainly_outside(center, half))
        });
        rec.count("store.cells", snap.cells.len() as u64);
        rec.count("store.cells_read", kept.len() as u64);
        m.insert(
            "store.pushdown_cells_read_frac",
            kept.len() as f64 / snap.cells.len().max(1) as f64,
        );

        m.insert(
            "layer_cpu_s",
            cpu.new + cpu.step + cpu.commit_full + cpu.commit_delta + cpu.materialize + cpu.decode,
        );
        m
    }
}
