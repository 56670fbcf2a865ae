//! `treecode_replicated16`: the golden `treecode16` scenario of
//! `bench_report` and `scaling_sweep` at benchmark size. Every one of
//! the 16 simulated ranks rebuilds the tree and re-walks all stripes, so
//! `hot` tree build and group walk dominate and are paid 16 times, with
//! the `msg` allgather and `ckpt` framing as the minority. The fabric is
//! an ideal crossbar, on which virtual time is an exact check.

use super::{by_id, observed_pass, scaled, Check, Digest, Metrics, Rep, Workload};
use crate::host::process_cpu_s;
use crate::span::Recorder;
use cluster::chaos::{run_treecode, run_treecode_traced, ChaosConfig, ChaosReport};
use cluster::golden_ics;
use hot::gravity::GravityConfig;
use hot::integrate::Simulation;
use hot::traverse::group_accelerations;
use hot::tree::{Body, Tree};
use msg::{FaultPlan, Machine, RetransmitConfig};

pub const NAME: &str = "treecode_replicated16";

const BODIES: usize = 2048;
const RANKS: usize = 16;
const STEPS: u64 = 4;
const DT: f64 = 0.01;

pub struct Treecode {
    ics: Vec<Body>,
    machine: Machine,
    plan: FaultPlan,
    chaos: ChaosConfig,
    gravity: GravityConfig,
}

pub struct Output {
    bodies: Vec<Body>,
    report: ChaosReport,
}

impl Treecode {
    fn run(&self, ranks: usize) -> (Vec<Body>, ChaosReport) {
        run_treecode(
            &self.machine,
            ranks,
            &self.plan,
            &self.chaos,
            self.ics.clone(),
            &self.gravity,
            STEPS,
            DT,
        )
    }
}

impl Workload for Treecode {
    type Output = Output;
    const NAME: &'static str = NAME;
    const DIGEST_REPEATS: bool = true;
    const VTIME_REPEATS: bool = true;

    fn setup(seed: u64, smoke: bool) -> Treecode {
        Treecode {
            ics: golden_ics(scaled(BODIES, smoke), seed),
            machine: Machine::ideal(RANKS as u32),
            plan: FaultPlan::none(11).with_retransmit(RetransmitConfig::deterministic()),
            chaos: ChaosConfig {
                checkpoint_every: 2,
                ..Default::default()
            },
            gravity: GravityConfig {
                theta: 0.6,
                eps: 0.05,
                ..Default::default()
            },
        }
    }

    fn operations(&self) -> u64 {
        STEPS * self.ics.len() as u64
    }

    fn rep(&self) -> Rep<Output> {
        self.machine.fabric.reset();
        let (bodies, report) = self.run(RANKS);
        let mut d = Digest::new();
        for b in &bodies {
            d.body(b);
        }
        Rep {
            vtime_s: report.final_vtime,
            digest: d.finish(),
            counts: vec![
                ("ckpt.commits", report.commits),
                ("ckpt.checkpoint_bytes", report.checkpoint_bytes as u64),
            ],
            output: Output { bodies, report },
        }
    }

    /// The house invariant: physics is bit-identical across rank counts,
    /// so a 1-rank run of the same ICs is the reference.
    fn verify(&self, out: &Output) -> Check {
        let mut check = Check::new(self.operations());
        check.require(out.report.completed && out.report.restarts == 0, || {
            format!("run did not complete cleanly: {:?}", out.report)
        });
        check.require(out.bodies.len() == self.ics.len(), || {
            format!("{} bodies in, {} out", self.ics.len(), out.bodies.len())
        });
        if check.failed == 0 {
            self.machine.fabric.reset();
            let (reference, _) = self.run(1);
            let differing = by_id(&out.bodies)
                .iter()
                .zip(&by_id(&reference))
                .filter(|(a, b)| a != b)
                .count() as u64;
            if differing > 0 {
                check.fail(
                    STEPS * differing,
                    format!("{differing} bodies differ from the 1-rank run"),
                );
            }
        }
        check
    }

    fn trace(&self, rec: &mut Recorder, rep_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let n = self.ics.len();

        // Observed pass: the program's own virtual-clock spans.
        self.machine.fabric.reset();
        observed_pass(rec, &mut m, "cluster.run_treecode_traced", || {
            let (_, _, trace) = run_treecode_traced(
                &self.machine,
                RANKS,
                &self.plan,
                &self.chaos,
                self.ics.clone(),
                &self.gravity,
                STEPS,
                DT,
            );
            ((), trace.expect("a completed traced run yields a trace"))
        });

        // Stage replay, one public call per layer, on the same ICs.
        let (tree, build_s) = rec.timed("hot.tree_build", |_| {
            Tree::build(self.ics.clone(), self.gravity.leaf_max)
        });
        m.insert("hot.tree_build_ns_per_body", build_s * 1e9 / n as f64);
        let ((_, stats), walk_s) = rec.timed("hot.group_walk", |_| {
            group_accelerations(&tree, &self.gravity)
        });
        let ixns = stats.interactions();
        rec.count("hot.group_walk_ixns", ixns);
        m.insert("hot.group_walk_ixns", ixns as f64);
        m.insert("hot.group_walk_ns_per_ixn", walk_s * 1e9 / ixns as f64);

        // The same steps in a bare serial integrator: what one replica
        // costs without the cluster around it.
        let (mut sim, new_s) = rec.timed("hot.serial_new", |_| {
            Simulation::new(self.ics.clone(), self.gravity, DT)
        });
        let ((), steps_s) = rec.timed("hot.serial_steps", |rec| {
            for _ in 0..STEPS {
                rec.scope("hot.serial_step", |_| sim.step());
            }
        });
        std::hint::black_box(&sim.bodies);
        m.insert("hot.serial_step_cpu_s", steps_s / STEPS as f64);
        m.insert("cluster.step_cpu_ms", rep_cpu_s * 1e3 / STEPS as f64);
        m.insert("cluster.replication_factor", rep_cpu_s / steps_s);

        // The exchange in the workload's shape: one stripe of n/16
        // accelerations (32 B each) per rank, allgathered.
        let stripe = n / RANKS;
        let rounds = 64;
        let (host_s, vtime_s) = rec.scope("msg.allgather16", |_| {
            let cpu0 = process_cpu_s();
            let ends = msg::run_with(Machine::ideal(RANKS as u32), RANKS, |c| {
                let mine = vec![[c.rank() as f64; 4]; stripe];
                for _ in 0..rounds {
                    std::hint::black_box(c.allgather(mine.clone()));
                }
                c.time()
            });
            let vtime = ends.into_iter().fold(0.0, f64::max);
            (process_cpu_s() - cpu0, vtime)
        });
        m.insert("msg.allgather16_host_us", host_s * 1e6 / rounds as f64);
        m.insert("msg.allgather16_vtime_us", vtime_s * 1e6 / rounds as f64);

        // One repetition is the initial forces once, then 16 replicas
        // of the bare integrator's steps.
        m.insert("layer_cpu_s", new_s + steps_s * RANKS as f64);
        m
    }
}
