//! The five workloads. Each drives the program through its public entry
//! points only, on inputs generated from the seed, and carries the
//! oracle its outputs are checked against. Why each was chosen, and
//! which layer does most and least of its work, is in the README.

use crate::span::Recorder;
use hot::tree::Body;
use std::collections::BTreeMap;

pub mod hot_distributed;
pub mod query_service;
pub mod serial_cosmo;
pub mod sph_collapse;
pub mod treecode;

pub const NAMES: [&str; 5] = [
    treecode::NAME,
    hot_distributed::NAME,
    query_service::NAME,
    serial_cosmo::NAME,
    sph_collapse::NAME,
];

/// `--smoke` divides every size by this, so the unit tests can run all
/// five workloads and their oracles in a few seconds.
pub const SMOKE_DIVISOR: usize = 32;

pub fn scaled(n: usize, smoke: bool) -> usize {
    if smoke {
        n / SMOKE_DIVISOR
    } else {
        n
    }
}

/// What one repetition produced.
pub struct Rep<O> {
    /// End virtual time of the modelled 2003 machine.
    pub vtime_s: f64,
    /// 64-bit digest of the output bits that must repeat across reps.
    pub digest: u64,
    /// Counts read from the program's own counters (exact on the
    /// crossbar workloads).
    pub counts: Vec<(&'static str, u64)>,
    pub output: O,
}

/// The oracle's verdict on one repetition's full output.
#[derive(Debug, Default, PartialEq)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Check {
    pub fn new(attempted: u64) -> Check {
        Check {
            attempted,
            ..Default::default()
        }
    }

    /// Record `failed` failed operations out of the attempted ones.
    pub fn fail(&mut self, failed: u64, note: String) {
        self.failed = (self.failed + failed).min(self.attempted);
        self.notes.push(note);
    }

    /// A check that covers the whole repetition: if it does not hold,
    /// every operation counts as failed.
    pub fn require(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.fail(self.attempted, note());
        }
    }
}

/// Per-layer numbers of one workload's traced pass, by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    type Output;
    const NAME: &'static str;
    /// The output digest is a pure function of the input: every
    /// repetition must reproduce it bit for bit.
    const DIGEST_REPEATS: bool;
    /// So is the virtual end time (crossbar and serial workloads only:
    /// the contended fabric arbitrates in host arrival order).
    const VTIME_REPEATS: bool;

    /// Generate the inputs from the seed and build the machine.
    fn setup(seed: u64, smoke: bool) -> Self;
    /// Operations one repetition attempts.
    fn operations(&self) -> u64;
    /// One repetition through the program's public entry point.
    fn rep(&self) -> Rep<Self::Output>;
    /// Check a repetition's full output against the reference.
    fn verify(&self, output: &Self::Output) -> Check;
    /// The traced pass: one observed repetition for the virtual-clock
    /// spans and counters, then a replay of the workload's stages, one
    /// public call per layer, under `rec`. `rep_cpu_s` is the median
    /// CPU cost of an untraced repetition. Returns the per-layer
    /// metrics this workload owns plus two the driver folds into the
    /// `obs.*` and `run.*` rows: `traced_cpu_s`, the CPU-seconds of the
    /// observed repetition, and `layer_cpu_s`, the replayed stages'
    /// CPU-seconds scaled to one repetition.
    fn trace(&self, rec: &mut Recorder, rep_cpu_s: f64) -> Metrics;
}

/// FNV-1a over 64-bit words: cheap, order-sensitive, and dependency
/// free. It guards against accidental divergence, not adversaries.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.f64(x);
        }
    }

    pub fn body(&mut self, b: &Body) {
        self.u64(b.id);
        self.f64s(&b.pos);
        self.f64s(&b.vel);
        self.f64(b.mass);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Root-mean-square error of a set of vectors, relative to the rms of
/// the reference vectors: the force-accuracy figure of
/// `tests/force_accuracy.rs`. NaN as soon as one component is.
#[derive(Default)]
pub struct RelativeRms {
    error2: f64,
    reference2: f64,
}

impl RelativeRms {
    pub fn add(&mut self, got: [f64; 3], want: [f64; 3]) {
        for d in 0..3 {
            self.error2 += (got[d] - want[d]).powi(2);
            self.reference2 += want[d].powi(2);
        }
    }

    pub fn value(&self) -> f64 {
        (self.error2 / self.reference2).sqrt()
    }
}

/// Rank `rank`'s round-robin shard of `all`.
pub fn round_robin<T: Copy>(all: &[T], rank: usize, size: usize) -> Vec<T> {
    all.iter().skip(rank).step_by(size).copied().collect()
}

/// Copy of `bodies` sorted by id, the order outputs are compared in.
pub fn by_id(bodies: &[Body]) -> Vec<Body> {
    let mut v = bodies.to_vec();
    v.sort_by_key(|b| b.id);
    v
}

/// The observed pass of a `msg` workload: `world` runs the workload once
/// through the program's own observed entry point, under a host span
/// named `entry` that adopts the virtual-clock spans it recorded. Fills
/// in `traced_cpu_s` and every observed per-layer row.
pub fn observed_pass<T>(
    rec: &mut Recorder,
    m: &mut Metrics,
    entry: &str,
    world: impl FnOnce() -> (T, obs::WorldTrace),
) -> (T, obs::WorldTrace) {
    let cpu0 = crate::host::process_cpu_s();
    let (out, trace) = rec.scope(entry, |rec| {
        let (out, trace) = world();
        rec.adopt_world_trace(&trace);
        (out, trace)
    });
    m.insert("traced_cpu_s", crate::host::process_cpu_s() - cpu0);
    let ((), analysis_s) = rec.timed("obs.analysis", |_| world_metrics(&trace, m));
    m.insert("obs.analysis_cpu_s", analysis_s);
    rec.count(
        "walk.interactions",
        trace.counter_total("walk.interactions"),
    );
    rec.count("msg.sends", trace.counter_total("msg.sends"));
    (out, trace)
}

/// The virtual-clock per-layer numbers every `msg` world reports, from
/// the program's own observed trace: counters, the critical path split
/// by layer, and the POP efficiency factors.
fn world_metrics(trace: &obs::WorldTrace, m: &mut Metrics) {
    let cp = obs::critical_path(trace);
    let eff = obs::efficiency(trace, &cp);
    m.insert("msg.sends", trace.counter_total("msg.sends") as f64);
    m.insert(
        "msg.bytes_sent",
        trace.counter_total("msg.bytes_sent") as f64,
    );
    m.insert(
        "msg.wait_vs",
        trace
            .ranks
            .iter()
            .filter_map(|r| r.metrics.gauge("vt.wait_s"))
            .sum(),
    );
    m.insert("msg.cp_wait_vs", cp.wait_s());
    m.insert(
        "netsim.messages",
        trace.ranks.iter().flat_map(|r| r.class_msgs).sum::<u64>() as f64,
    );
    m.insert("netsim.cp_wire_vs", cp.wire_total_s());
    m.insert("nodesim.cp_work_vs", cp.work_s());
    m.insert(
        "obs.spans",
        trace.ranks.iter().map(|r| r.spans.len()).sum::<usize>() as f64,
    );
    m.insert("obs.parallel_efficiency", eff.parallel_efficiency);
    m.insert("obs.transfer_efficiency", eff.transfer_efficiency);
    m.insert("obs.serialization_efficiency", eff.serialization_efficiency);
    for (metric, counter) in [
        ("hot.parallel_ixns", "walk.interactions"),
        ("hot.parallel_requests", "walk.requests"),
        ("hot.parallel_deferred", "walk.deferred"),
        ("hot.parallel_resumed", "walk.resumed"),
    ] {
        m.insert(metric, trace.counter_total(counter) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.u64(1);
        c.u64(2);
        assert_eq!(a.finish(), c.finish());
        // -0.0 and 0.0 are different outputs.
        let (mut p, mut n) = (Digest::new(), Digest::new());
        p.f64(0.0);
        n.f64(-0.0);
        assert_ne!(p.finish(), n.finish());
    }

    #[test]
    fn round_robin_partitions() {
        let all: Vec<u32> = (0..10).collect();
        let mut seen: Vec<u32> = (0..4).flat_map(|r| round_robin(&all, r, 4)).collect();
        assert_eq!(round_robin(&all, 1, 4), vec![1, 5, 9]);
        seen.sort_unstable();
        assert_eq!(seen, all);
    }

    /// The `--smoke` pass: set-up, one repetition, its oracle, a second
    /// repetition for the repeat-exactly contract, and the traced pass,
    /// at 1/32 of the benchmark's sizes.
    fn smoke<W: Workload>() {
        let w = W::setup(7, true);
        let rep = w.rep();
        let check = w.verify(&rep.output);
        assert_eq!(check.attempted, w.operations(), "{}", W::NAME);
        assert_eq!(check.failed, 0, "{}: {:?}", W::NAME, check.notes);
        assert!(rep.vtime_s > 0.0 && rep.vtime_s.is_finite());

        let again = w.rep();
        if W::DIGEST_REPEATS {
            assert_eq!(again.digest, rep.digest, "{}", W::NAME);
        }
        if W::VTIME_REPEATS {
            assert_eq!(
                again.vtime_s.to_bits(),
                rep.vtime_s.to_bits(),
                "{}",
                W::NAME
            );
            assert_eq!(again.counts, rep.counts, "{}", W::NAME);
        }
        // Another seed is another input.
        assert_ne!(W::setup(8, true).rep().digest, rep.digest, "{}", W::NAME);

        let mut rec = Recorder::new(W::NAME);
        let m = w.trace(&mut rec, 1.0);
        for key in ["traced_cpu_s", "layer_cpu_s"] {
            assert!(m[key] > 0.0, "{}: {key} = {}", W::NAME, m[key]);
        }
        for layer in &crate::metrics::PER_LAYER {
            let mine = match layer.source {
                crate::metrics::Source::Replay(owner) => owner == W::NAME,
                crate::metrics::Source::Observed => true,
                _ => false,
            };
            if mine {
                let v = m.get(layer.name).copied();
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{}: {} = {v:?}",
                    W::NAME,
                    layer.name
                );
            }
        }
        assert!(rec.spans.iter().all(|s| s.end >= s.start));
        assert!(rec.spans.iter().any(|s| s.parent.is_some()));
    }

    #[test]
    fn smoke_treecode_replicated16() {
        smoke::<treecode::Treecode>();
    }

    #[test]
    fn smoke_hot_distributed4() {
        smoke::<hot_distributed::HotDistributed>();
    }

    #[test]
    fn smoke_query_service16() {
        smoke::<query_service::QueryService>();
    }

    #[test]
    fn smoke_serial_cosmo() {
        smoke::<serial_cosmo::SerialCosmo>();
    }

    #[test]
    fn smoke_sph_collapse4() {
        smoke::<sph_collapse::SphCollapse>();
    }

    #[test]
    fn smoke_layers_produce_their_metrics() {
        let cal = crate::layers::calibration(7, true);
        let mut rec = Recorder::new("layers");
        let generic = crate::layers::replay(&mut rec, 7, true);
        for layer in &crate::metrics::PER_LAYER {
            let from = match layer.source {
                crate::metrics::Source::Calibration => &cal,
                crate::metrics::Source::Generic => &generic,
                _ => continue,
            };
            let v = from.get(layer.name).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{} = {v:?}",
                layer.name
            );
        }
    }

    #[test]
    fn whole_rep_checks_fail_every_operation() {
        let mut c = Check::new(10);
        c.fail(3, "three".into());
        assert_eq!(c.failed, 3);
        c.require(true, || unreachable!());
        c.require(false, || "all".into());
        assert_eq!((c.attempted, c.failed), (10, 10));
        assert_eq!(c.notes, vec!["three".to_string(), "all".to_string()]);
    }
}
