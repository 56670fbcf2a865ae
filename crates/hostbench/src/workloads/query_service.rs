//! `query_service16`: the `queries16` scenario of `bench_report` at
//! benchmark size — a 16-rank replicated universe advancing four ticks
//! while every rank's client fleet issues point, region, cone, kNN and
//! time-travel queries. It uses `msg` the opposite way from the
//! treecode (many small point-to-point frames, not a few large
//! collectives) and `store` on its read path (time-travel materialise
//! and pushdown).
//!
//! The fleet is open-loop at 2.0e5 queries/s/rank on the *virtual*
//! clock: arrivals never wait for replies. On the host it is a batch, so
//! the host figure is work per CPU-second at this stated size.

use super::{observed_pass, scaled, Check, Digest, Metrics, Rep, Workload};
use crate::span::Recorder;
use cluster::golden_ics;
use hot::gravity::GravityConfig;
use hot::tree::Body;
use msg::Machine;
use query::{
    fleet, oracle, past, replicated_states, Answer, EngineConfig, EngineOutput, FleetConfig,
    QueryIndex, QueryKind,
};
use store::{GenerationLog, StoreConfig};

pub const NAME: &str = "query_service16";

const BODIES: usize = 2048;
const RANKS: usize = 16;
const QUERIES_PER_RANK: usize = 512;

pub struct QueryService {
    ics: Vec<Body>,
    machine: Machine,
    cfg: EngineConfig,
}

pub struct Output {
    ranks: Vec<EngineOutput>,
}

fn digest_answer(d: &mut Digest, a: &Answer) {
    match a {
        Answer::Missing => d.u64(0),
        Answer::Point(h) => {
            d.u64(1);
            d.u64(h.id);
            d.f64s(&h.pos);
            d.f64s(&h.vel);
            d.f64(h.mass);
        }
        Answer::Ids(ids) => {
            d.u64(2);
            d.u64(ids.len() as u64);
            ids.iter().for_each(|&id| d.u64(id));
        }
        Answer::Neighbors(hits) => {
            d.u64(3);
            d.u64(hits.len() as u64);
            for h in hits {
                d.u64(h.id);
                d.f64(h.dist2);
            }
        }
        Answer::NotCommitted => d.u64(4),
    }
}

impl QueryService {
    fn issued(&self) -> u64 {
        RANKS as u64 * self.cfg.fleet.per_rank
    }

    fn collect(&self, ranks: Vec<EngineOutput>) -> Rep<Output> {
        // Answers only: arrival and completion times ride the virtual
        // clock, which reply-merge order perturbs by a few 1e-4.
        let mut d = Digest::new();
        for o in &ranks {
            for r in &o.replies {
                d.u64(r.qid);
                d.u64(r.tick);
                d.u64(r.at_step.map_or(u64::MAX, |s| s));
                digest_answer(&mut d, &r.answer);
            }
        }
        Rep {
            vtime_s: ranks.iter().map(|o| o.end_s).fold(0.0, f64::max),
            digest: d.finish(),
            counts: vec![
                (
                    "query.answered",
                    ranks.iter().map(|o| o.stats.answered).sum(),
                ),
                (
                    "query.forwarded",
                    ranks.iter().map(|o| o.stats.forwarded).sum(),
                ),
                (
                    "store.commit_bytes",
                    ranks.iter().map(|o| o.store_commit_bytes).sum(),
                ),
            ],
            output: Output { ranks },
        }
    }
}

impl Workload for QueryService {
    type Output = Output;
    const NAME: &'static str = NAME;
    // Answers and counters are pure functions of the input. The virtual
    // end time is not quite (see `collect`), so it is reported, not
    // pinned.
    const DIGEST_REPEATS: bool = true;
    const VTIME_REPEATS: bool = false;

    fn setup(seed: u64, smoke: bool) -> QueryService {
        QueryService {
            ics: golden_ics(scaled(BODIES, smoke), seed),
            machine: Machine::ideal(RANKS as u32 + 2),
            cfg: EngineConfig {
                gravity: GravityConfig {
                    theta: 0.6,
                    eps: 0.05,
                    ..Default::default()
                },
                dt: 0.05,
                steps: 4,
                checkpoint_every: 2,
                fleet: FleetConfig {
                    per_rank: scaled(QUERIES_PER_RANK, smoke) as u64,
                    seed,
                    ..FleetConfig::default()
                },
                ..EngineConfig::default()
            },
        }
    }

    fn operations(&self) -> u64 {
        self.issued()
    }

    fn rep(&self) -> Rep<Output> {
        self.machine.fabric.reset();
        let ranks = msg::run_with(self.machine.clone(), RANKS, |c| {
            query::run(c, self.ics.clone(), &self.cfg)
        });
        self.collect(ranks)
    }

    /// Every reply must equal the brute-force O(N) oracle over the
    /// serial reference state of the tick (or committed generation) it
    /// was answered from.
    fn verify(&self, out: &Output) -> Check {
        let mut check = Check::new(self.issued());
        let states = replicated_states(self.ics.clone(), &self.cfg);
        let mut replies = 0u64;
        let mut wrong = 0u64;
        for (rank, o) in out.ranks.iter().enumerate() {
            let s = &o.stats;
            let exactly_once = s.issued == self.cfg.fleet.per_rank
                && s.issued == s.answered
                && s.dup_replies == 0
                && s.unanswered == 0
                && o.replies.len() as u64 == s.answered;
            check.require(exactly_once, || format!("rank {rank}: {s:?}"));
            for r in &o.replies {
                replies += 1;
                let step = r.at_step.unwrap_or(r.tick) as usize;
                let expected = states
                    .get(step)
                    .map(|bodies| oracle::answer(bodies, &r.kind));
                if expected.as_ref() != Some(&r.answer) {
                    wrong += 1;
                    if wrong == 1 {
                        check.notes.push(format!(
                            "first wrong reply: qid {} kind {:?} at_step {:?}",
                            r.qid, r.kind, r.at_step
                        ));
                    }
                }
            }
        }
        let missing = self.issued().saturating_sub(replies);
        if wrong + missing > 0 {
            check.fail(
                wrong + missing,
                format!("{wrong} replies differ from the oracle, {missing} never came"),
            );
        }
        check
    }

    fn trace(&self, rec: &mut Recorder, rep_cpu_s: f64) -> Metrics {
        let mut m = Metrics::new();
        let n = self.ics.len();

        self.machine.fabric.reset();
        let (ranks, trace) = observed_pass(rec, &mut m, "msg.run_observed", || {
            msg::run_observed(self.machine.clone(), RANKS, |c| {
                query::run(c, self.ics.clone(), &self.cfg)
            })
        });

        // The program's counters carry the metric names already.
        for name in ["query.answered", "query.forwarded"] {
            let count = trace.counter_total(name);
            rec.count(name, count);
            m.insert(name, count as f64);
        }
        m.insert("query.queries_per_cpu_s", self.issued() as f64 / rep_cpu_s);
        let mut latencies: Vec<f64> = ranks
            .iter()
            .flat_map(|o| o.replies.iter().map(|r| r.done_s - r.at_s))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let quantile = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        m.insert("query.latency_p50_vs", quantile(0.50));
        m.insert("query.latency_p99_vs", quantile(0.99));

        // Stage replay: the index and the store read path, driven by
        // the fleet's own schedule for rank 0.
        let (index, build_s) = rec.timed("query.index_build", |_| {
            QueryIndex::build(self.ics.clone(), self.cfg.gravity.leaf_max)
        });
        m.insert("query.index_build_ns_per_body", build_s * 1e9 / n as f64);

        let fleet_cfg = FleetConfig {
            n_bodies: n as u64,
            ..self.cfg.fleet
        };
        let arrivals = fleet::schedule(&fleet_cfg, 0);
        // One timed loop per class: a clock read costs more than a point
        // lookup, so queries are not timed one by one.
        let class_s = |rec: &mut Recorder, name: &str, wanted: fn(&QueryKind) -> bool| {
            let class: Vec<&QueryKind> = arrivals
                .iter()
                .map(|a| &a.kind)
                .filter(|k| wanted(k))
                .collect();
            let ((), spent) = rec.timed(name, |_| {
                for kind in &class {
                    match kind {
                        QueryKind::Point { id } => {
                            std::hint::black_box(index.point(*id));
                        }
                        QueryKind::Region(shape) => {
                            std::hint::black_box(index.region(shape));
                        }
                        QueryKind::Knn { at, k } => {
                            std::hint::black_box(index.knn(*at, *k as usize));
                        }
                    }
                }
            });
            (spent, class.len().max(1) as f64)
        };
        let point = class_s(rec, "query.point", |k| matches!(k, QueryKind::Point { .. }));
        let region = class_s(rec, "query.region", |k| matches!(k, QueryKind::Region(_)));
        let knn = class_s(rec, "query.knn", |k| matches!(k, QueryKind::Knn { .. }));
        m.insert("query.point_ns", point.0 * 1e9 / point.1);
        m.insert("query.region_us", region.0 * 1e6 / region.1);
        m.insert("query.knn_us", knn.0 * 1e6 / knn.1);

        let mut log = GenerationLog::new(StoreConfig::default(), 0);
        log.commit(0, index.bodies(), &[]);
        let snap = log.materialize(0).expect("own commit materializes");
        let ((), past_s) = rec.timed("query.past_answers", |_| {
            for a in &arrivals {
                std::hint::black_box(past::answer(&snap, &a.kind));
            }
        });
        m.insert(
            "query.past_answer_us",
            past_s * 1e6 / arrivals.len().max(1) as f64,
        );

        // Every rank advances the same replicated universe; the serial
        // reference does exactly those ticks once.
        let (states, physics_s) = rec.timed("hot.replicated_physics", |_| {
            replicated_states(self.ics.clone(), &self.cfg)
        });
        std::hint::black_box(states);

        // What the replay accounts for, per rank: the physics ticks, one
        // index build per tick, and this rank's share of the answers.
        let answers_s = point.0 + region.0 + knn.0;
        m.insert(
            "layer_cpu_s",
            RANKS as f64 * (physics_s + self.cfg.steps as f64 * build_s + answers_s),
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle has teeth: one corrupted reply among thousands is one
    /// failed operation, and a dropped one is another.
    #[test]
    fn a_corrupted_reply_fails_the_oracle() {
        let w = QueryService::setup(11, true);
        let mut rep = w.rep();
        assert_eq!(w.verify(&rep.output).failed, 0);

        let victim = rep.output.ranks[3]
            .replies
            .iter_mut()
            .find(|r| matches!(r.answer, Answer::Ids(_)))
            .expect("the fleet issues region queries");
        let Answer::Ids(ids) = &mut victim.answer else {
            unreachable!("matched above")
        };
        ids.push(u64::MAX);
        let check = w.verify(&rep.output);
        assert_eq!(check.failed, 1, "{:?}", check.notes);
        assert!(check.notes[0].starts_with("first wrong reply"));

        // Fewer results than issued: the exactly-once accounting no
        // longer holds, which fails the whole repetition.
        rep.output.ranks[5].replies.pop();
        let check = w.verify(&rep.output);
        assert_eq!(check.failed, check.attempted);
    }
}
