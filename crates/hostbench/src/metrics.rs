//! The names every later issue must use: the end-to-end metrics, the
//! per-layer metrics, their units and which of the two clocks each is
//! on. `BENCHMARK.json` lists the same names; a unit test holds the two
//! together.

use crate::workloads::{hot_distributed, query_service, serial_cosmo, sph_collapse, treecode};

/// Which clock a number (or a span's `start`/`end`) is on. Every
/// number says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Clock {
    /// What it costs us to produce the result.
    Host,
    /// What the modelled 2003 machine would have taken.
    Virtual,
    /// A count or ratio: on no clock, and exact where the README says so.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// Share of the first run's median by which the second may be worse
    /// before `repeat` calls two same-seed runs of one workload
    /// `regressed`, for every workload not named in `overrides`. All
    /// four metrics are better lower.
    ///
    /// This is the issue's per-workload table and `repeat` is its only
    /// reader. The gate a later change is held to is the one bound per
    /// metric in `BENCHMARK.json`, which lives there and nowhere in the
    /// code: it has to hold for every workload at once, across runs
    /// that each take another seed, so it is no tighter than any of
    /// these (README, "Bounds").
    pub bound: f64,
    pub overrides: &'static [(&'static str, f64)],
}

impl EndToEnd {
    pub fn bound_on(&self, workload: &str) -> f64 {
        self.overrides
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(self.bound, |(_, b)| *b)
    }
}

/// `failed_ops_share` is the fifth end-to-end number. It is zero on a
/// healthy tree and its bound is zero (any rise fails), so it travels
/// as the `failed`/`attempted` pair of a result, not as a metric with a
/// relative bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "host_cpu_s",
        unit: "s",
        clock: Clock::Host,
        bound: 0.10,
        overrides: &[],
    },
    EndToEnd {
        name: "vtime_s",
        unit: "s",
        clock: Clock::Virtual,
        bound: 0.02,
        // Arrival-order arbitration on the contended fabric (ROADMAP
        // item 1): these are its current size, to be tightened to 2 %
        // by the change that fixes it.
        overrides: &[(hot_distributed::NAME, 0.10), (sph_collapse::NAME, 0.05)],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        bound: 0.10,
        overrides: &[],
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        bound: 0.25,
        overrides: &[],
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The host calibration of `layers::calibration`.
    Calibration,
    /// The workload-independent micro-replays of `layers::replay`.
    Generic,
    /// The stage replay of the one workload that owns the layer.
    Replay(&'static str),
    /// The observed pass of whichever workload the row is for.
    Observed,
    /// The harness's own accounting, per workload.
    Run,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub source: Source,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    source: Source,
) -> Layer {
    Layer {
        name,
        unit,
        clock,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Virtual};
use Source::{Calibration, Generic, Observed, Replay, Run};

const W1: Source = Replay(treecode::NAME);
const W2: Source = Replay(hot_distributed::NAME);
const W3: Source = Replay(query_service::NAME);
const W4: Source = Replay(serial_cosmo::NAME);
const W5: Source = Replay(sph_collapse::NAME);

pub const PER_LAYER: [Layer; 73] = [
    // hot (crates/core)
    layer("hot.tree_build_ns_per_body", "ns", Host, Lower, W1),
    layer("hot.group_walk_ns_per_ixn", "ns", Host, Lower, W1),
    layer("hot.group_walk_ixns", "count", Count, Lower, W1),
    layer("hot.p2p_span_ns_per_ixn", "ns", Host, Lower, Generic),
    layer("hot.m2p_span_ns_per_ixn", "ns", Host, Lower, Generic),
    layer("hot.serial_step_cpu_s", "s", Host, Lower, W1),
    layer("hot.decompose_cpu_s", "s", Host, Lower, W2),
    layer("hot.parallel_walk_us_per_body", "us", Host, Lower, W2),
    layer("hot.parallel_ixns", "count", Count, Lower, Observed),
    layer("hot.parallel_requests", "count", Count, Lower, Observed),
    layer("hot.parallel_deferred", "count", Count, Lower, Observed),
    layer("hot.parallel_resumed", "count", Count, Lower, Observed),
    // kernels
    layer(
        "kernels.stream_triad_gbs",
        "GB/s",
        Host,
        Higher,
        Calibration,
    ),
    layer("kernels.karp_mflops", "Mflop/s", Host, Higher, Calibration),
    layer("kernels.libm_mflops", "Mflop/s", Host, Higher, Calibration),
    // msg
    layer("msg.world_spawn_us_per_rank", "us", Host, Lower, Generic),
    layer("msg.pingpong_host_us", "us", Host, Lower, Generic),
    layer("msg.pingpong_vtime_us", "us", Virtual, Lower, Generic),
    layer("msg.allgather16_host_us", "us", Host, Lower, W1),
    layer("msg.allgather16_vtime_us", "us", Virtual, Lower, W1),
    layer("msg.abm_host_ns_per_msg", "ns", Host, Lower, Generic),
    layer("msg.sends", "count", Count, Lower, Observed),
    layer("msg.bytes_sent", "B", Count, Lower, Observed),
    layer("msg.wait_vs", "s", Virtual, Lower, Observed),
    layer("msg.cp_wait_vs", "s", Virtual, Lower, Observed),
    // netsim
    layer("netsim.transfer_ns_xbar", "ns", Host, Lower, Generic),
    layer("netsim.transfer_ns_intra", "ns", Host, Lower, Generic),
    layer("netsim.transfer_ns_trunk", "ns", Host, Lower, Generic),
    layer("netsim.trunk_queued_vs", "s", Virtual, Lower, Generic),
    layer("netsim.messages", "count", Count, Lower, Observed),
    layer("netsim.cp_wire_vs", "s", Virtual, Lower, Observed),
    // nodesim
    layer("nodesim.cp_work_vs", "s", Virtual, Lower, Observed),
    // obs
    layer("obs.trace_overhead_frac", "fraction", Host, Lower, Run),
    layer("obs.analysis_cpu_s", "s", Host, Lower, Observed),
    layer("obs.spans", "count", Count, Lower, Observed),
    layer(
        "obs.parallel_efficiency",
        "fraction",
        Virtual,
        Higher,
        Observed,
    ),
    layer(
        "obs.transfer_efficiency",
        "fraction",
        Virtual,
        Higher,
        Observed,
    ),
    layer(
        "obs.serialization_efficiency",
        "fraction",
        Virtual,
        Higher,
        Observed,
    ),
    // ckpt
    layer("ckpt.save_shard_mb_s", "MB/s", Host, Higher, Generic),
    layer("ckpt.load_shard_mb_s", "MB/s", Host, Higher, Generic),
    layer("ckpt.crc32_mb_s", "MB/s", Host, Higher, Generic),
    // store
    layer("store.commit_full_mb_s", "MB/s", Host, Higher, W4),
    layer("store.commit_delta_mb_s", "MB/s", Host, Higher, W4),
    layer("store.materialize_mb_s", "MB/s", Host, Higher, W4),
    layer("store.incremental_ratio", "ratio", Count, Higher, W4),
    layer("store.commit_bytes", "B", Count, Lower, W4),
    layer(
        "store.pushdown_cells_read_frac",
        "fraction",
        Count,
        Lower,
        W4,
    ),
    // query
    layer("query.index_build_ns_per_body", "ns", Host, Lower, W3),
    layer("query.point_ns", "ns", Host, Lower, W3),
    layer("query.region_us", "us", Host, Lower, W3),
    layer("query.knn_us", "us", Host, Lower, W3),
    layer("query.past_answer_us", "us", Host, Lower, W3),
    layer("query.answered", "count", Count, Higher, W3),
    layer("query.forwarded", "count", Count, Lower, W3),
    layer("query.latency_p50_vs", "s", Virtual, Lower, W3),
    layer("query.latency_p99_vs", "s", Virtual, Lower, W3),
    layer("query.queries_per_cpu_s", "1/s", Host, Higher, W3),
    // sph
    layer("sph.neighbor_build_ns_per_particle", "ns", Host, Lower, W5),
    layer("sph.density_ns_per_particle", "ns", Host, Lower, W5),
    layer("sph.hydro_forces_ns_per_particle", "ns", Host, Lower, W5),
    layer("sph.gravity_ns_per_particle", "ns", Host, Lower, W5),
    layer("sph.neutrino_ns_per_particle", "ns", Host, Lower, W5),
    layer("sph.serial_step_us_per_particle", "us", Host, Lower, W5),
    layer("sph.distributed_hydro_cpu_s", "s", Host, Lower, W5),
    // cosmo
    layer("cosmo.standard_problem_cpu_s", "s", Host, Lower, W4),
    layer("cosmo.step_cpu_s", "s", Host, Lower, W4),
    // cluster
    layer("cluster.step_cpu_ms", "ms", Host, Lower, W1),
    layer("cluster.replication_factor", "ratio", Host, Lower, W1),
    // run (the harness itself)
    layer("run.wall_s", "s", Host, Lower, Run),
    layer("run.cpu_over_wall", "ratio", Host, Lower, Run),
    layer("run.rep_spread", "fraction", Host, Lower, Run),
    layer("run.layer_coverage", "fraction", Host, Higher, Run),
    layer("run.reps", "count", Count, Higher, Run),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::NAMES;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = NAMES
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn overrides_only_loosen_and_name_real_workloads() {
        for m in &END_TO_END {
            for (w, b) in m.overrides {
                assert!(NAMES.contains(w), "{w}");
                assert!(*b > m.bound);
                assert_eq!(m.bound_on(w), *b);
            }
            assert_eq!(m.bound_on("serial_cosmo"), m.bound);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), NAMES);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(entry.get("better").and_then(Value::as_str), Some("lower"));
            // The contract caps a bound at a quarter, and the one bound
            // has to cover the loosest workload's.
            let gate = entry.get("bound").and_then(Value::as_f64).unwrap();
            assert!(gate <= 0.25, "{}", m.name);
            assert!(NAMES.iter().all(|w| m.bound_on(w) <= gate), "{}", m.name);
        }
        for (entry, m) in doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.name())
            );
        }
    }
}
