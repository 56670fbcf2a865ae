//! Layer micro-replays that belong to no single workload: the host's
//! roofline (`kernels`), the span kernels, `msg` transport primitives,
//! `netsim` arbitration and `ckpt` framing. Each is one public call per
//! layer, timed from outside on inputs generated from the seed.

use crate::host::{last_level_cache_bytes, process_cpu_s};
use crate::span::Recorder;
use crate::workloads::{scaled, Metrics};
use cluster::ics::SplitMix64;
use hot::gravity::{m2p_span, p2p_span, Accel};
use kernels::gravity_kernel::KernelBench;
use msg::{Abm, Machine, Termination};
use netsim::{Fabric, LibraryProfile};

/// STREAM asks for arrays of at least four times the last-level cache.
/// This box reports a 260 MiB L3 shared with other tenants; arrays that
/// size cost seconds per pass and a gigabyte each, so the arrays stop
/// here and the result says which size was used.
const STREAM_ARRAY_CAP_BYTES: usize = 64 << 20;

/// The three numbers that say whether the box changed under us: taken
/// before and after a suite, they move with the host, not the program.
pub fn calibration(seed: u64, smoke: bool) -> Metrics {
    let mut m = Metrics::new();
    let llc = last_level_cache_bytes().unwrap_or(0);
    let cap = scaled(STREAM_ARRAY_CAP_BYTES, smoke);
    let array_bytes = usize::try_from(4 * llc).map_or(cap, |want| want.clamp(cap / 8, cap));
    let stream = kernels::stream::run_stream(array_bytes / 8, 3);
    m.insert("kernels.stream_triad_gbs", stream.triad / 1e3);
    m.insert("stream_array_mb", array_bytes as f64 / 1e6);
    m.insert("last_level_cache_mb", llc as f64 / 1e6);
    let (libm, karp) = KernelBench::new(64, 4096, seed).measure(scaled(32, smoke));
    m.insert("kernels.libm_mflops", libm);
    m.insert("kernels.karp_mflops", karp);
    m
}

/// Everything else in this file, under `rec`.
pub fn replay(rec: &mut Recorder, seed: u64, smoke: bool) -> Metrics {
    let mut m = Metrics::new();
    span_kernels(rec, seed, smoke, &mut m);
    msg_primitives(rec, smoke, &mut m);
    netsim_arbitration(rec, smoke, &mut m);
    ckpt_framing(rec, seed, smoke, &mut m);
    m
}

/// `hot`'s p2p and m2p span kernels on 4096-long interaction lists.
fn span_kernels(rec: &mut Recorder, seed: u64, smoke: bool, m: &mut Metrics) {
    const LIST: usize = 4096;
    let targets = scaled(1024, smoke);
    let mut rng = SplitMix64(seed);
    let mut lane = |scale: f64| -> Vec<f64> { (0..LIST).map(|_| scale * rng.sym()).collect() };
    let (xs, ys, zs) = (lane(1.0), lane(1.0), lane(1.0));
    let ms: Vec<f64> = lane(0.5).iter().map(|v| 1.0 + v).collect();
    let quad: [Vec<f64>; 6] = std::array::from_fn(|_| lane(1e-3));
    let q: [&[f64]; 6] = std::array::from_fn(|i| quad[i].as_slice());
    let targets: Vec<[f64; 3]> = (0..targets)
        .map(|_| [3.0 + rng.sym(), 3.0 + rng.sym(), 3.0 + rng.sym()])
        .collect();
    let ixns = (LIST * targets.len()) as f64;

    let (sum, s) = rec.timed("hot.p2p_span", |_| {
        let mut out = Accel::default();
        for &t in &targets {
            p2p_span(t, &xs, &ys, &zs, &ms, 1e-4, &mut out);
        }
        out
    });
    std::hint::black_box(sum);
    m.insert("hot.p2p_span_ns_per_ixn", s * 1e9 / ixns);
    let (sum, s) = rec.timed("hot.m2p_span", |_| {
        let mut out = Accel::default();
        for &t in &targets {
            m2p_span(t, &xs, &ys, &zs, &ms, q, 1e-4, true, &mut out);
        }
        out
    });
    std::hint::black_box(sum);
    m.insert("hot.m2p_span_ns_per_ixn", s * 1e9 / ixns);
}

/// World spawn, a 2-rank ping-pong and a 4-rank ABM storm. Worlds run
/// on many threads, so host cost is the whole process's CPU-seconds.
fn msg_primitives(rec: &mut Recorder, smoke: bool, m: &mut Metrics) {
    const SPAWN_RANKS: usize = 16;
    let worlds = scaled(64, smoke);
    let s = rec.scope("msg.world_spawn", |_| {
        let cpu0 = process_cpu_s();
        for _ in 0..worlds {
            msg::run_with(Machine::ideal(SPAWN_RANKS as u32), SPAWN_RANKS, |_| ());
        }
        process_cpu_s() - cpu0
    });
    m.insert(
        "msg.world_spawn_us_per_rank",
        s * 1e6 / (worlds * SPAWN_RANKS) as f64,
    );

    let round_trips = scaled(10_000, smoke);
    let (s, vtime) = rec.scope("msg.pingpong", |_| {
        let cpu0 = process_cpu_s();
        let ends = msg::run_with(Machine::ideal(2), 2, |c| {
            let ball = [c.rank() as f64; 8]; // 64 B
            for _ in 0..round_trips {
                if c.rank() == 0 {
                    c.send(1, 1, ball);
                    std::hint::black_box(c.recv_from::<[f64; 8]>(1, 2));
                } else {
                    std::hint::black_box(c.recv_from::<[f64; 8]>(0, 1));
                    c.send(0, 2, ball);
                }
            }
            c.time()
        });
        (process_cpu_s() - cpu0, ends.into_iter().fold(0.0, f64::max))
    });
    m.insert("msg.pingpong_host_us", s * 1e6 / round_trips as f64);
    m.insert("msg.pingpong_vtime_us", vtime * 1e6 / round_trips as f64);

    const ABM_RANKS: usize = 4;
    let posts_per_rank = scaled(25_000, smoke);
    let s = rec.scope("msg.abm_storm", |_| {
        let cpu0 = process_cpu_s();
        let received: usize = msg::run_with(Machine::ideal(ABM_RANKS as u32), ABM_RANKS, |c| {
            let mut abm: Abm<u64> = Abm::new(c.size(), 7, 64);
            let mut term = Termination::new();
            for i in 0..posts_per_rank {
                // Everyone but the sender, in turn.
                let dst = (c.rank() + 1 + i % (ABM_RANKS - 1)) % ABM_RANKS;
                abm.post(c, dst, i as u64);
            }
            abm.flush_all(c);
            term.on_send(abm.sent);
            let mut got = 0;
            loop {
                let batches = abm.poll(c);
                let idle = batches.is_empty();
                for (_, batch) in batches {
                    term.on_recv(1);
                    got += batch.len();
                }
                if idle && term.poll(c) {
                    break got;
                }
                std::thread::yield_now();
            }
        })
        .into_iter()
        .sum();
        assert_eq!(received, ABM_RANKS * posts_per_rank, "ABM lost posts");
        process_cpu_s() - cpu0
    });
    m.insert(
        "msg.abm_host_ns_per_msg",
        s * 1e9 / (ABM_RANKS * posts_per_rank) as f64,
    );
}

/// Host cost of one `Fabric::transfer` from a single thread on each
/// link class, and the virtual seconds a fixed trunk pattern queues.
fn netsim_arbitration(rec: &mut Recorder, smoke: bool, m: &mut Metrics) {
    let transfers = scaled(200_000, smoke);
    let xbar = Fabric::ideal(16, LibraryProfile::tcp());
    let ss = Fabric::space_simulator(LibraryProfile::lam_homogeneous());
    for (metric, fabric, dst) in [
        ("netsim.transfer_ns_xbar", &xbar, 1),
        ("netsim.transfer_ns_intra", &ss, 1),
        ("netsim.transfer_ns_trunk", &ss, 300),
    ] {
        fabric.reset();
        let ((), s) = rec.timed(metric, |_| {
            for i in 0..transfers {
                // Departures a millisecond apart: nothing ever queues,
                // so this is the arbitration path alone.
                std::hint::black_box(fabric.transfer(0, dst, 4096, i as f64 * 1e-3));
            }
        });
        m.insert(metric, s * 1e9 / transfers as f64);
    }

    // 1000 transfers of 64 KiB, 16 senders on the first chassis to 16
    // receivers on the second, ten microseconds apart: far more than
    // the 8 Gbit trunk carries, so most of them queue. The pattern is
    // the same at every size, so the number is exact.
    ss.reset();
    let first_port_of_second_chassis = 14 * 16;
    for i in 0..1000u32 {
        ss.transfer(
            i % 16,
            first_port_of_second_chassis + i % 16,
            64 << 10,
            i as f64 * 1e-5,
        );
    }
    m.insert("netsim.trunk_queued_vs", ss.stats().queued_s);
    rec.count("netsim.trunk_pattern_messages", ss.stats().messages);
}

/// `ckpt` framing throughput on a 1 MB payload.
fn ckpt_framing(rec: &mut Recorder, seed: u64, smoke: bool, m: &mut Metrics) {
    const PAYLOAD: usize = 1 << 20;
    let rounds = scaled(32, smoke);
    let mut rng = SplitMix64(seed);
    let payload: Vec<u8> = (0..PAYLOAD).map(|_| rng.next_u64() as u8).collect();
    let header = ckpt::ShardHeader {
        rank: 0,
        of_ranks: 16,
        step: 2,
        time: 0.02,
    };
    let mb = (PAYLOAD * rounds) as f64 / 1e6;

    let (shard, s) = rec.timed("ckpt.save_shard", |_| {
        let mut shard = Vec::new();
        for _ in 0..rounds {
            shard = ckpt::save_shard(&header, &payload);
        }
        shard
    });
    m.insert("ckpt.save_shard_mb_s", mb / s);
    let ((), s) = rec.timed("ckpt.load_shard", |_| {
        for _ in 0..rounds {
            let (_, back): (_, Vec<u8>) = ckpt::load_shard(&shard).expect("own shard loads");
            assert_eq!(back.len(), PAYLOAD);
        }
    });
    m.insert("ckpt.load_shard_mb_s", mb / s);
    let ((), s) = rec.timed("ckpt.crc32", |_| {
        for _ in 0..rounds {
            std::hint::black_box(ckpt::crc32(std::hint::black_box(&payload)));
        }
    });
    m.insert("ckpt.crc32_mb_s", mb / s);
}
