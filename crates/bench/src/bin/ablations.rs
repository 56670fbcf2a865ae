//! Ablation studies for the design choices DESIGN.md calls out:
//! 1. Karp rsqrt vs libm sqrt in the force kernel (Table 5's axis);
//! 2. hashed cell addressing vs std::HashMap;
//! 3. deferred-walk latency hiding on vs off (virtual time);
//! 4. (retired: the ABM batch count is a constant, exhibit 9 ablates
//!    the aggregation policy);
//! 5. Barnes-Hut vs bmax MAC at matched accuracy;
//! 6. the per-body walk vs the group (interaction-list) walk;
//! 7. in-core vs out-of-core traversal (I/O accounting);
//! 8. fault injection: availability and restart overhead vs the §2.1
//!    failure rates, time-compressed (virtual time on the chaos harness);
//! 9. the latency-hiding 2x2: deferred walks on/off x adaptive ABM
//!    aggregation on/off on the 16-rank treecode (virtual time). Pass
//!    `--out PATH` to also write this exhibit to a file for CI to
//!    archive.

use hot::gravity::{Accel, GravityConfig, MacKind};
use hot::models::plummer;
use hot::parallel::{parallel_accelerations, ParallelConfig};
use hot::traverse::{tree_accelerations, TraverseStats};
use hot::tree::{Body, Tree};
use kernels::gravity_kernel::KernelBench;
use std::time::Instant;

fn split(bodies: &[Body], nranks: usize, rank: usize) -> Vec<Body> {
    bodies
        .iter()
        .enumerate()
        .filter(|(i, _)| i % nranks == rank)
        .map(|(_, b)| *b)
        .collect()
}

fn vtime_of(all: &[Body], ranks: usize, cfg: &ParallelConfig) -> f64 {
    let times = msg::run_with(
        msg::Machine::space_simulator(netsim::LibraryProfile::lam_homogeneous()),
        ranks,
        |c| {
            let mine = split(all, c.size(), c.rank());
            parallel_accelerations(c, mine, cfg).vtime
        },
    );
    times.into_iter().fold(0.0, f64::max)
}

/// The tentpole's 2x2: deferred-walk latency hiding x adaptive ABM
/// aggregation, on a 16-rank run of the ablation Plummer model. Virtual
/// seconds per cell, so the exhibit is host-independent.
fn overlap_exhibit(all: &[Body]) -> String {
    let cell = |latency_hiding: bool, adaptive: bool| {
        vtime_of(
            all,
            16,
            &ParallelConfig {
                latency_hiding,
                adaptive,
                ..Default::default()
            },
        )
    };
    let hide_adapt = cell(true, true);
    let hide_fixed = cell(true, false);
    let block_adapt = cell(false, true);
    let block_fixed = cell(false, false);
    let mut out = String::new();
    out.push_str(&format!(
        "overlap ablation: {} bodies, 16 ranks, virtual step seconds\n",
        all.len()
    ));
    out.push_str("                     adaptive ABM   eager batches\n");
    out.push_str(&format!(
        "  deferred walks     {hide_adapt:>12.6}   {hide_fixed:>13.6}\n"
    ));
    out.push_str(&format!(
        "  blocking walks     {block_adapt:>12.6}   {block_fixed:>13.6}\n"
    ));
    out.push_str(&format!(
        "  deferred+adaptive vs blocking+eager: x{:.2}\n",
        block_fixed / hide_adapt
    ));
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exhibit_out = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out wants a path").clone());

    // 1. Karp vs libm (wall time on this host).
    let kb = KernelBench::new(64, 2048, 1);
    let (libm, karp) = kb.measure(8);
    println!("[1] gravity kernel on this host: libm {libm:.0} Mflop/s, Karp {karp:.0} Mflop/s");

    // 2. Hash table vs std HashMap for key -> cell lookups.
    let bodies = plummer(20_000, 3);
    let tree = Tree::build(bodies, 8);
    let keys: Vec<hot::Key> = tree.cells.iter().map(|c| c.key).collect();
    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..50 {
        for k in &keys {
            sum = sum.wrapping_add(tree.map.get(*k).unwrap() as u64);
        }
    }
    let custom = t.elapsed().as_secs_f64();
    let std_map: std::collections::HashMap<u64, u32> =
        tree.map.iter().map(|(k, v)| (k.0, v)).collect();
    let t = Instant::now();
    for _ in 0..50 {
        for k in &keys {
            sum = sum.wrapping_add(*std_map.get(&k.0).unwrap() as u64);
        }
    }
    let std_t = t.elapsed().as_secs_f64();
    println!(
        "[2] {} lookups x50: KeyMap {:.1} ms vs std HashMap {:.1} ms (x{:.2}) [checksum {sum}]",
        keys.len(),
        custom * 1e3,
        std_t * 1e3,
        std_t / custom
    );

    // 3. Latency hiding on/off (virtual time on the simulated cluster).
    let all = plummer(3000, 11);
    let hide = vtime_of(
        &all,
        4,
        &ParallelConfig {
            latency_hiding: true,
            ..Default::default()
        },
    );
    let block = vtime_of(
        &all,
        4,
        &ParallelConfig {
            latency_hiding: false,
            ..Default::default()
        },
    );
    println!(
        "[3] deferred walks: virtual step {hide:.4} s hidden vs {block:.4} s blocking (x{:.2})",
        block / hide
    );

    // 5. MAC comparison at matched cost.
    let bodies = plummer(5000, 17);
    let tree = Tree::build(bodies.clone(), 8);
    let exact = hot::direct::direct_accelerations(&tree.bodies, 0.01);
    for mac in [MacKind::BarnesHut, MacKind::BmaxMac] {
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.01,
            mac,
            ..Default::default()
        };
        let t = Instant::now();
        let (acc, stats) = tree_accelerations(&tree, &cfg);
        let wall = t.elapsed().as_secs_f64();
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, e) in acc.iter().zip(&exact) {
            for d in 0..3 {
                num += (a.acc[d] - e.acc[d]).powi(2);
            }
            den += e.acc[0].powi(2) + e.acc[1].powi(2) + e.acc[2].powi(2);
        }
        println!(
            "[5] {:?}: rms err {:.2e}, {} interactions, {:.0} ms",
            mac,
            (num / den).sqrt(),
            stats.interactions(),
            wall * 1e3
        );
    }

    // 6. Walk strategy on a 100k Plummer model: the per-body walk and
    // the group walk over the SoA interaction-list engine, each timed as
    // the fastest of five passes, with its interactions/s and the
    // group+SoA speedup.
    {
        let bodies = plummer(100_000, 23);
        let tree = Tree::build(bodies, 16);
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.01,
            ..Default::default()
        };
        let fastest = |walk: fn(&Tree, &GravityConfig) -> (Vec<Accel>, TraverseStats)| {
            let mut best = (f64::INFINITY, TraverseStats::default());
            for _ in 0..5 {
                let t = Instant::now();
                let (_, stats) = walk(&tree, &cfg);
                best = (best.0.min(t.elapsed().as_secs_f64()), stats);
            }
            best
        };
        let (per_body, s1) = fastest(tree_accelerations);
        let (grouped, s2) = fastest(hot::traverse::group_accelerations);
        let rate = |ints: u64, secs: f64| ints as f64 / secs / 1e6;
        println!(
            "[6] walks on 100k bodies (interactions/s):\n    per-body        {:.0} ms, {} ints, {:.1} M/s ({} opens)\n    group SoA       {:.0} ms, {} ints, {:.1} M/s ({} opens)\n    group+SoA speedup over per-body: x{:.2}",
            per_body * 1e3,
            s1.interactions(),
            rate(s1.interactions(), per_body),
            s1.opened,
            grouped * 1e3,
            s2.interactions(),
            rate(s2.interactions(), grouped),
            s2.opened,
            rate(s2.interactions(), grouped) / rate(s1.interactions(), per_body)
        );
    }

    // 7. Out-of-core traversal I/O accounting.
    {
        let mut path = std::env::temp_dir();
        path.push(format!("ablation_ooc_{}.bin", std::process::id()));
        let bodies = plummer(5_000, 31);
        let file_kb = 5_000 * 72 / 1024;
        let ooc = hot::outofcore::OocGravity::create(&path, bodies, 256, 512).unwrap();
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.01,
            ..Default::default()
        };
        let t = Instant::now();
        let (_, stats) = ooc.accelerations(&cfg).unwrap();
        println!(
            "[7] out-of-core 5k bodies ({} kB file): {:.0} ms, read {} kB, {} loads, {} cache hits",
            file_kb,
            t.elapsed().as_secs_f64() * 1e3,
            stats.bytes_read / 1024,
            stats.chunk_loads,
            stats.cache_hits
        );
        std::fs::remove_file(&path).ok();
    }

    // 8. Availability vs failure rate: the §2.1 reliability budget,
    // time-compressed onto a short virtual run. `accel` scales the
    // paper's monthly component rates; the harness reports how much of
    // the paid-for cluster time produced kept physics.
    {
        use cluster::chaos::{run_treecode, ChaosConfig};
        use msg::FaultPlan;

        let machine = msg::Machine::space_simulator(netsim::LibraryProfile::lam_homogeneous());
        let gcfg = GravityConfig {
            theta: 0.6,
            eps: 0.05,
            ..Default::default()
        };
        let chaos = ChaosConfig {
            checkpoint_every: 2,
            restart_penalty_s: 2e-3,
            max_attempts: 24,
            ..Default::default()
        };
        let ics = plummer(600, 99);
        let (_, clean) = run_treecode(
            &machine,
            8,
            &FaultPlan::none(1),
            &chaos,
            ics.clone(),
            &gcfg,
            8,
            0.01,
        );
        // The §2.1 rates are per component-month; a virtual run lasts
        // milliseconds. Sweep the time compression in physical units —
        // expected fatal node failures per rank over the run — and derive
        // the acceleration each point needs from the model itself.
        let model = nodesim::ReliabilityModel::space_simulator();
        let mut node_rate = 0.0;
        for c in &model.components {
            if c.class != nodesim::ComponentClass::SwitchPort {
                node_rate += c.population as f64 * c.monthly_rate;
            }
        }
        node_rate /= 294.0;
        println!(
            "[8] fault injection on an 8-rank treecode (clean run {:.4} vs, availability = kept/total):",
            clean.final_vtime
        );
        for lam in [0.0, 0.3, 1.0, 2.0] {
            let accel = lam * msg::fault::MONTH_S / (node_rate * clean.final_vtime);
            let plan = FaultPlan::paper_calibrated(&model, 8, clean.final_vtime, accel, 424242);
            let (_, r) = run_treecode(&machine, 8, &plan, &chaos, ics.clone(), &gcfg, 8, 0.01);
            println!(
                "    E[failures/rank] {lam:.1}: drop_p {:.3}  {}  restarts {}  availability {:.3}  lost {:.4} vs  restart-overhead {:.4} vs  retransmits {}  drops {}",
                plan.drop,
                if r.completed { "done" } else { "FAILED" },
                r.restarts,
                r.availability,
                r.lost_vtime,
                r.restart_overhead_s,
                r.retransmits,
                r.drops,
            );
        }
    }

    // 9. The latency-hiding 2x2 exhibit.
    {
        let exhibit = overlap_exhibit(&all);
        print!("[9] {exhibit}");
        if let Some(path) = &exhibit_out {
            std::fs::write(path, &exhibit).expect("write exhibit");
            println!("    wrote {path}");
        }
    }
}
