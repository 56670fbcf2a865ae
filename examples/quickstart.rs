#![allow(clippy::needless_range_loop)]

//! Quickstart: compute gravity with the hashed oct-tree and check it
//! against direct summation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use space_simulator::hot::gravity::GravityConfig;
use space_simulator::hot::models::plummer;
use space_simulator::hot::traverse::tree_accelerations;
use space_simulator::hot::tree::Tree;
use std::time::Instant;

fn main() {
    let n = 20_000;
    println!("Sampling a {n}-body Plummer sphere...");
    let bodies = plummer(n, 42);

    println!("Building the hashed oct-tree...");
    let t = Instant::now();
    let tree = Tree::build(bodies, 8);
    println!(
        "  {} cells, depth {}, built in {:.0} ms",
        tree.cells.len(),
        tree.depth(),
        t.elapsed().as_secs_f64() * 1e3
    );

    let cfg = GravityConfig {
        theta: 0.6,
        eps: 0.01,
        ..Default::default()
    };
    println!("Tree traversal (theta = {}, quadrupoles on)...", cfg.theta);
    let t = Instant::now();
    let (acc, stats) = tree_accelerations(&tree, &cfg);
    let walk = t.elapsed().as_secs_f64();
    println!(
        "  {} P2P + {} M2P interactions ({:.0} per body) in {:.0} ms -> {:.0} Mflop/s",
        stats.p2p,
        stats.m2p,
        stats.interactions() as f64 / n as f64,
        walk * 1e3,
        stats.flops(true) / walk / 1e6
    );

    // Accuracy: exact (all-source) direct sums for a subset of targets.
    let m = 500.min(n);
    println!("Direct summation (all {n} sources) on {m} target bodies...");
    let eps2 = cfg.eps * cfg.eps;
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..m {
        let mut exact = space_simulator::hot::gravity::Accel::default();
        for (j, b) in tree.bodies.iter().enumerate() {
            if j != i {
                space_simulator::hot::gravity::p2p(
                    tree.bodies[i].pos,
                    b.pos,
                    b.mass,
                    eps2,
                    &mut exact,
                );
            }
        }
        for d in 0..3 {
            num += (acc[i].acc[d] - exact.acc[d]).powi(2);
        }
        den += exact.acc[0].powi(2) + exact.acc[1].powi(2) + exact.acc[2].powi(2);
    }
    println!("  rms relative force error: {:.2e}", (num / den).sqrt());
    println!("\nDone. For the paper's experiments run e.g.:");
    println!("  cargo run -p bench --bin all_exhibits -- table6");
    println!("  cargo run -p bench --bin all_exhibits -- figure3");
    println!("  cargo run -p bench --bin all_exhibits");
}
