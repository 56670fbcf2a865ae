//! Tour of the simulated cluster itself: price, reliability, network,
//! Linpack and the TOP500 milestone — the whole §2-§3 story.
//!
//! ```text
//! cargo run --release --example space_simulator
//! ```

use space_simulator::cluster::linpack_run;
use space_simulator::cluster::top500::{self, List};
use space_simulator::netsim::{Fabric, LibraryProfile};
use space_simulator::nodesim::{Bom, ReliabilityModel};

fn main() {
    let bom = Bom::space_simulator();
    println!("=== The Space Simulator (simulated) ===\n");
    println!(
        "294 nodes, ${} total, ${}/node, {:.2} Tflop/s peak",
        bom.total(),
        bom.per_node().round(),
        bom.peak() / 1e12
    );

    let rel = ReliabilityModel::space_simulator();
    let disks = rel
        .expected_operational(9.0)
        .iter()
        .find(|(c, _)| matches!(c, space_simulator::nodesim::ComponentClass::DiskDrive))
        .unwrap()
        .1;
    println!("reliability: expect ~{disks:.0} disk failures in 9 months (dominant failure mode)");

    println!("\n--- network ---");
    for p in [
        LibraryProfile::tcp(),
        LibraryProfile::lam_homogeneous(),
        LibraryProfile::mpich1(),
    ] {
        println!(
            "  {:16} latency {:3.0} us, 1 MB message at {:.0} Mbit/s",
            p.name,
            p.latency_s * 1e6,
            p.throughput_mbits(1 << 20)
        );
    }
    let fabric = Fabric::space_simulator(LibraryProfile::tcp());
    println!(
        "  16 cross-module pairs aggregate: {:.0} Mbit/s (paper measured ~6000)",
        fabric.aggregate_pairs_mbits(16, 8 << 20, false)
    );

    println!("\n--- Linpack ---");
    let oct = linpack_run::october_2002();
    let apr = linpack_run::april_2003();
    println!(
        "  October 2002 (MPICH):      {oct:.1} Gflop/s -> TOP500 #{}",
        top500::rank(List::Nov2002, oct)
    );
    println!(
        "  April 2003 (LAM+ATLAS350): {apr:.1} Gflop/s -> TOP500 #{}",
        top500::rank(List::Jun2003, apr)
    );
    println!(
        "  price/performance: {:.1} cents/Mflops — the first TOP500 machine under $1",
        100.0 * top500::dollars_per_mflops(bom.total(), apr)
    );
}
