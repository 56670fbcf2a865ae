//! Every table and figure of the paper, one function each, rendering
//! to the text `all_exhibits NAME` prints. [`EXHIBITS`] is the index.

use crate::{f, ratio, render_series, render_table};
use cluster::io::{IoModel, ProductionRun};
use cluster::linpack_run::{april_2003, figure3_series, october_2002};
use cluster::npb_run::{self, scaling_series};
use cluster::top500::{dollars_per_mflops, rank, List};
use cluster::treecode_run::{self, treecode_model};
use cluster::MachineSpec;
use cosmo::integrate::CosmoSimulation;
use cosmo::sphere::standard_problem;
use hot::models::condensed_disc_2d;
use hot::morton::morton2d;
use hot::tree::{Body, Tree};
use kernels::gravity_kernel::KernelBench;
use kernels::npb::{Benchmark, Class};
use netsim::{netpipe_sweep, Fabric, LibraryProfile};
use nodesim::bom::moores_law_factor;
use nodesim::cpu_models::{table5_cpus, table5_paper_values};
use nodesim::reliability::{ComponentClass, ReliabilityModel};
use nodesim::roofline::{table2_rows, ClockConfig};
use nodesim::Bom;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sph::collapse::{run_collapse, CollapseSetup, RANKS as SPH_RANKS};

/// An exhibit's name and the function rendering its text.
pub type Exhibit = (&'static str, fn() -> String);

/// Every exhibit by name, in the order `all_exhibits` prints them
/// (slow ones last).
pub const EXHIBITS: &[Exhibit] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("figure1", figure1),
    ("figure2", figure2),
    ("figure3", figure3),
    ("figure4", figure4),
    ("figure5", figure5),
    ("figure6", figure6),
    ("reliability", reliability),
    ("figure7", figure7),
    ("figure8", figure8),
];

/// `println!` onto the end of a `String`.
macro_rules! say {
    ($out:ident, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// A bill of materials as the Qty / Price / Ext. / Description table of
/// Tables 1 and 7 (lump-sum lines leave Qty and Price blank).
fn bom_table(title: &str, bom: &Bom) -> String {
    let rows: Vec<Vec<String>> = bom
        .items
        .iter()
        .map(|i| {
            let priced = |s: String| if i.qty > 0 { s } else { String::new() };
            vec![
                priced(i.qty.to_string()),
                priced(f(i.unit_price, 0)),
                f(i.extended(), 0),
                i.description.to_string(),
            ]
        })
        .collect();
    render_table(title, &["Qty", "Price", "Ext.", "Description"], &rows) + "\n"
}

/// Table 1: Space Simulator architecture and price (September 2002).
fn table1() -> String {
    let bom = Bom::space_simulator();
    let net = bom.nic_and_switch_per_node();
    bom_table(
        "Table 1: Space Simulator architecture and price (September 2002)",
        &bom,
    ) + &format!(
        "Total: ${}\n\
         ${} per node, {} Gflop/s peak per node\n\
         Network (NICs + switches): ${} per node ({}% of node cost)\n",
        f(bom.total(), 0),
        f(bom.per_node(), 0),
        f(bom.peak_per_node / 1e9, 2),
        f(net, 0),
        f(100.0 * net / bom.per_node(), 0)
    )
}

/// Table 2: benchmark sensitivity to CPU and memory clock scaling.
/// Model calibrated on the slow-mem column; slow-CPU and overclock are
/// predictions. Paper values in parentheses in EXPERIMENTS.md.
fn table2() -> String {
    let rows: Vec<Vec<String>> = table2_rows()
        .iter()
        .map(|r| {
            let mut cells = vec![r.name.to_string()];
            for cfg in ClockConfig::TABLE2 {
                let v = r.score(cfg);
                let digits = if r.normal < 10.0 { 3 } else { 1 };
                if cfg.name == "Normal" {
                    cells.push(f(v, digits));
                } else {
                    cells.push(format!("{} ({})", f(v, digits), f(v / r.normal, 3)));
                }
            }
            cells
        })
        .collect();
    render_table(
        "Table 2: clock-scaling sensitivity (model; ratios to normal in parens)",
        &["Benchmark", "Normal", "Slow mem", "Slow CPU", "Overclock"],
        &rows,
    ) + "\n\
     STREAM rows in MB/s, NPB in Mop/s, SPEC in SPEC units, Linpack in Gflop/s.\n\
     Memory fractions calibrated from the paper's slow-mem column only;\n\
     the slow-CPU and overclock columns are model predictions.\n"
}

/// One row per NPB benchmark: `(name, SS Mops, ASCI Q Mops)`.
type NpbRows = Vec<(&'static str, f64, f64)>;

/// Tables 3 and 4: model against paper on both machines.
fn npb_table(title: &str, model: NpbRows, paper: NpbRows) -> String {
    let rows: Vec<Vec<String>> = model
        .iter()
        .zip(&paper)
        .map(|((n, ss, q), (_, pss, pq))| {
            vec![
                n.to_string(),
                f(*ss, 0),
                f(*pss, 0),
                ratio(*ss, *pss),
                f(*q, 0),
                f(*pq, 0),
                ratio(*q, *pq),
            ]
        })
        .collect();
    render_table(
        title,
        &[
            "Bench", "SS model", "SS paper", "r", "Q model", "Q paper", "r",
        ],
        &rows,
    ) + "\n"
}

/// Table 3: 64-processor Class C NPB (Mops), SS vs ASCI Q.
fn table3() -> String {
    npb_table(
        "Table 3: 64-proc Class C NPB Mops — model vs paper",
        npb_run::table3(),
        npb_run::table3_paper(),
    ) + "SS column calibrated; ASCI Q column is a prediction.\n\
         Shape: ASCI Q wins everywhere except FT, where the SS wins (as measured).\n"
}

/// Table 4: 256-processor Class D NPB (Mops), SS vs ASCI Q.
fn table4() -> String {
    npb_table(
        "Table 4: 256-proc Class D NPB Mops — model vs paper (all predictions)",
        npb_run::table4(),
        npb_run::table4_paper(),
    )
}

/// Table 5: the gravity micro-kernel across processors, libm vs Karp —
/// plus a real measurement on this host.
fn table5() -> String {
    let cpus = table5_cpus();
    let paper = table5_paper_values();
    let mut rows: Vec<Vec<String>> = cpus
        .iter()
        .zip(&paper)
        .map(|(c, (_, plibm, pkarp))| {
            vec![
                c.name.to_string(),
                f(c.libm_mflops(), 1),
                f(*plibm, 1),
                f(c.karp_mflops(), 1),
                f(*pkarp, 1),
            ]
        })
        .collect();
    // A real run on this host for comparison.
    let kb = KernelBench::new(64, 2048, 1);
    let (libm, karp) = kb.measure(8);
    rows.push(vec![
        "this host (measured)".into(),
        f(libm, 1),
        "-".into(),
        f(karp, 1),
        "-".into(),
    ]);
    render_table(
        "Table 5: gravity micro-kernel Mflop/s (38 flops/interaction)",
        &[
            "Processor",
            "libm model",
            "libm paper",
            "Karp model",
            "Karp paper",
        ],
        &rows,
    ) + "\n\
     CPU models: micro-architectural (pipelined flops/cycle + sqrt latency),\n\
     fitted to the paper's measurements — see EXPERIMENTS.md.\n"
}

/// Table 6: historical performance of the treecode, 1993-2003.
fn table6() -> String {
    let rows: Vec<Vec<String>> = treecode_run::table6()
        .iter()
        .map(|(name, procs, total, per, ptotal, pper)| {
            vec![
                name.to_string(),
                procs.to_string(),
                f(*total, 1),
                f(*ptotal, 1),
                ratio(*total, *ptotal),
                f(*per, 1),
                f(*pper, 1),
            ]
        })
        .collect();
    render_table(
        "Table 6: treecode throughput — model vs paper",
        &[
            "Machine",
            "Procs",
            "Gflop/s",
            "paper",
            "r",
            "Mflops/proc",
            "paper",
        ],
        &rows,
    ) + "\n\
     One constant (non-force fraction) calibrated on the Space Simulator row;\n\
     every other machine is a prediction from its CPU kernel model + network.\n"
}

/// Table 7: Loki architecture and price (September 1996), plus the §5
/// Moore's-law comparison.
fn table7() -> String {
    let bom = Bom::loki();
    // §5: component price scaling vs Moore's law over the six years.
    let moore = moores_law_factor(6.0);
    let disk = (359.0 / 3.240) / (83.0 / 80.0);
    let mem = (235.0 * 64.0 / (16.0 * 128.0)) / (118.0 * 588.0 / (294.0 * 1024.0));
    bom_table(
        "Table 7: Loki architecture and price (September 1996)",
        &bom,
    ) + &format!(
        "Total: ${}  (${} per node)\n\
         \nSection 5 check — six years = 4 Moore doublings (x{})\
         \n  disk $/GB improvement: x{} ({}x beyond Moore)\
         \n  DRAM $/MB improvement: x{} ({}x beyond Moore)\n",
        f(bom.total(), 0),
        f(bom.per_node(), 0),
        f(moore, 1),
        f(disk, 0),
        f(disk / moore, 1),
        f(mem, 0),
        f(mem / moore, 1)
    )
}

/// Figure 1 (photo of the racks): rendered as a wiring schematic.
fn figure1() -> String {
    cluster::rack::figure1_schematic() + "\n"
}

/// Figure 2: NetPIPE bandwidth vs message size for TCP and the MPI
/// libraries, plus the switch-characterization experiment of §3.1.
fn figure2() -> String {
    let profiles = LibraryProfile::figure2_set();
    let rows: Vec<Vec<f64>> = (0..25)
        .map(|i| {
            let n = 1usize << i;
            let mut row = vec![n as f64];
            row.extend(profiles.iter().map(|p| p.throughput_mbits(n)));
            row
        })
        .collect();
    let mut header = vec!["bytes"];
    header.extend(profiles.iter().map(|p| p.name));
    let mut out = render_series(
        "Figure 2: bandwidth (Mbit/s) vs message size",
        &header,
        &rows,
    ) + "\n";
    for p in &profiles {
        let pts = netpipe_sweep(p, 1, 16 << 20);
        say!(
            out,
            "# {}: latency {:.0} us, asymptote {:.1} Mbit/s",
            p.name,
            p.latency_s * 1e6,
            pts.last().expect("sweep is non-empty").mbits
        );
    }
    // The §3.1 switch experiment.
    let fabric = Fabric::space_simulator(LibraryProfile::tcp());
    let agg = fabric.aggregate_pairs_mbits(16, 8 << 20, false);
    say!(
        out,
        "\n# 16 cross-module pairs aggregate: {agg:.0} Mbit/s (paper: ~6000)"
    );
    out
}

/// Figure 3: Linpack on the Space Simulator — scaling, the two record
/// runs, TOP500 ranks, and the price/performance milestone.
fn figure3() -> String {
    let procs = [16, 32, 64, 128, 192, 224, 256, 288];
    let rows: Vec<Vec<f64>> = figure3_series(&procs)
        .into_iter()
        .map(|(p, mpich, lam)| vec![p as f64, mpich, lam])
        .collect();
    let (oct, apr) = (october_2002(), april_2003());
    render_series(
        "Figure 3: HPL Gflop/s vs processors",
        &["procs", "MPICH+ATLAS(2002)", "LAM+ATLAS350(2003)"],
        &rows,
    ) + &format!(
        "\n# October 2002 run:  {oct:.1} Gflop/s (paper 665.1) — calibration point\n\
         # April 2003 run:    {apr:.1} Gflop/s (paper 757.1) — prediction\n\
         # TOP500: rank {} on Nov 2002 list (paper #85)\n\
         #         rank {} on Jun 2003 list (paper #88)\n\
         #         757.1 would have ranked #{} on the Nov 2002 list (paper #69)\n\
         # price/performance: {:.1} cents per Mflop/s (paper 63.9)\n",
        rank(List::Nov2002, oct),
        rank(List::Jun2003, apr),
        rank(List::Nov2002, 757.1),
        100.0 * dollars_per_mflops(483_855.0, apr)
    )
}

/// Figures 4 and 5: Mop/s per processor of each benchmark at each
/// processor count, as one series block.
fn npb_scaling(title: &str, class: Class, procs: &[usize], benches: &[Benchmark]) -> String {
    let series: Vec<_> = (benches.iter())
        .map(|&b| scaling_series(b, class, procs))
        .collect();
    let rows: Vec<Vec<f64>> = (procs.iter().enumerate())
        .map(|(i, &p)| {
            let mut row = vec![p as f64];
            row.extend(series.iter().map(|s| s[i].1));
            row
        })
        .collect();
    let mut header = vec!["procs"];
    header.extend(benches.iter().map(|b| b.name()));
    render_series(title, &header, &rows) + "\n"
}

/// Figure 4: NPB Class D scaling on the Space Simulator.
fn figure4() -> String {
    npb_scaling(
        "Figure 4: Class D Mop/s per processor vs processors (flat = perfect scaling)",
        Class::D,
        &[16, 32, 64, 128, 256],
        &Benchmark::ALL[..6],
    )
}

/// Figure 5: NPB Class C scaling — smaller problems scale worse, and LU
/// shows the super-linear L2 kink.
fn figure5() -> String {
    let mut out = npb_scaling(
        "Figure 5: Class C Mop/s per processor vs processors",
        Class::C,
        &[1, 4, 16, 64, 256],
        &Benchmark::ALL[..7],
    );
    let lu = scaling_series(Benchmark::LU, Class::C, &[1, 64]);
    say!(
        out,
        "# LU L2 kink: {:.0} Mop/s/proc at 1 proc -> {:.0} at 64 procs (super-linear)",
        lu[0].1,
        lu[1].1
    );
    out
}

/// Figure 6: the self-similar Morton curve (left) and a 2-D tree of
/// centrally condensed particles (right).
fn figure6() -> String {
    let mut out = String::new();
    // Left panel: the space-filling curve on an 8x8 grid, drawn by
    // visiting order.
    say!(
        out,
        "# Figure 6 (left): Morton order on an 8x8 grid (visit order)"
    );
    let curve = morton2d::curve(3);
    let mut grid = [[0usize; 8]; 8];
    for (order, (x, y)) in curve.iter().enumerate() {
        grid[*y as usize][*x as usize] = order;
    }
    for row in grid.iter().rev() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:2}")).collect();
        say!(out, "  {}", cells.join(" "));
    }
    say!(out, "\n# curve as (x, y) polyline for plotting:");
    for (x, y) in &curve {
        say!(out, "{x}\t{y}");
    }

    // Right panel: quadtree cell boundaries of a condensed disc. We use
    // the 3-D tree with z = 0 and report x/y cell boxes at z mid-plane.
    let pts = condensed_disc_2d(2000, 42);
    let bodies: Vec<Body> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut b = Body::at([p[0], p[1], 0.0], 1.0);
            b.id = i as u64;
            b
        })
        .collect();
    let tree = Tree::build(bodies, 4);
    say!(
        out,
        "\n# Figure 6 (right): tree cells (center_x, center_y, half) by level"
    );
    let mut by_level = std::collections::BTreeMap::new();
    for c in &tree.cells {
        *by_level.entry(c.level()).or_insert(0) += 1;
        if c.is_leaf && c.level() <= 6 {
            say!(out, "{:.4}\t{:.4}\t{:.4}", c.center[0], c.center[1], c.half);
        }
    }
    say!(out, "# cells per level: {by_level:?}");
    say!(
        out,
        "# total cells: {} for {} bodies",
        tree.cells.len(),
        tree.bodies.len()
    );
    out
}

/// §2.1: component failures — expected and Monte-Carlo vs the paper.
fn reliability() -> String {
    let m = ReliabilityModel::space_simulator();
    let mut rng = SmallRng::seed_from_u64(2003);
    let burn = m.simulate_burn_in(&mut rng);
    let oper = m.simulate_operation(&mut rng, 9);
    let paper_burn = [3u32, 6, 4, 6, 1, 0, 0];
    let paper_oper = [2u32, 16, 1, 3, 0, 1, 4];
    let rows: Vec<Vec<String>> = ComponentClass::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let eb = m.expected_burn_in()[i].1;
            let eo = m.expected_operational(9.0)[i].1;
            vec![
                c.name().to_string(),
                paper_burn[i].to_string(),
                f(eb, 1),
                burn.counts[i].to_string(),
                paper_oper[i].to_string(),
                f(eo, 1),
                oper.counts[i].to_string(),
            ]
        })
        .collect();
    render_table(
        "Section 2.1: hardware failures, burn-in and nine months of operation",
        &[
            "Component",
            "paper BI",
            "E[BI]",
            "MC BI",
            "paper 9mo",
            "E[9mo]",
            "MC 9mo",
        ],
        &rows,
    ) + &format!(
        "\nAvailability over 9 months (3 whole-cluster outages): {:.2}%\n\
         SMART-predictable disk failures: ~{:.0}%\n\
         No CPU fans exist to fail: the Shuttle heat pipe eliminated them.\n",
        100.0 * m.availability(9.0),
        100.0 * m.smart_predictable_fraction()
    )
}

/// Figure 7: the cosmological production run — a scaled-down volume run
/// here, plus the full-scale accounting of the paper's 134M-particle
/// run (24 h on 250 processors, 1.5 TB saved, 10^16 flops).
fn figure7() -> String {
    // Full-scale accounting (the paper's numbers).
    let run = ProductionRun::figure7();
    let io = IoModel::space_simulator(250);
    let (gf, _) = treecode_model(&MachineSpec::space_simulator(), 250, 134.0e6);
    let mut out = format!(
        "# Figure 7 production-run accounting (134M particles, 700 steps, 250 procs)\n\
         #   average compute rate: {:.0} Gflop/s (paper 112)\n\
         #   average I/O rate:     {:.0} MB/s (paper 417)\n\
         #   peak parallel I/O:    {:.1} GB/s (paper ~7)\n\
         #   treecode model at 250 procs: {gf:.0} Gflop/s sustained-force rate\n",
        run.average_gflops(),
        run.average_io_mbps(),
        io.peak_rate() / 1e9
    );

    // Scaled-down actual run: structure formation in a spherical volume.
    let bodies = standard_problem(3000, 0.3, 7);
    let n = bodies.len();
    let mut sim = CosmoSimulation::new(bodies, 0.7, 0.01, 0.01);
    let sample = |sim: &CosmoSimulation| {
        vec![
            sim.sim.time,
            sim.scale_factor(),
            sim.clumping() * sim.scale_factor().powi(3),
        ]
    };
    let mut rows = Vec::new();
    for step in 0..30 {
        if step % 5 == 0 {
            rows.push(sample(&sim));
        }
        sim.step();
    }
    rows.push(sample(&sim));
    out += &render_series(
        &format!("Scaled-down volume run ({n} particles): expansion + structure growth"),
        &["time", "scale_factor", "clumping x a^3"],
        &rows,
    );
    say!(
        out,
        "\n# interactions so far: {}",
        sim.stats().interactions()
    );
    out
}

/// Figure 8: angular-momentum distribution of the rotating core
/// collapse, measured just past bounce.
fn figure8() -> String {
    let setup = CollapseSetup {
        n_particles: 600,
        ..Default::default()
    };
    let res = run_collapse(&setup, 500);
    let mut out = format!(
        "# Figure 8: rotating core collapse ({} particles, {} ranks)\n\
         # peak density: {:.3} (rho_nuc = {})\n\
         # peak at t = {:.4}, {} steps\n",
        setup.n_particles, SPH_RANKS, res.peak_density, setup.rho_nuc, res.bounce_time, res.steps
    );
    let bins = res.j_by_angle.len();
    let rows: Vec<Vec<f64>> = res
        .j_by_angle
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let theta = (i as f64 + 0.5) * 90.0 / bins as f64;
            vec![theta, *j]
        })
        .collect();
    out += &render_series(
        "mean |j_z| vs polar angle (0 = pole, 90 = equator)",
        &["theta_deg", "mean_jz"],
        &rows,
    );
    out + &format!(
        "\n# pole(15deg)/equator(15deg) specific angular momentum ratio: {:.4}\n\
         # paper: 'the angular momentum in a 15 degree cone along the poles is\n\
         # 2 orders of magnitude less than that in the equator'\n",
        res.pole_to_equator
    )
}
