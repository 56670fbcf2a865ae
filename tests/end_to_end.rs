#![allow(clippy::needless_range_loop)]

//! Integration: short end-to-end runs of the two applications.

use space_simulator::cosmo::integrate::CosmoSimulation;
use space_simulator::cosmo::sphere::standard_problem;
use space_simulator::sph::collapse::{pole_equator_ratio, rotating_core, CollapseSetup};
use space_simulator::sph::SphSimulation;

#[test]
fn cosmology_sphere_expands_and_clusters() {
    let bodies = standard_problem(1500, 0.3, 99);
    let mut sim = CosmoSimulation::new(bodies, 0.7, 0.01, 0.01);
    let c0 = sim.clumping();
    sim.run(25);
    let a = sim.scale_factor();
    assert!(a > 1.05, "no expansion: {a}");
    let c1 = sim.clumping() * a.powi(3);
    assert!(c1 > c0, "no structure: {c0} -> {c1}");
}

#[test]
fn collapse_starts_infalling_and_conserves_angular_momentum() {
    let setup = CollapseSetup {
        n_particles: 400,
        ..Default::default()
    };
    let (parts, cfg) = rotating_core(&setup);
    let mut sim = SphSimulation::new(parts, cfg);
    let l0 = sim.angular_momentum()[2];
    let rho0 = sim.max_density();
    for _ in 0..45 {
        sim.step();
    }
    let rho1 = sim.max_density();
    assert!(rho1 > 1.8 * rho0, "no collapse: {rho0} -> {rho1}");
    let l1 = sim.angular_momentum()[2];
    assert!(
        ((l1 - l0) / l0).abs() < 0.05,
        "angular momentum drift: {l0} -> {l1}"
    );
    // Rotation keeps favouring the equator.
    let ratio = pole_equator_ratio(&sim.parts);
    assert!(ratio < 0.3, "pole/equator {ratio}");
}

#[test]
fn neutrinos_carry_energy_out_during_collapse() {
    let setup = CollapseSetup {
        n_particles: 300,
        ..Default::default()
    };
    let (parts, cfg) = rotating_core(&setup);
    let mut sim = SphSimulation::new(parts, cfg);
    for _ in 0..20 {
        sim.step();
    }
    let (_, _, nu) = sim.energies();
    assert!(nu > 0.0, "no neutrino energy: {nu}");
}

#[test]
fn out_of_core_agrees_with_in_core_end_to_end() {
    use space_simulator::hot::gravity::GravityConfig;
    use space_simulator::hot::models::plummer;
    use space_simulator::hot::outofcore::OocGravity;
    use space_simulator::hot::traverse::tree_accelerations;
    use space_simulator::hot::tree::Tree;

    let mut path = std::env::temp_dir();
    path.push(format!("e2e_ooc_{}.bin", std::process::id()));
    let bodies = plummer(800, 55);
    let cfg = GravityConfig {
        theta: 0.5,
        eps: 0.01,
        ..Default::default()
    };
    // In-core reference.
    let tree = Tree::build(bodies.clone(), cfg.leaf_max);
    let (in_core, _) = tree_accelerations(&tree, &cfg);
    let by_id: std::collections::HashMap<u64, [f64; 3]> = tree
        .bodies
        .iter()
        .zip(&in_core)
        .map(|(b, a)| (b.id, a.acc))
        .collect();
    // Out-of-core.
    let ooc = OocGravity::create(&path, bodies, 64, 128).unwrap();
    let (pairs, _) = ooc.accelerations(&cfg).unwrap();
    let mut num = 0.0;
    let mut den = 0.0;
    for (id, a) in &pairs {
        let e = by_id[id];
        for d in 0..3 {
            num += (a.acc[d] - e[d]).powi(2);
            den += e[d] * e[d];
        }
    }
    // Different leaf granularity -> slightly different MAC decisions;
    // both are within the MAC error of the true force.
    let diff = (num / den).sqrt();
    assert!(diff < 5e-3, "in-core vs out-of-core rms {diff}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn periodic_box_forms_halos() {
    use space_simulator::cosmo::expansion::Cosmology;
    use space_simulator::cosmo::halos::fof_halos;
    use space_simulator::cosmo::integrate::BoxSimulation;
    use space_simulator::cosmo::power::PowerSpectrum;
    use space_simulator::cosmo::zeldovich;

    let ps = PowerSpectrum::new(Cosmology::eds());
    // A small box: modes go nonlinear quickly.
    let field = zeldovich::realize(&ps, 8, 30.0, 17);
    let mut bodies = zeldovich::particles(&field, &Cosmology::eds(), 0.2, 1.0);
    for b in &mut bodies {
        for d in 0..3 {
            b.pos[d] /= 30.0;
            b.vel[d] /= 30.0;
        }
    }
    let mut sim = BoxSimulation::new(bodies, 1.0, 0.2, 0.6, 0.01);
    sim.run_to(0.8, 0.02);
    let mean_sep = 1.0 / 8.0;
    let halos = fof_halos(&sim.bodies, 0.2 * mean_sep, 8);
    assert!(!halos.is_empty(), "no halos formed");
    // The biggest halo holds a meaningful mass fraction.
    assert!(halos[0].mass > 0.02, "largest halo mass {}", halos[0].mass);
}

#[test]
fn dissipationless_collapse_virializes_into_a_triaxial_halo() {
    // The galactic-dynamics application of §4.1 (reference [18]: "Dark
    // halos formed via dissipationless collapse"): a cold sphere
    // collapses, relaxes, and settles near virial equilibrium with a
    // triaxial shape.
    use space_simulator::hot::direct::direct_energy;
    use space_simulator::hot::gravity::GravityConfig;
    use space_simulator::hot::integrate::Simulation;
    use space_simulator::hot::models::cold_sphere;

    let bodies = cold_sphere(700, 2003);
    let cfg = GravityConfig {
        theta: 0.6,
        eps: 0.05,
        ..Default::default()
    };
    let mut sim = Simulation::new(bodies, cfg, 0.01);
    // Free-fall time of the unit sphere is t_ff = pi/2 * sqrt(R^3/2GM)
    // ~ 1.11; run past collapse and through a few relaxation times.
    sim.run(300);
    let (k, w) = direct_energy(&sim.bodies, 0.05);
    let virial = 2.0 * k / w.abs();
    assert!(
        (virial - 1.0).abs() < 0.35,
        "not virialized: 2K/|W| = {virial}"
    );
    // Shape from the inertia tensor of the inner half of the mass.
    let mut radii: Vec<f64> = sim
        .bodies
        .iter()
        .map(|b| (b.pos[0].powi(2) + b.pos[1].powi(2) + b.pos[2].powi(2)).sqrt())
        .collect();
    radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let r_half = radii[sim.bodies.len() / 2];
    let mut inertia = [[0.0f64; 3]; 3];
    for b in &sim.bodies {
        let r2: f64 = b.pos.iter().map(|x| x * x).sum();
        if r2.sqrt() > r_half {
            continue;
        }
        for i in 0..3 {
            for j in 0..3 {
                inertia[i][j] += b.mass * b.pos[i] * b.pos[j];
            }
        }
    }
    // The reference-[18] result: dissipationless cold collapse drives
    // the radial-orbit instability, leaving a distinctly NON-spherical
    // (prolate/triaxial) halo — but still a bound, 3-D object.
    let diag = [inertia[0][0], inertia[1][1], inertia[2][2]];
    let max = diag.iter().cloned().fold(f64::MIN, f64::max);
    let min = diag.iter().cloned().fold(f64::MAX, f64::min);
    assert!(min > 0.0);
    assert!(max / min > 1.3, "suspiciously spherical: {diag:?}");
    assert!(max / min < 20.0, "degenerate shape: {diag:?}");
}
