//! The treecode throughput model (Table 6).
//!
//! The model: per-processor treecode Mflop/s = gravity-kernel rate ×
//! step efficiency, where the efficiency accounts for the non-force
//! phases (tree build, domain decomposition, moments — charged as a
//! fixed fraction calibrated once on the Space Simulator row) and the
//! communication time of the request traffic through the machine's
//! network profile.

use crate::machines::MachineSpec;

/// Fraction of a timestep spent outside the force inner loop (tree
/// build, decomposition, moments). Calibrated once so the Space
/// Simulator row of Table 6 reproduces; every other machine is then a
/// prediction.
pub const NON_FORCE_FRACTION: f64 = 0.15;

/// Mean interactions per particle for the production accuracy settings
/// (θ ≈ 0.6, quadrupoles), measured from our own traversal.
pub const INTERACTIONS_PER_PARTICLE: f64 = 250.0;

/// Flops per interaction (the paper's counting).
pub const FLOPS_PER_INTERACTION: f64 = 38.0;

/// Cell-fetch traffic per particle per step, bytes (requests + replies,
/// amortized; batched into ~4 kB messages).
pub const COMM_BYTES_PER_PARTICLE: f64 = 60.0;
const BATCH_BYTES: usize = 4096;

/// Predicted treecode performance of `machine` running `n_particles`
/// on `procs` processors: `(total Gflop/s, Mflops/proc)`.
pub fn treecode_model(machine: &MachineSpec, procs: u32, n_particles: f64) -> (f64, f64) {
    let n_per = n_particles / procs as f64;
    let kernel_mflops = machine.cpu.best_mflops();
    // Force phase.
    let flops_per_proc = n_per * INTERACTIONS_PER_PARTICLE * FLOPS_PER_INTERACTION;
    let t_force = flops_per_proc / (kernel_mflops * 1e6);
    // Non-force phases.
    let t_other = t_force * NON_FORCE_FRACTION / (1.0 - NON_FORCE_FRACTION);
    // Communication: batched cell traffic through the profile.
    let bytes = n_per * COMM_BYTES_PER_PARTICLE * (procs as f64).ln().max(1.0) / 8.0;
    let msgs = (bytes / BATCH_BYTES as f64).ceil();
    let t_comm = msgs * machine.profile.transfer_time(BATCH_BYTES);
    let t_step = t_force + t_other + t_comm;
    let mflops_per_proc = flops_per_proc / t_step / 1e6;
    let total_gflops = mflops_per_proc * procs as f64 / 1e3;
    (total_gflops, mflops_per_proc)
}

/// The Table 6 problem size the paper ran (a fixed per-proc load keeps
/// the comparison fair across machine sizes; the paper used the same
/// spherical problem scaled to each machine).
pub fn table6_particles(procs: u32) -> f64 {
    procs as f64 * 200_000.0
}

/// Regenerate Table 6: `(name, procs, model Gflop/s, model Mflops/proc,
/// paper Gflop/s, paper Mflops/proc)`.
pub fn table6() -> Vec<(&'static str, u32, f64, f64, f64, f64)> {
    MachineSpec::table6_machines()
        .into_iter()
        .zip(MachineSpec::table6_paper_values())
        .map(|((m, procs), (name, paper_total, paper_per))| {
            let (total, per) = treecode_model(&m, procs, table6_particles(procs));
            (name, procs, total, per, paper_total, paper_per)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_simulator_row_is_calibrated() {
        let ss = MachineSpec::space_simulator();
        let (total, per) = treecode_model(&ss, 288, table6_particles(288));
        // Paper: 179.7 Gflop/s, 623.9 Mflops/proc.
        assert!((per - 623.9).abs() / 623.9 < 0.05, "per-proc {per}");
        assert!((total - 179.7).abs() / 179.7 < 0.05, "total {total}");
    }

    #[test]
    fn table6_shape_holds() {
        let rows = table6();
        for (name, _, total, per, paper_total, paper_per) in &rows {
            // Factor-of-2 agreement per row is the target for a model
            // with one calibrated constant.
            let rt = total / paper_total;
            let rp = per / paper_per;
            assert!(
                rt > 0.45 && rt < 2.2,
                "{name}: total {total} vs paper {paper_total}"
            );
            assert!(
                rp > 0.45 && rp < 2.2,
                "{name}: per-proc {per} vs paper {paper_per}"
            );
        }
        // Ordering claims the paper makes: ASCI QB fastest in total;
        // SS per-proc close behind QB and far ahead of the 1996 crowd.
        let total_of = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().2;
        let per_of = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().3;
        assert!(total_of("ASCI QB") > total_of("Space Simulator"));
        assert!(total_of("Space Simulator") > total_of("IBM SP-3(375/W)"));
        assert!(per_of("Space Simulator") > 4.0 * per_of("Loki"));
    }

    #[test]
    fn whole_ss_comparable_to_256_procs_of_asci_q() {
        // §4.2: "the performance of the full Space Simulator cluster is
        // similar to that of 256 processors on ASCI Q".
        let ss = treecode_model(&MachineSpec::space_simulator(), 288, table6_particles(288)).0;
        let q256 = treecode_model(&MachineSpec::asci_qb(), 256, table6_particles(256)).0;
        let ratio = ss / q256;
        assert!(ratio > 0.6 && ratio < 1.6, "SS/Q256 = {ratio}");
    }

    #[test]
    fn gigabit_beats_fast_ethernet_at_scale() {
        // Same CPU, different network: the GigE machine should hold its
        // per-proc rate better at 288 procs.
        let ss = MachineSpec::space_simulator();
        let mut slow = ss.clone();
        slow.profile = netsim::LibraryProfile::fast_ethernet();
        let (_, fast_per) = treecode_model(&ss, 288, table6_particles(288));
        let (_, slow_per) = treecode_model(&slow, 288, table6_particles(288));
        assert!(fast_per > slow_per, "{fast_per} vs {slow_per}");
    }
}
