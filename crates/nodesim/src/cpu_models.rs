//! Per-processor models for the gravity micro-kernel study (Table 5).
//!
//! The paper's micro-kernel is the inner loop of the treecode's force
//! calculation: a softened monopole interaction whose only "hard" operation
//! is a reciprocal square root. The paper counts 38 flops per interaction
//! (the community convention for this kernel) and compares two variants:
//!
//! * **libm** — `1/sqrt(r2)` via the math library's `sqrt` plus a divide;
//! * **Karp** — A. Karp's decomposition of the reciprocal square root into
//!   a table lookup, Chebyshev interpolation and a Newton–Raphson step,
//!   using only adds and multiplies (so it pipelines).
//!
//! We model each processor with two micro-architectural parameters:
//! `karp_flops_per_cycle` (the sustained multiply–add throughput of the
//! fully pipelined Karp variant) and `sqrt_div_cycles` (the unpipelined
//! latency of the sqrt+divide pair in the libm variant). Of the 38 flops,
//! [`RSQRT_FLOPS`] are attributed to the reciprocal-sqrt sequence itself.
//!
//! The parameters below were fitted to the paper's measurements and are
//! micro-architecturally sensible: e.g. the P4's hardware `fsqrt` comes out
//! at ~34 cycles (its documented latency is 38) while the Alpha EV56,
//! which does sqrt in software, comes out at ~204 cycles.

/// Flops of the 38-flop interaction attributed to the reciprocal sqrt.
pub const RSQRT_FLOPS: f64 = 10.0;
/// Total flops charged per particle-particle interaction.
pub const INTERACTION_FLOPS: f64 = 38.0;

/// Micro-architectural model of one processor for the gravity kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuKernelModel {
    pub name: &'static str,
    pub clock_mhz: f64,
    /// Sustained flops/cycle of the all-adds-and-multiplies Karp variant.
    pub karp_flops_per_cycle: f64,
    /// Unpipelined cycles for the sqrt + divide in the libm variant.
    pub sqrt_div_cycles: f64,
}

impl CpuKernelModel {
    /// Mflop/s of the Karp variant: fully pipelined multiply–add code.
    pub fn karp_mflops(&self) -> f64 {
        self.clock_mhz * self.karp_flops_per_cycle
    }

    /// Mflop/s of the libm variant: the non-rsqrt flops run at the Karp
    /// rate; the rsqrt is replaced by an unpipelined sqrt + divide.
    pub fn libm_mflops(&self) -> f64 {
        let pipelined = (INTERACTION_FLOPS - RSQRT_FLOPS) / self.karp_flops_per_cycle;
        let cycles = pipelined + self.sqrt_div_cycles;
        INTERACTION_FLOPS * self.clock_mhz / cycles
    }

    /// Mflop/s for whichever variant is faster (what a tuned code uses).
    pub fn best_mflops(&self) -> f64 {
        self.karp_mflops().max(self.libm_mflops())
    }
}

/// The eleven rows of Table 5, in the paper's order.
pub fn table5_cpus() -> Vec<CpuKernelModel> {
    let rows: &[(&str, f64, f64, f64)] = &[
        ("533-MHz Alpha EV56", 533.0, 0.454, 204.0),
        ("667-MHz Transmeta TM5600", 667.0, 0.446, 134.0),
        ("933-MHz Transmeta TM5800", 933.0, 0.400, 117.0),
        ("375-MHz IBM Power3", 375.0, 1.372, 27.0),
        ("1133-MHz Intel P3", 1133.0, 0.525, 94.0),
        ("1200-MHz AMD Athlon MP", 1200.0, 0.512, 75.0),
        ("2200-MHz Intel P4", 2200.0, 0.298, 31.0),
        ("2530-MHz Intel P4", 2530.0, 0.313, 34.0),
        ("1800-MHz AMD Athlon XP", 1800.0, 0.529, 59.0),
        ("1250-MHz Alpha 21264C", 1250.0, 0.913, 20.0),
        ("2530-MHz Intel P4 (icc)", 2530.0, 0.536, 30.0),
    ];
    rows.iter()
        .map(|&(name, clock_mhz, fpc, sqrt)| CpuKernelModel {
            name,
            clock_mhz,
            karp_flops_per_cycle: fpc,
            sqrt_div_cycles: sqrt,
        })
        .collect()
}

/// The paper's measured Table 5 values `(name, libm, karp)` for validation.
pub fn table5_paper_values() -> Vec<(&'static str, f64, f64)> {
    vec![
        ("533-MHz Alpha EV56", 76.2, 242.2),
        ("667-MHz Transmeta TM5600", 128.7, 297.5),
        ("933-MHz Transmeta TM5800", 189.5, 373.2),
        ("375-MHz IBM Power3", 298.5, 514.4),
        ("1133-MHz Intel P3", 292.2, 594.9),
        ("1200-MHz AMD Athlon MP", 350.7, 614.0),
        ("2200-MHz Intel P4", 668.0, 655.5),
        ("2530-MHz Intel P4", 779.3, 792.6),
        ("1800-MHz AMD Athlon XP", 609.9, 951.9),
        ("1250-MHz Alpha 21264C", 935.2, 1141.0),
        ("2530-MHz Intel P4 (icc)", 1170.0, 1357.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_reproduce_table5_within_3_percent() {
        let cpus = table5_cpus();
        let paper = table5_paper_values();
        for (cpu, (name, libm, karp)) in cpus.iter().zip(paper) {
            assert_eq!(cpu.name, name);
            let le = (cpu.libm_mflops() - libm).abs() / libm;
            let ke = (cpu.karp_mflops() - karp).abs() / karp;
            assert!(
                le < 0.03,
                "{name} libm: model {} vs {libm}",
                cpu.libm_mflops()
            );
            assert!(
                ke < 0.03,
                "{name} karp: model {} vs {karp}",
                cpu.karp_mflops()
            );
        }
    }

    #[test]
    fn karp_wins_everywhere_except_p4_gcc_2200() {
        // Table 5's striking feature: on the 2200 MHz P4 with gcc, libm
        // beats Karp (the x87 fsqrt is fast relative to the chained x87
        // multiply-adds gcc emits).
        for cpu in table5_cpus() {
            let karp_wins = cpu.karp_mflops() > cpu.libm_mflops();
            if cpu.name == "2200-MHz Intel P4" {
                assert!(!karp_wins, "{}", cpu.name);
            } else if cpu.name == "2530-MHz Intel P4" {
                // Near-tie in the paper (779.3 vs 792.6); accept either.
            } else {
                assert!(karp_wins, "{}", cpu.name);
            }
        }
    }

    #[test]
    fn icc_is_much_faster_than_gcc_on_p4() {
        let row = |name| table5_cpus().into_iter().find(|c| c.name == name).unwrap();
        let gcc = row("2530-MHz Intel P4");
        let icc = row("2530-MHz Intel P4 (icc)");
        assert!(icc.karp_mflops() / gcc.karp_mflops() > 1.5);
        assert!(icc.libm_mflops() / gcc.libm_mflops() > 1.4);
    }

    #[test]
    fn sqrt_latencies_are_microarchitecturally_plausible() {
        for cpu in table5_cpus() {
            assert!(
                cpu.sqrt_div_cycles >= 15.0 && cpu.sqrt_div_cycles <= 250.0,
                "{}: {}",
                cpu.name,
                cpu.sqrt_div_cycles
            );
        }
    }

    #[test]
    fn best_mflops_picks_the_winner() {
        let p4_2200 = table5_cpus()
            .into_iter()
            .find(|c| c.name == "2200-MHz Intel P4")
            .unwrap();
        assert_eq!(p4_2200.best_mflops(), p4_2200.libm_mflops());
    }
}
