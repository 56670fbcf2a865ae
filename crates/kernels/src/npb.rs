//! NAS Parallel Benchmark metadata: problem classes, operation counts and
//! communication patterns.
//!
//! The full-scale NPB classes (C and D run on 64–256 processors in
//! Tables 3–4 and Figures 4–5) are far beyond a laptop, so the cluster
//! models use this metadata — operation counts from the NPB problem
//! definitions and per-iteration communication volumes from the
//! benchmarks' decomposition schemes — while the kernels themselves are
//! validated at small sizes by the sibling modules.

/// The eight NPB benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    BT,
    SP,
    LU,
    MG,
    CG,
    FT,
    IS,
    EP,
}

impl Benchmark {
    pub const ALL: [Benchmark; 8] = [
        Benchmark::BT,
        Benchmark::SP,
        Benchmark::LU,
        Benchmark::MG,
        Benchmark::CG,
        Benchmark::FT,
        Benchmark::IS,
        Benchmark::EP,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::BT => "BT",
            Benchmark::SP => "SP",
            Benchmark::LU => "LU",
            Benchmark::MG => "MG",
            Benchmark::CG => "CG",
            Benchmark::FT => "FT",
            Benchmark::IS => "IS",
            Benchmark::EP => "EP",
        }
    }
}

/// NPB problem classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    S,
    W,
    A,
    B,
    C,
    D,
}

impl Class {
    pub fn name(&self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
            Class::D => "D",
        }
    }
}

/// A sized problem instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Problem {
    pub benchmark: Benchmark,
    pub class: Class,
    /// Grid side (BT/SP/LU/MG), FT x-dimension, CG matrix order, IS/EP
    /// problem exponent base size.
    pub size: [usize; 3],
    pub iterations: usize,
    /// Total operations for the full run, in Gop (NPB's own counting).
    pub total_gops: f64,
}

/// Look up a problem instance. Sizes and iteration counts follow the NPB
/// 2.4 / 3.0 definitions; total operation counts are from the official
/// NPB reports (class A anchors) scaled by the defining complexity
/// formulas for the other classes (documented in EXPERIMENTS.md).
pub fn problem(benchmark: Benchmark, class: Class) -> Problem {
    use Benchmark::*;
    use Class::*;
    // (size, iterations) per class.
    let (size, iterations): ([usize; 3], usize) = match (benchmark, class) {
        (BT, S) => ([12; 3], 60),
        (BT, W) => ([24; 3], 200),
        (BT, A) => ([64; 3], 200),
        (BT, B) => ([102; 3], 200),
        (BT, C) => ([162; 3], 200),
        (BT, D) => ([408; 3], 250),
        (SP, S) => ([12; 3], 100),
        (SP, W) => ([36; 3], 400),
        (SP, A) => ([64; 3], 400),
        (SP, B) => ([102; 3], 400),
        (SP, C) => ([162; 3], 400),
        (SP, D) => ([408; 3], 500),
        (LU, S) => ([12; 3], 50),
        (LU, W) => ([33; 3], 300),
        (LU, A) => ([64; 3], 250),
        (LU, B) => ([102; 3], 250),
        (LU, C) => ([162; 3], 250),
        (LU, D) => ([408; 3], 300),
        (MG, S) => ([32; 3], 4),
        (MG, W) => ([128; 3], 4),
        (MG, A) => ([256; 3], 4),
        (MG, B) => ([256; 3], 20),
        (MG, C) => ([512; 3], 20),
        (MG, D) => ([1024; 3], 50),
        (CG, S) => ([1400, 1, 1], 15),
        (CG, W) => ([7000, 1, 1], 15),
        (CG, A) => ([14000, 1, 1], 15),
        (CG, B) => ([75000, 1, 1], 75),
        (CG, C) => ([150000, 1, 1], 75),
        (CG, D) => ([1_500_000, 1, 1], 100),
        (FT, S) => ([64, 64, 64], 6),
        (FT, W) => ([128, 128, 32], 6),
        (FT, A) => ([256, 256, 128], 6),
        (FT, B) => ([512, 256, 256], 20),
        (FT, C) => ([512, 512, 512], 20),
        (FT, D) => ([2048, 1024, 1024], 25),
        (IS, S) => ([1 << 16, 1, 1], 10),
        (IS, W) => ([1 << 20, 1, 1], 10),
        (IS, A) => ([1 << 23, 1, 1], 10),
        (IS, B) => ([1 << 25, 1, 1], 10),
        (IS, C) => ([1 << 27, 1, 1], 10),
        (IS, D) => ([1 << 31, 1, 1], 10),
        (EP, S) => ([1 << 24, 1, 1], 1),
        (EP, W) => ([1 << 25, 1, 1], 1),
        (EP, A) => ([1 << 28, 1, 1], 1),
        (EP, B) => ([1 << 30, 1, 1], 1),
        (EP, C) => ([1 << 32, 1, 1], 1),
        (EP, D) => ([1u64 << 36, 1, 1].map(|x| x as usize), 1),
    };
    // Class-A anchored operation counts (Gop), scaled by complexity.
    let points = (size[0] as f64) * (size[1] as f64) * (size[2] as f64);
    let iters = iterations as f64;
    let total_gops = match benchmark {
        // Grid codes: ops ∝ points × iterations. Class A anchors:
        // BT 168.3, SP 102.0, LU 119.3, MG 3.625 Gop.
        BT => 168.3 * (points * iters) / (64.0f64.powi(3) * 200.0),
        SP => 102.0 * (points * iters) / (64.0f64.powi(3) * 400.0),
        LU => 119.3 * (points * iters) / (64.0f64.powi(3) * 250.0),
        MG => 3.625 * (points * iters) / (256.0f64.powi(3) * 4.0),
        // CG: ops ∝ n·nz_per_row·inner_iters·outer; anchor A = 1.508 Gop.
        CG => 1.508 * (size[0] as f64 * iters) / (14000.0 * 15.0),
        // FT: ops ∝ points·log2(points)·iters; anchor A = 7.16 Gop.
        FT => {
            let a_pts: f64 = 256.0 * 256.0 * 128.0;
            7.16 * (points * points.log2() * iters) / (a_pts * a_pts.log2() * 6.0)
        }
        // IS: integer ops ∝ keys·iters; anchor A = 0.78 Gop.
        IS => 0.78 * (points * iters) / ((1u64 << 23) as f64 * 10.0),
        // EP: ops ∝ pairs; anchor A = 26.68 Gop.
        EP => 26.68 * points / (1u64 << 28) as f64,
    };
    Problem {
        benchmark,
        class,
        size,
        iterations,
        total_gops,
    }
}

/// One communication event per iteration per process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// Messages per process per iteration.
    pub messages: f64,
    /// Bytes per message.
    pub bytes: f64,
    /// True for all-to-all style traffic (stresses shared fabric
    /// segments); false for neighbor halo exchanges.
    pub all_to_all: bool,
}

impl Problem {
    /// Communication events per iteration for a `p`-process run, from the
    /// benchmark's decomposition scheme.
    pub fn comm_per_iteration(&self, p: usize) -> Vec<CommEvent> {
        let pf = p as f64;
        if p <= 1 {
            return Vec::new();
        }
        let n = self.size[0] as f64;
        match self.benchmark {
            // BT/SP: multi-partition 3-D decomposition; each sweep ships
            // cell faces of (n/√p)² points × 5 variables, 6 sweeps/iter.
            Benchmark::BT | Benchmark::SP => {
                let face = (n / pf.sqrt()).powi(2) * 5.0 * 8.0;
                vec![CommEvent {
                    messages: 6.0,
                    bytes: face,
                    all_to_all: false,
                }]
            }
            // LU: 2-D pencil decomposition, wavefront: many small
            // messages — n/√p wide strips, 4 per sweep, 2 sweeps.
            Benchmark::LU => {
                let strip = (n / pf.sqrt()) * 5.0 * 8.0;
                vec![CommEvent {
                    messages: 8.0 * (n / pf.sqrt()).max(1.0),
                    bytes: strip,
                    all_to_all: false,
                }]
            }
            // MG: halo exchange at ~4 effective levels, 6 faces each.
            Benchmark::MG => {
                let face = (n / pf.cbrt()).powi(2) * 8.0;
                vec![CommEvent {
                    messages: 24.0,
                    bytes: face,
                    all_to_all: false,
                }]
            }
            // CG: two dot-product allreduces plus a row-exchange of the
            // vector slice, 25 inner iterations per outer step.
            Benchmark::CG => {
                let slice = (self.size[0] as f64 / pf.sqrt()) * 8.0;
                vec![
                    CommEvent {
                        messages: 50.0 * (pf.log2().ceil()),
                        bytes: 16.0,
                        all_to_all: false,
                    },
                    CommEvent {
                        messages: 50.0,
                        bytes: slice,
                        all_to_all: false,
                    },
                ]
            }
            // FT: full transpose: each process sends its grid share to
            // every other process, twice per iteration (fwd + inv).
            Benchmark::FT => {
                let points = (self.size[0] * self.size[1] * self.size[2]) as f64;
                let share = points * 16.0 / pf;
                vec![CommEvent {
                    messages: 2.0 * (pf - 1.0),
                    bytes: share / pf,
                    all_to_all: true,
                }]
            }
            // IS: alltoallv of the key array + histogram allreduce.
            Benchmark::IS => {
                let keys = self.size[0] as f64 * 4.0 / pf;
                vec![
                    CommEvent {
                        messages: pf - 1.0,
                        bytes: keys / pf,
                        all_to_all: true,
                    },
                    CommEvent {
                        messages: pf.log2().ceil(),
                        bytes: 4096.0,
                        all_to_all: false,
                    },
                ]
            }
            // EP: one tiny allreduce for the whole run.
            Benchmark::EP => vec![CommEvent {
                messages: pf.log2().ceil() / self.iterations as f64,
                bytes: 80.0,
                all_to_all: false,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_a_anchors_match_npb_reports() {
        assert!((problem(Benchmark::BT, Class::A).total_gops - 168.3).abs() < 0.1);
        assert!((problem(Benchmark::SP, Class::A).total_gops - 102.0).abs() < 0.1);
        assert!((problem(Benchmark::LU, Class::A).total_gops - 119.3).abs() < 0.1);
        assert!((problem(Benchmark::MG, Class::A).total_gops - 3.625).abs() < 0.01);
        assert!((problem(Benchmark::CG, Class::A).total_gops - 1.508).abs() < 0.01);
        assert!((problem(Benchmark::FT, Class::A).total_gops - 7.16).abs() < 0.01);
    }

    #[test]
    fn classes_grow_monotonically() {
        for b in Benchmark::ALL {
            let mut last = 0.0;
            for c in [Class::S, Class::W, Class::A, Class::B, Class::C, Class::D] {
                let g = problem(b, c).total_gops;
                assert!(
                    g > last,
                    "{} class {} = {g} not bigger than previous {last}",
                    b.name(),
                    c.name()
                );
                last = g;
            }
        }
    }

    #[test]
    fn class_c_is_much_bigger_than_class_a() {
        for b in [Benchmark::BT, Benchmark::SP, Benchmark::LU] {
            let a = problem(b, Class::A).total_gops;
            let c = problem(b, Class::C).total_gops;
            assert!(c / a > 10.0, "{}: C/A = {}", b.name(), c / a);
        }
    }

    #[test]
    fn comm_volume_shrinks_per_proc_with_p() {
        let p1 = problem(Benchmark::BT, Class::C);
        let v = |p: usize| -> f64 {
            p1.comm_per_iteration(p)
                .iter()
                .map(|e| e.messages * e.bytes)
                .sum()
        };
        assert!(v(64) > v(256), "{} vs {}", v(64), v(256));
    }

    #[test]
    fn ft_is_all_to_all() {
        let p = problem(Benchmark::FT, Class::C);
        assert!(p.comm_per_iteration(64).iter().any(|e| e.all_to_all));
        let bt = problem(Benchmark::BT, Class::C);
        assert!(bt.comm_per_iteration(64).iter().all(|e| !e.all_to_all));
    }

    #[test]
    fn single_proc_needs_no_communication() {
        for b in Benchmark::ALL {
            assert!(problem(b, Class::A).comm_per_iteration(1).is_empty());
        }
    }
}
