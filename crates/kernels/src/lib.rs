//! Benchmark kernels of the Space Simulator paper (§3).
//!
//! What the exhibits and the host benchmark run:
//!
//! * [`stream`] — McCalpin's STREAM (copy/scale/add/triad), §3.2,
//!   measured on the build host as hostbench's
//!   `kernels.stream_triad_gbs` (Table 2 itself is the `nodesim`
//!   roofline);
//! * [`gravity_kernel`] — the §3.6 micro-kernel (libm vs Karp rsqrt),
//!   Table 5;
//! * [`npb`] — NPB problem classes, operation counts and communication
//!   patterns: the analytic model `cluster::npb_run` evaluates for
//!   Tables 3–4 / Figures 4–5. Those exhibits time this model; no NPB
//!   solver is executed;
//! * [`fft`] — the complex 1-D/3-D FFT `cosmo` builds its Zel'dovich
//!   initial conditions and P(k) on.
//!
//! Linpack (Figure 3) is `cluster::linpack_run`'s performance model.
//! SPEC CPU2000 is proprietary and cannot be re-implemented; Table 2's
//! SPEC rows come from the calibrated roofline model in `nodesim`.

// Numeric kernels index several parallel arrays in lockstep; the
// iterator-adapter rewrites clippy suggests obscure that.
#![allow(clippy::needless_range_loop)]

pub mod fft;
pub mod gravity_kernel;
pub mod npb;
pub mod stream;
