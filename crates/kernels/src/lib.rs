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
//!   Tables 3–4 / Figures 4–5. Those exhibits time this model, not the
//!   solvers below.
//!
//! Re-implemented from their public problem definitions and run only by
//! verification oracles (`tests/kernels_verification.rs`,
//! `tests/distributed.rs`), not by any exhibit or ledger row:
//!
//! * [`ft`] — the NPB FT pseudo-application, over [`fft`] (the complex
//!   FFT itself is also `cosmo`'s: Zel'dovich ICs and P(k));
//! * [`cg`] — conjugate gradient with a random sparse SPD matrix;
//! * [`mg`] — 3-D multigrid V-cycle Poisson solver;
//! * [`is`] — integer bucket sort (message-passing);
//! * [`hpl`] — blocked LU with partial pivoting (Linpack), serial and
//!   distributed, §3.3.
//!
//! NPB BT, SP, LU and EP exist here only as [`npb`] operation counts.
//! SPEC CPU2000 is proprietary and cannot be re-implemented; Table 2's
//! SPEC rows come from the calibrated roofline model in `nodesim`.

// Numeric kernels index several parallel arrays in lockstep; the
// iterator-adapter rewrites clippy suggests obscure that.
#![allow(clippy::needless_range_loop)]

pub mod cg;
pub mod fft;
pub mod ft;
pub mod gravity_kernel;
pub mod hpl;
pub mod is;
pub mod mg;
pub mod npb;
pub mod stream;
