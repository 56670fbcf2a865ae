//! Tree-based smoothed particle hydrodynamics with grey flux-limited
//! diffusion neutrino transport — the paper's §4.4 supernova code.
//!
//! "By implementing the smooth particle hydrodynamics formalism onto the
//! tree structure described above for N-body studies, we have been able
//! to include both the essential physics and a flux-limited diffusion
//! algorithm to model the neutrino transport."
//!
//! Modules:
//! * [`kernel`] — the cubic-spline (M4) smoothing kernel and gradient;
//! * [`neighbors`] — neighbour search over the `hot` oct-tree;
//! * [`particle`] — the SPH particle state;
//! * [`density`] — density summation with adaptive smoothing lengths;
//! * [`eos`] — gamma-law and nuclear-stiffening equations of state;
//! * [`forces`] — momentum and energy equations with Monaghan
//!   artificial viscosity, plus tree gravity;
//! * [`neutrino`] — grey flux-limited diffusion on particles;
//! * [`integrate`] — CFL-limited leapfrog step and the one-rank driver;
//! * [`collapse`] — rotating-polytrope core-collapse setup (Figure 8);
//! * [`sedov`] — the Sedov–Taylor blast validation problem;
//! * [`parallel`] — domain-decomposed SPH with ghost exchange over the
//!   message-passing layer (§4.4's distributed runs), the one right-hand
//!   side and stepper.

// Numeric kernels index several parallel arrays in lockstep; the
// iterator-adapter rewrites clippy suggests obscure that.
#![allow(clippy::needless_range_loop)]

pub mod collapse;
pub mod density;
pub mod eos;
pub mod forces;
pub mod integrate;
pub mod kernel;
pub mod neighbors;
pub mod neutrino;
pub mod parallel;
pub mod particle;
pub mod sedov;

pub use eos::Eos;
pub use integrate::{SphConfig, SphSimulation};
pub use particle::SphParticle;
