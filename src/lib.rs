//! Umbrella crate for the Space Simulator reproduction.
//!
//! Re-exports every subsystem so examples and integration tests can use one
//! dependency. See the individual crates for documentation:
//!
//! * [`hot`] — the hashed oct-tree N-body library (the paper's §4.2);
//! * [`msg`] — MPI-like message passing with virtual-time accounting;
//! * [`netsim`] — the Gigabit-Ethernet switch-fabric model (§3.1);
//! * [`nodesim`] — node roofline models, pricing, reliability (§2, §3.2);
//! * [`kernels`] — STREAM, NPB operation counts, gravity micro-kernel (§3);
//! * [`sph`] — smoothed particle hydrodynamics + neutrino transport (§4.4);
//! * [`cosmo`] — cosmological initial conditions and integration (§4.3);
//! * [`cluster`] — assembled simulated machines and experiment runners.

pub use cluster;
pub use cosmo;
pub use hot;
pub use kernels;
pub use msg;
pub use netsim;
pub use nodesim;
pub use sph;
