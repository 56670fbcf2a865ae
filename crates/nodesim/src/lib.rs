//! Node-level models of the Space Simulator and its comparison machines.
//!
//! The paper characterizes each node (a Shuttle XPC SS51G with a 2.53 GHz
//! Pentium 4 and DDR333 memory) with STREAM, NPB, SPEC and Linpack runs
//! under four clock configurations (§3.2, Table 2), prices the whole
//! machine (Table 1, Table 7) and models which components fail (§2.1).
//! This crate provides those models:
//!
//! * [`roofline`] — a two-term (CPU + memory-bandwidth) execution model and
//!   the four clock configurations of Table 2;
//! * [`cpu_models`] — per-processor micro-architectural parameters for the
//!   gravity micro-kernel study of Table 5;
//! * [`bom`] — bill-of-materials pricing and price/performance arithmetic;
//! * [`reliability`] — component failure model calibrated to §2.1.

pub mod bom;
pub mod cpu_models;
pub mod reliability;
pub mod roofline;

pub use bom::{Bom, BomItem};
pub use cpu_models::CpuKernelModel;
pub use reliability::{ComponentClass, FailureTally, ReliabilityModel};
pub use roofline::{ClockConfig, NodeModel, WorkloadMix};
