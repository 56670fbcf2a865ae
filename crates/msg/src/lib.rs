//! MPI-like message passing over threads, with virtual-time accounting.
//!
//! The Space Simulator's applications are MPI programs. This crate is the
//! substrate they run on in this reproduction: every "processor" is a
//! thread, messages travel over in-process channels, and — because the
//! machine we are modeling no longer exists — every rank additionally
//! maintains a **virtual clock** advanced by:
//!
//! * modeled computation time ([`Comm::compute`], using the node's
//!   roofline model from `nodesim`), and
//! * modeled communication time (send/receive overheads from the MPI
//!   library profile plus transfer time through the `netsim` switch
//!   fabric, including contention on module uplinks and the trunk).
//!
//! The result is a program that really runs in parallel (so correctness is
//! tested for real) while reporting the execution time it would have had
//! on the 294-node cluster. The timestamp rule — a receive completes at
//! `max(local clock + overhead, message arrival time)` — makes virtual
//! time causally consistent for deterministic programs.
//!
//! A run is described once, on the [`World`] builder — machine and rank
//! count, plus whichever of a [`FaultPlan`], an adversarial [`SchedPlan`],
//! a recorded [`ScheduleLog`] to replay, a restart `clock0` and a trace
//! recorder it carries — and started with [`World::run`], the one loop
//! that spawns the rank threads and classifies how they ended. Swapping
//! what is underneath a program never changes its entry point: [`run`],
//! [`run_with`] and [`run_observed`] are shorthands for the plain world.
//!
//! Modules:
//! * [`world`] — the [`World`] builder and its spawn/join/classify loop;
//! * [`comm`] — the endpoint: clock, mailbox, tag-matched send/recv, spans
//!   and the one loop in which a rank waits;
//! * [`transport`] — the reliable transport underneath a faulted world;
//! * [`health`] — the heartbeat failure detector inside that transport;
//! * [`collectives`] — barrier, broadcast, reduce, allreduce, allgather,
//!   alltoallv, scan;
//! * [`abm`] — "asynchronous batched messages": the paper's §4.2 paradigm
//!   (batched active-message-style traffic with Dijkstra-token
//!   termination detection);
//! * [`fault`] — seeded fault plans (loss, corruption, duplication,
//!   reordering, dead switch ports, rank crashes) and the failure
//!   detector's tuning;
//! * [`sched`] — adversarial delivery schedules (the wildcard-match
//!   policy), their decision logs and the liveness watchdogs;
//! * [`machine`] — the (node model, fabric) pair a world runs on;
//! * [`payload`] — the trait giving each message a wire size;
//! * [`replicated`] — [`Comm::replicated`]: work every rank would repeat
//!   on bit-identical input is evaluated once on the host and shared;
//! * [`sort`] — parallel sample sort, the backbone of the treecode's
//!   domain decomposition.

pub mod abm;
pub mod collectives;
pub mod comm;
pub mod fault;
pub mod health;
pub mod machine;
pub mod payload;
pub mod replicated;
pub mod sched;
pub mod sort;
pub mod transport;
pub mod world;

pub use abm::{Abm, Termination};
pub use comm::{run, run_observed, run_with, Comm, CommStats, FaultStats, Tag};
pub use fault::{CrashEvent, FaultPlan, HeartbeatConfig, RetransmitConfig, SplitMix64};
pub use machine::Machine;
pub use payload::Payload;
pub use replicated::BitEq;
pub use sched::{SchedPlan, ScheduleLog};
pub use world::{World, WorldOutcome, WorldRun};
