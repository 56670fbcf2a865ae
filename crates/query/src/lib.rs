//! `query` — simulation-as-a-service: an interactive query engine over
//! live and checkpointed universes.
//!
//! The Space Simulator's runs were batch jobs: submit, wait, read the
//! output files. This crate grows the cluster into a service — while the
//! replicated N-body universe advances, a seeded open-loop client fleet
//! ([`fleet`]) issues point lookups, region/cone scans, k-nearest-
//! neighbour searches, and time-travel queries against committed
//! checkpoint generations. Queries batch per simulation tick and are
//! answered from one shared spatial index ([`index`]), a Morton-sorted
//! HOT tree over the tick's bodies, each rank from its own span; a
//! per-tick directory ([`route`]) sends each query only to the ranks
//! that can hold part of its answer; distributed
//! execution rides the `msg` virtual-time transport ([`engine`]), with
//! replies merged deterministically so the rank partition is
//! unobservable. A brute-force O(N) oracle ([`oracle`]) defines the
//! semantics every optimized path must reproduce bit for bit.

pub mod engine;
pub mod fleet;
pub mod index;
pub mod oracle;
pub mod past;
pub mod route;
pub mod wire;

pub use engine::{
    replicated_states, run, stripe, EngineConfig, EngineOutput, QueryStats, RecordedReply,
};
pub use fleet::{Arrival, FleetConfig, SplitMix64};
pub use index::QueryIndex;
pub use wire::{Answer, Hit, PointHit, Query, QueryKind, Reply, ReplyBatch, Shape};
