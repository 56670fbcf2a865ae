//! `hot` — the Hashed Oct-Tree parallel N-body library.
//!
//! This crate is a from-scratch Rust implementation of the algorithm at the
//! heart of the Space Simulator paper (§4.1–4.2), the Warren–Salmon hashed
//! oct-tree ("HOT") method:
//!
//! * bodies are assigned **keys** by Morton-ordering their coordinates
//!   ([`morton`]), mapping 3-D space onto a locality-preserving 1-D list;
//! * the **domain decomposition** splits that list into `N_p` pieces,
//!   weighted by the work associated with each body ([`domain`]) — it is
//!   "practically identical to a parallel sorting algorithm";
//! * the key scheme implicitly defines the tree topology — parents,
//!   daughters and neighbours are computed by bit manipulation alone —
//!   and a **hash table** translates a key into the cell's storage
//!   location ([`hash`], [`tree`]);
//! * forces come from a **tree traversal** that accepts distant cells via
//!   a multipole acceptance criterion and opens nearby ones
//!   ([`mac`], [`multipole`], [`traverse`], [`gravity`]);
//! * in parallel, the hash-table indirection catches accesses to
//!   non-local cells: the traversal **suspends** the affected walk in a
//!   software queue ("explicit context switching"), batches the request
//!   via asynchronous batched messages, and resumes when the remote data
//!   arrives ([`parallel`]).
//!
//! A direct O(N²) summation ([`direct`]), particle models ([`models`]),
//! a leapfrog integrator ([`integrate`]), and the out-of-core engine for
//! problems larger than memory ([`outofcore`], the paper's §4.3
//! reference \[10\]) complete the library.

// Numeric kernels index several parallel arrays in lockstep; the
// iterator-adapter rewrites clippy suggests obscure that.
#![allow(clippy::needless_range_loop)]

pub use body::morton;

pub mod direct;
pub mod domain;
pub mod gravity;
pub mod hash;
pub mod ilist;
pub mod integrate;
pub mod mac;
pub mod models;
pub mod multipole;
pub mod outofcore;
pub mod parallel;
pub mod traverse;
pub mod tree;

pub use direct::direct_accelerations;
pub use gravity::{Accel, GravityConfig};
pub use mac::Mac;
pub use morton::{BBox, Key};
pub use traverse::{tree_accelerations, TraverseStats};
pub use tree::{Body, Cell, Tree};
