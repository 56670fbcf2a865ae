//! The serial group walk allocates nothing in steady state: after one
//! warm-up pass over a tree, a second pass of `gather_leaves` →
//! `materialize` → `eval_group` makes no heap allocation at all.
//!
//! The count comes from the global allocator, so it sees every
//! allocation the walk makes, not only growth of the buffers it keeps.
//! It is per thread: the test harness's other threads do not show up.

use hot::gravity::{Accel, GravityConfig};
use hot::ilist::{self, IlistScratch};
use hot::models::plummer;
use hot::tree::{CellIdx, Tree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting each thread's allocations. `GlobalAlloc`'s default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they count too.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: an allocation during thread teardown is not counted.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread has made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn steady_state_group_walk_is_allocation_free() {
    let tree = Tree::build(plummer(2_000, 91), 16);
    let cfg = GravityConfig {
        theta: 0.6,
        eps: 0.01,
        ..Default::default()
    };
    let leaves: Vec<CellIdx> = (0..tree.cells.len() as CellIdx)
        .filter(|&ci| tree.cell(ci).is_leaf && tree.cell(ci).nbody > 0)
        .collect();
    let mut sc = IlistScratch::new();
    let mut out = vec![Accel::default(); tree.leaf_max];
    let mut pass = || {
        for group in leaves.chunks(ilist::LEAVES) {
            ilist::gather_leaves(&tree, group, &cfg, &mut sc);
            for k in 0..group.len() {
                let gi = ilist::materialize(&mut sc, k);
                let nb = tree.cell(gi).nbody as usize;
                ilist::eval_group(&tree, gi, &cfg, &sc, &mut out[..nb]);
            }
        }
    };
    // Warm-up pass: the shared list, its masks, the index buffer and the
    // per-leaf spans grow to their steady-state capacity.
    let warm = allocations_in(&mut pass);
    assert!(warm > 0, "warm-up must have allocated");
    // Steady state: no allocation across a full second pass.
    assert_eq!(allocations_in(&mut pass), 0, "steady-state walk allocated");
}
