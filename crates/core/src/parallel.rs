//! The distributed HOT traversal: deferred walks, batched requests,
//! latency hiding (§4.2 of the paper).
//!
//! "The level of indirection through a hash table can also be used to
//! catch accesses to non-local data, and allows us to request and receive
//! data from other processors using the global key name space. ... To
//! avoid stalls during non-local data access, we effectively do explicit
//! 'context switching' using a software queue to keep track of which
//! computations have been put aside waiting for messages to arrive."
//!
//! Concretely: a run of up to [`GROUP`] consecutive Morton-sorted local bodies
//! shares one `Walk` with an explicit stack of `(cell, mask)`, the mask
//! naming the bodies that still have to look at that cell. When a walk
//! needs a cell that is not purely local and whose data has not yet
//! arrived, the walk is parked on the pending request and the engine
//! switches to another walk; requests accumulate in asynchronous batched
//! messages ([`msg::Abm`]) and the walk resumes when the merged reply is
//! in. A rank with no runnable walk does not spin: it flushes its batches
//! and sleeps until a request, a reply or the token arrives
//! ([`msg::Comm::await_arrival`]). Quiescence is detected with the Safra
//! token ([`msg::abm::Termination`]).
//!
//! Because the domain decomposition splits a Morton-sorted list, a cell
//! may straddle several ranks. A request for such a cell goes to *every*
//! possible owner; each returns its partial moments, and the requester
//! merges them (the multipole combine is exactly M2M), giving the true
//! global cell.

use crate::domain::{decompose, Decomposition};
use crate::gravity::{self, Accel, GravityConfig};
use crate::hash::KeyMap;
use crate::ilist::{select, Mask};
use crate::mac::Mac;
use crate::morton::{Key, MAX_LEVEL};
use crate::multipole::Multipole;
use crate::traverse::TraverseStats;
use crate::tree::{Body, CellIdx, Tree, NO_CELL};
use msg::abm::Termination;
use msg::{Abm, Comm};
use std::collections::{HashMap, VecDeque};

/// Partial moments of one child octant, as shipped over the wire.
/// `oct == 0xFF` is the per-request completion sentinel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPartial {
    pub parent: u64,
    pub oct: u8,
    pub mass: f64,
    pub com: [f64; 3],
    pub quad: [f64; 6],
    pub bmax: f64,
    pub nbody: u32,
}

impl msg::payload::FixedWire for CellPartial {
    const WIRE: usize = 104;
}

impl CellPartial {
    fn new(parent: u64, oct: u8, mom: &Multipole, nbody: u32) -> CellPartial {
        CellPartial {
            parent,
            oct,
            mass: mom.mass,
            com: mom.com,
            quad: mom.quad,
            bmax: mom.bmax,
            nbody,
        }
    }

    fn moments(&self) -> Multipole {
        Multipole {
            mass: self.mass,
            com: self.com,
            quad: self.quad,
            bmax: self.bmax,
        }
    }
}

/// One body shipped for a remote leaf's P2P phase. `id == u64::MAX` is the
/// completion sentinel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyPart {
    pub cell: u64,
    pub pos: [f64; 3],
    pub mass: f64,
    pub id: u64,
}

impl msg::payload::FixedWire for BodyPart {
    const WIRE: usize = 48;
}

/// Result of a distributed force calculation on this rank.
pub struct ParallelResult {
    /// This rank's bodies after decomposition (key-sorted).
    pub bodies: Vec<Body>,
    /// Acceleration per body (same order as `bodies`).
    pub accel: Vec<Accel>,
    pub stats: TraverseStats,
    /// Requests this rank issued (batches may combine several).
    pub requests: u64,
    /// Virtual time at completion of this rank.
    pub vtime: f64,
}

/// Tuning knobs for the parallel traversal.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    pub gravity: GravityConfig,
    /// Fraction of peak the gravity inner loop sustains (for virtual-time
    /// accounting; the P4/gcc micro-kernel reaches 790 of 5060 Mflop/s).
    pub cpu_eff: f64,
    /// Disable latency hiding: process one walk to completion at a time,
    /// blocking on every remote fetch (the ablation baseline).
    pub latency_hiding: bool,
    /// Adaptive ABM aggregation: flush request/reply batches when they
    /// reach a byte budget or a virtual-time deadline, not only when the
    /// message count fills. Keeps parked walks from waiting on a batch
    /// sized for peak throughput during the sparse tail of a walk phase.
    pub adaptive: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            gravity: GravityConfig::default(),
            cpu_eff: 790.0 / 5060.0,
            latency_hiding: true,
            adaptive: true,
        }
    }
}

/// Requests per ABM batch (replies carry four times as many). With
/// adaptive flushing a sweep of 8…512 moved the virtual step by less
/// than its run-to-run spread, so it is not a knob.
const ABM_BATCH: usize = 64;
/// Wire budget per adaptive batch (about one TCP segment of requests).
const ADAPTIVE_BYTES: usize = 4096;
/// Virtual age at which a partially-filled batch is flushed anyway
/// (a couple of network latencies; see `netsim::LibraryProfile::tcp`).
const ADAPTIVE_DEADLINE_S: f64 = 2.0e-4;

fn tune<M>(abm: Abm<M>, adaptive: bool) -> Abm<M>
where
    M: Send + 'static,
    Vec<M>: msg::payload::Payload,
{
    if adaptive {
        abm.with_byte_budget(ADAPTIVE_BYTES)
            .with_deadline(ADAPTIVE_DEADLINE_S)
    } else {
        abm
    }
}

/// Bodies per walk on a rank with [`WIDE_WALKS`] walks or more. Wider
/// groups share more of the descent but park fewer walks at once, so
/// fewer fetches overlap (measured: DESIGN.md, *Latency hiding*); a
/// [`Mask`] has one bit per body of the group.
const GROUP: usize = 16;
const _: () = assert!(GROUP <= Mask::BITS as usize);

/// Fewest walks of [`GROUP`] bodies a rank walks that wide. A rank with
/// fewer has too few walks to park for 16-wide ones to hide its fetches,
/// and walks `GROUP / 2` bodies at a time instead.
const WIDE_WALKS: usize = 64;

/// Bodies per walk on a rank of `nlocal` bodies.
fn walk_width(nlocal: usize) -> usize {
    #[cfg(test)]
    if let Some(width) = FORCE_WIDTH.get() {
        return width;
    }
    if nlocal >= WIDE_WALKS * GROUP {
        GROUP
    } else {
        GROUP / 2
    }
}

/// A list entry: the bodies that take it, and which cell or body it is —
/// an index into the local tree's `cells`/`bodies`, or with [`GHOST`] set
/// into the engine's `ghosts`/`ghost_bodies`. Every walk of a rank is
/// parked at once, so what an entry weighs is the rank's memory.
type Src = (Mask, u32);
const GHOST: u32 = 1 << 31;
const _: () = assert!(size_of::<Src>() == 8);

/// Where a stacked cell's data lives, resolved once, when its parent's
/// children arrive (the root's, before the first walk).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Node {
    /// Entirely this rank's, and a cell of the local tree.
    Local(CellIdx),
    /// Entirely this rank's bodies `a..b`, below a local leaf: the
    /// global parent is over `leaf_max`, this rank's part of it is not.
    Range(u32, u32),
    /// Shared or remote: a slot of `Engine::ghosts`.
    Ghost(u32),
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): an imported leaf's
    /// bodies go on the list of every body that opened it, itself included.
    static KEEP_SELF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Walk width regardless of the rank's body count (test builds only).
    static FORCE_WIDTH: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// One traversal shared by local bodies `first .. first + width`.
///
/// The stack restricted to one body's bit is that body's solo depth-first
/// stack, so each body meets its cells and leaf bodies in the order a
/// walk of its own would.
struct Walk {
    first: u32,
    stack: Vec<(Node, Mask)>,
    /// Interaction lists accumulated across suspensions: each accepted
    /// multipole and gathered leaf body once, tagged with the bodies that
    /// take it. A body's slice (the entries carrying its bit, in list
    /// order) is evaluated exactly once, at walk completion, so the
    /// floating-point summation order — and hence the accelerations —
    /// are a pure function of the traversal, independent of where the
    /// walk happened to suspend or how messages were scheduled.
    cells: Vec<Src>,
    bodies: Vec<Src>,
}

impl Walk {
    /// Append a leaf body for the bodies of `mask` (none, when the only
    /// body that opened the leaf is this one).
    #[inline]
    fn gather(&mut self, mask: Mask, body: u32) {
        if mask != 0 {
            self.bodies.push((mask, body));
        }
    }
}

/// A shared or remote cell: merged moments, and its children and leaf
/// bodies once they have been fetched.
struct GhostCell {
    key: Key,
    mom: Multipole,
    /// What `Cell::side` is to a local cell, for the MAC.
    side: f64,
    nbody: u32,
    kids: Option<Vec<Node>>,
    /// Range of `Engine::ghost_bodies`.
    bodies: Option<(u32, u32)>,
}

struct PendingChildren {
    remaining: usize,
    /// Partial child moments per octant, tagged with the contributing
    /// rank. Merged in (octant, rank) order at completion so the M2M
    /// combine — and the merged moments' floating-point values — depend
    /// only on the decomposition, never on reply arrival order.
    moms: [Vec<(usize, Multipole)>; 8],
    counts: [u32; 8],
    waiting: Vec<u32>,
}

struct PendingBodies {
    remaining: usize,
    bodies: Vec<BodyPart>,
    waiting: Vec<u32>,
}

/// Bodies of the local shard lying inside `key`'s range.
fn local_range(tree: &Tree, key: Key) -> (usize, usize) {
    let (lo, hi) = key.key_range();
    let a = tree.keys.partition_point(|k| k.0 < lo.0);
    let b = tree.keys.partition_point(|k| k.0 <= hi.0);
    (a, b)
}

/// This rank's partial moments of each occupied child octant of `key`, in
/// octant order, straight from the sorted body array (works whether or
/// not a local cell exists).
fn partial_children(tree: Option<&Tree>, key: Key, mut visit: impl FnMut(CellPartial)) {
    let Some(tree) = tree else { return };
    let (a, b) = local_range(tree, key);
    if a == b {
        return;
    }
    let level = key.level();
    debug_assert!(level < MAX_LEVEL);
    let shift = 3 * (MAX_LEVEL - level - 1);
    let mut start = a;
    for oct in 0..8u8 {
        let run_end =
            start + tree.keys[start..b].partition_point(|k| ((k.0 >> shift) & 7) as u8 <= oct);
        if run_end > start {
            let mom = Multipole::from_bodies(
                tree.bodies[start..run_end]
                    .iter()
                    .map(|bd| (&bd.pos, bd.mass)),
            );
            visit(CellPartial::new(key.0, oct, &mom, (run_end - start) as u32));
        }
        start = run_end;
    }
}

/// This rank's bodies inside `key`, as wire records.
fn partial_bodies(tree: Option<&Tree>, key: Key) -> impl Iterator<Item = BodyPart> + '_ {
    let inside = tree.map_or(&[][..], |t| {
        let (a, b) = local_range(t, key);
        &t.bodies[a..b]
    });
    inside.iter().map(move |bd| BodyPart {
        cell: key.0,
        pos: bd.pos,
        mass: bd.mass,
        id: bd.id,
    })
}

struct Engine<'a> {
    rank: usize,
    decomp: &'a Decomposition,
    tree: Option<&'a Tree>,
    cfg: ParallelConfig,
    mac: Mac,
    eps2: f64,
    /// Bodies per walk ([`walk_width`]).
    width: usize,
    /// Slot of each ghost key in `ghosts` (the Fibonacci-hashed table the
    /// local tree uses for its cells).
    ghost_at: KeyMap,
    ghosts: Vec<GhostCell>,
    /// Imported leaf bodies, each leaf's contiguous and in id order.
    ghost_bodies: Vec<BodyPart>,
    /// Acceleration per local body and interaction totals, filled in as
    /// walks complete.
    accel: Vec<Accel>,
    stats: TraverseStats,
    pending_children: HashMap<u64, PendingChildren>,
    pending_bodies: HashMap<u64, PendingBodies>,
    req_children: Abm<u64>,
    rep_children: Abm<CellPartial>,
    req_bodies: Abm<u64>,
    rep_bodies: Abm<BodyPart>,
    /// Walk suspensions (context switches to another walk while a remote
    /// fetch is in flight).
    deferred: u64,
    /// Parked walks woken by a completed fetch.
    resumed: u64,
    /// Requests collapsed into an already-in-flight pending fetch: a
    /// second walk asking for a cell someone already requested joins the
    /// waiter list instead of generating wire traffic. The ABM batches
    /// have their own duplicate check ([`Abm::post_unique`]), but the
    /// pending map catches duplicates first, so this is where nearly all
    /// coalescing lands.
    coalesced: u64,
    /// Walks completed, and the summed length of their shared lists
    /// (`stats.interactions()` over this is the sharing factor).
    groups: u64,
    list_entries: u64,
    /// Summed capacity of the completed walks' lists.
    #[cfg(test)]
    list_bytes: usize,
    /// Interactions accumulated since the last virtual-time charge.
    uncharged: u64,
    /// Batches already reported to the termination counter; lets
    /// [`Engine::flush`] account for batches auto-flushed by a full
    /// [`Abm::post`] between explicit flushes.
    reported_sent: u64,
}

impl<'a> Engine<'a> {
    fn new(
        comm: &Comm,
        decomp: &'a Decomposition,
        tree: Option<&'a Tree>,
        cfg: ParallelConfig,
    ) -> Self {
        Engine {
            rank: comm.rank(),
            decomp,
            tree,
            mac: Mac::new(cfg.gravity.mac, cfg.gravity.theta),
            eps2: cfg.gravity.eps * cfg.gravity.eps,
            width: walk_width(tree.map_or(0, |t| t.bodies.len())),
            cfg,
            ghost_at: KeyMap::with_capacity(64),
            ghosts: Vec::new(),
            ghost_bodies: Vec::new(),
            accel: vec![Accel::default(); tree.map_or(0, |t| t.bodies.len())],
            stats: TraverseStats::default(),
            pending_children: HashMap::new(),
            pending_bodies: HashMap::new(),
            req_children: tune(Abm::new(comm.size(), 1, ABM_BATCH), cfg.adaptive),
            rep_children: tune(Abm::new(comm.size(), 2, ABM_BATCH * 4), cfg.adaptive),
            req_bodies: tune(Abm::new(comm.size(), 3, ABM_BATCH), cfg.adaptive),
            rep_bodies: tune(Abm::new(comm.size(), 4, ABM_BATCH * 4), cfg.adaptive),
            deferred: 0,
            resumed: 0,
            coalesced: 0,
            groups: 0,
            list_entries: 0,
            #[cfg(test)]
            list_bytes: 0,
            uncharged: 0,
            reported_sent: 0,
        }
    }

    /// Name `key` for the stacks: as the local tree has it when no other
    /// rank can own any of it, as a new ghost otherwise.
    fn resolve(&mut self, key: Key, mom: Multipole, nbody: u32) -> Node {
        if self.decomp.purely_local(key, self.rank) {
            let tree = self.tree.expect("a purely local cell has local bodies");
            let (a, b) = local_range(tree, key);
            let raw = Node::Range(a as u32, b as u32);
            return tree.map.get(key).map_or(raw, |i| Node::Local(i as CellIdx));
        }
        let slot = self.ghosts.len() as u32;
        self.ghost_at.insert(key, slot);
        self.ghosts.push(GhostCell {
            key,
            mom,
            side: 2.0 * self.decomp.bbox.cell_geometry(key).1,
            nbody,
            kids: None,
            bodies: None,
        });
        Node::Ghost(slot)
    }

    /// The ghost record a reply names by key.
    fn ghost_mut(&mut self, key: Key) -> &mut GhostCell {
        let slot = self.ghost_at.get(key).expect("fetch for an unvisited key");
        &mut self.ghosts[slot as usize]
    }

    /// Serve all incoming requests and integrate all incoming replies.
    /// Returns walk ids to resume and the count of basic batches received.
    fn service(&mut self, comm: &mut Comm) -> (Vec<u32>, u64) {
        let mut wake = Vec::new();
        let mut received = 0u64;
        let tree = self.tree;

        for (src, keys) in self.req_children.poll(comm) {
            received += 1;
            for k in keys {
                partial_children(tree, Key(k), |part| self.rep_children.post(comm, src, part));
                let done = CellPartial::new(k, 0xFF, &Multipole::ZERO, 0);
                self.rep_children.post(comm, src, done);
            }
        }
        for (src, keys) in self.req_bodies.poll(comm) {
            received += 1;
            for k in keys {
                for part in partial_bodies(tree, Key(k)) {
                    self.rep_bodies.post(comm, src, part);
                }
                let done = BodyPart {
                    cell: k,
                    pos: [0.0; 3],
                    mass: 0.0,
                    id: u64::MAX,
                };
                self.rep_bodies.post(comm, src, done);
            }
        }
        for (src, parts) in self.rep_children.poll(comm) {
            received += 1;
            for p in parts {
                let Some(pending) = self.pending_children.get_mut(&p.parent) else {
                    panic!("children reply for unrequested key {}", p.parent);
                };
                if p.oct == 0xFF {
                    pending.remaining -= 1;
                    if pending.remaining == 0 {
                        let done = self.pending_children.remove(&p.parent).unwrap();
                        self.finalize_children(Key(p.parent), done, &mut wake);
                    }
                } else {
                    pending.moms[p.oct as usize].push((src, p.moments()));
                    pending.counts[p.oct as usize] += p.nbody;
                }
            }
        }
        for (_src, parts) in self.rep_bodies.poll(comm) {
            received += 1;
            for p in parts {
                let Some(pending) = self.pending_bodies.get_mut(&p.cell) else {
                    panic!("bodies reply for unrequested key {}", p.cell);
                };
                if p.id == u64::MAX {
                    pending.remaining -= 1;
                    if pending.remaining == 0 {
                        let mut done = self.pending_bodies.remove(&p.cell).unwrap();
                        // Canonical order: body ids are globally unique,
                        // so sorting makes the P2P summation order (and
                        // the resulting forces) schedule-independent.
                        done.bodies.sort_unstable_by_key(|b| b.id);
                        wake.extend(done.waiting.iter().copied());
                        let first = self.ghost_bodies.len() as u32;
                        self.ghost_bodies.append(&mut done.bodies);
                        self.ghost_mut(Key(p.cell)).bodies =
                            Some((first, self.ghost_bodies.len() as u32));
                    }
                } else {
                    pending.bodies.push(p);
                }
            }
        }
        self.resumed += wake.len() as u64;
        (wake, received)
    }

    fn finalize_children(&mut self, parent: Key, mut done: PendingChildren, wake: &mut Vec<u32>) {
        let mut kids = Vec::new();
        for oct in 0..8u8 {
            let moms = &mut done.moms[oct as usize];
            let nbody = done.counts[oct as usize];
            if moms.is_empty() || nbody == 0 {
                continue;
            }
            // Rank order, not arrival order: the M2M combine is a
            // floating-point sum, so this fixes the merged moments
            // bit-for-bit across message schedules.
            moms.sort_unstable_by_key(|&(src, _)| src);
            let parts: Vec<Multipole> = moms.iter().map(|&(_, m)| m).collect();
            let merged = Multipole::combine(&parts);
            kids.push(self.resolve(parent.child(oct), merged, nbody));
        }
        self.ghost_mut(parent).kids = Some(kids);
        wake.extend(done.waiting.iter().copied());
    }

    /// Park `walk_id` on the merged children of ghost `slot`, requesting
    /// them from every other possible owner unless a fetch is in flight.
    fn request_children(&mut self, comm: &mut Comm, slot: u32, walk_id: u32) {
        let key = self.ghosts[slot as usize].key;
        if let Some(p) = self.pending_children.get_mut(&key.0) {
            p.waiting.push(walk_id);
            self.coalesced += 1;
            return;
        }
        let mut pending = PendingChildren {
            remaining: 0,
            moms: Default::default(),
            counts: [0; 8],
            waiting: vec![walk_id],
        };
        for dst in self.decomp.owners_of(key).filter(|&r| r != self.rank) {
            self.req_children.post_unique(comm, dst, key.0);
            pending.remaining += 1;
        }
        // Fold in our own partial immediately, tagged with our rank so
        // the merge sorts it into the same slot every schedule.
        partial_children(self.tree, key, |p| {
            pending.moms[p.oct as usize].push((self.rank, p.moments()));
            pending.counts[p.oct as usize] += p.nbody;
        });
        assert!(pending.remaining > 0, "a ghost cell has another owner");
        self.pending_children.insert(key.0, pending);
    }

    /// Park `walk_id` on the merged body list of ghost `slot`, as
    /// [`Engine::request_children`] does on its children.
    fn request_bodies(&mut self, comm: &mut Comm, slot: u32, walk_id: u32) {
        let key = self.ghosts[slot as usize].key;
        if let Some(p) = self.pending_bodies.get_mut(&key.0) {
            p.waiting.push(walk_id);
            self.coalesced += 1;
            return;
        }
        let mut pending = PendingBodies {
            remaining: 0,
            bodies: partial_bodies(self.tree, key).collect(),
            waiting: vec![walk_id],
        };
        for dst in self.decomp.owners_of(key).filter(|&r| r != self.rank) {
            self.req_bodies.post_unique(comm, dst, key.0);
            pending.remaining += 1;
        }
        assert!(pending.remaining > 0, "a ghost cell has another owner");
        self.pending_bodies.insert(key.0, pending);
    }

    /// Advance one walk until it completes (`true`) or suspends.
    ///
    /// Each popped cell is tested against the MAC once per body still in
    /// its mask; the bodies that accept share one list entry, the rest go
    /// on to the leaf's bodies, the children, or the fetch. The lists
    /// hold references and survive suspensions; on completion they are
    /// written once into the thread-local shared list ([`crate::ilist`]),
    /// and each body's slice is copied out by index and evaluated as
    /// spans in one pass — the same engine the single-address-space
    /// walks use. A single evaluation (rather than one per suspension)
    /// means the summation order never depends on where remote fetches
    /// happened to break the walk, so deferred and blocking traversals
    /// produce bit-identical forces.
    fn run_walk(&mut self, comm: &mut Comm, w: &mut Walk, walk_id: u32) -> bool {
        let leaf_max = self.cfg.gravity.leaf_max;
        let tree = self.tree.expect("rank with no bodies has no walks");
        let lo = w.first as usize;
        let group = &tree.bodies[lo..tree.bodies.len().min(lo + self.width)];
        // The group's positions as lanes, so the tests of one cell are
        // one SIMD pass; lanes past the group (a narrow walk's, or a
        // short last group's) are masked out.
        let mut at = [[0.0; GROUP]; 3];
        for (b, body) in group.iter().enumerate() {
            [at[0][b], at[1][b], at[2][b]] = body.pos;
        }
        // A body never interacts with itself: local leaves and raw ranges
        // know it by index, imported leaves by id.
        let own = |j: usize| -> Mask {
            match j.wrapping_sub(lo) {
                b if b < group.len() => 1 << b,
                _ => 0,
            }
        };

        while let Some((node, mask)) = w.stack.pop() {
            let slot = match node {
                Node::Local(idx) => {
                    let cell = tree.cell(idx);
                    if cell.nbody == 0 {
                        continue;
                    }
                    let accept = mask & self.mac.accept_lanes(cell.side(), &cell.mom, &at);
                    let open = mask & !accept;
                    if accept != 0 {
                        w.cells.push((accept, idx as u32));
                    }
                    if open == 0 {
                        continue;
                    }
                    if cell.is_leaf {
                        let first = cell.first_body as usize;
                        for j in first..first + cell.nbody as usize {
                            w.gather(open & !own(j), j as u32);
                        }
                    } else {
                        for &ch in &cell.children {
                            if ch != NO_CELL {
                                w.stack.push((Node::Local(ch), open));
                            }
                        }
                    }
                    continue;
                }
                Node::Range(a, b) => {
                    for j in a..b {
                        w.gather(mask & !own(j as usize), j);
                    }
                    continue;
                }
                Node::Ghost(slot) => slot,
            };

            let g = &self.ghosts[slot as usize];
            if g.nbody == 0 {
                continue;
            }
            // (The synthesized root, with its unbounded `bmax`, is never
            // accepted.)
            let accept = mask & self.mac.accept_lanes(g.side, &g.mom, &at);
            let open = mask & !accept;
            if accept != 0 {
                w.cells.push((accept, GHOST | slot));
            }
            if open == 0 {
                continue;
            }
            if g.nbody as usize <= leaf_max || g.key.level() == MAX_LEVEL {
                if let Some((a, b)) = g.bodies {
                    for i in a..b {
                        let id = self.ghost_bodies[i as usize].id;
                        let me = select(open, |b| group[b].id == id);
                        #[cfg(test)]
                        let me = if KEEP_SELF.get() { 0 } else { me };
                        w.gather(open & !me, GHOST | i);
                    }
                    continue;
                }
                self.request_bodies(comm, slot, walk_id);
            } else {
                if let Some(kids) = &g.kids {
                    w.stack.extend(kids.iter().map(|&k| (k, open)));
                    continue;
                }
                self.request_children(comm, slot, walk_id);
            }
            // Come back to this cell, for the bodies that opened it, once
            // its data is in.
            w.stack.push((node, open));
            self.deferred += 1;
            return false;
        }

        // Single evaluation of each body's slice of the gathered lists.
        let quadrupole = self.cfg.gravity.quadrupole;
        crate::ilist::with_scratch(|sc| {
            sc.clear_shared();
            for &(mask, src) in &w.cells {
                let mom = match src & GHOST {
                    0 => &tree.cells[src as usize].mom,
                    _ => &self.ghosts[(src ^ GHOST) as usize].mom,
                };
                sc.share_mom(mask, mom);
            }
            for &(mask, src) in &w.bodies {
                let (pos, mass) = match src & GHOST {
                    0 => {
                        let b = &tree.bodies[src as usize];
                        (b.pos, b.mass)
                    }
                    _ => {
                        let p = &self.ghost_bodies[(src ^ GHOST) as usize];
                        (p.pos, p.mass)
                    }
                };
                sc.share_body(mask, pos, mass);
            }
            for (b, body) in group.iter().enumerate() {
                crate::ilist::materialize_member(sc, b);
                let (m2p, p2p) = sc.eval(body.pos, self.eps2, quadrupole, &mut self.accel[lo + b]);
                self.stats.m2p += m2p;
                self.stats.p2p += p2p;
                self.uncharged += m2p + p2p;
            }
        });
        self.groups += 1;
        self.list_entries += (w.cells.len() + w.bodies.len()) as u64;
        #[cfg(test)]
        {
            self.list_bytes += (w.cells.capacity() + w.bodies.capacity()) * size_of::<Src>();
        }
        // Completed walks never run again; return the lists' memory.
        w.cells = Vec::new();
        w.bodies = Vec::new();
        true
    }

    /// Walk every group of this rank's bodies, `global_n` in the world,
    /// serving the other ranks' requests until all of them are done too.
    fn run(&mut self, comm: &mut Comm, global_n: u64) {
        // Where no other rank has bodies the root is the local tree's.
        // Otherwise synthesize a ghost: its unbounded `bmax` contains
        // every body, so it is never MAC-accepted, always descended.
        let synthetic = Multipole {
            mass: 1.0,
            com: self.decomp.bbox.center,
            quad: [0.0; 6],
            bmax: f64::INFINITY,
        };
        let root = self.resolve(Key::ROOT, synthetic, global_n as u32);
        let nlocal = self.accel.len();
        let mut walks: Vec<Walk> = (0..nlocal)
            .step_by(self.width)
            .map(|first| Walk {
                first: first as u32,
                // One bit per body: the last group of a shard may be short.
                stack: vec![(
                    root,
                    Mask::MAX >> (Mask::BITS as usize - (nlocal - first).min(self.width)),
                )],
                cells: Vec::new(),
                bodies: Vec::new(),
            })
            .collect();
        let mut active: VecDeque<u32> = (0..walks.len() as u32).collect();
        let mut completed = 0usize;
        let mut term = Termination::new();

        loop {
            // The mark comes before anything that receives: a packet the
            // turn pumps in but leaves queued (a token while walks are
            // left, say) is then news to the wait below, not slept past.
            let seen = comm.arrivals();
            if completed == walks.len() && term.poll(comm) {
                break;
            }
            // Service traffic first so replies wake parked walks.
            let (wake, received) = self.service(comm);
            if received > 0 {
                term.on_recv(received);
            }
            active.extend(wake);
            if let Some(id) = active.pop_front() {
                if self.run_walk(comm, &mut walks[id as usize], id) {
                    completed += 1;
                    self.charge(comm);
                } else if !self.cfg.latency_hiding {
                    // Ablation mode: block until this walk can resume.
                    // Flush every turn, not just on entry: serving
                    // another rank's request posts reply parts into a
                    // batch that only auto-flushes when full, and if
                    // every rank waits here on someone else's unflushed
                    // batch the whole world deadlocks.
                    loop {
                        let seen = comm.arrivals();
                        let (wake, received) = self.service(comm);
                        if received > 0 {
                            term.on_recv(received);
                        }
                        self.flush(comm, &mut term);
                        if !wake.is_empty() {
                            for w in wake {
                                active.push_front(w);
                            }
                            break;
                        }
                        comm.await_arrival(seen);
                    }
                }
            } else {
                // Out of runnable walks: push requests out, then sleep
                // until a request, a reply or the token comes in.
                self.flush(comm, &mut term);
                comm.await_arrival(seen);
            }
        }
        // Final flush in case termination raced a reply (cannot happen with
        // Safra, but keeps the channels clean for the next phase).
        self.flush(comm, &mut term);
        self.charge(comm);
    }

    /// Charge accumulated interactions to the virtual clock.
    fn charge(&mut self, comm: &mut Comm) {
        if self.uncharged == 0 {
            return;
        }
        let m2p_flops = if self.cfg.gravity.quadrupole {
            gravity::M2P_QUAD_FLOPS
        } else {
            gravity::M2P_MONO_FLOPS
        };
        // Interactions aren't split by kind here; charge the mean cost.
        let flops = self.uncharged as f64 * 0.5 * (gravity::P2P_FLOPS + m2p_flops);
        comm.compute_eff(flops, 0.0, self.cfg.cpu_eff);
        self.uncharged = 0;
    }

    fn flush(&mut self, comm: &mut Comm, term: &mut Termination) {
        self.req_children.flush_all(comm);
        self.rep_children.flush_all(comm);
        self.req_bodies.flush_all(comm);
        self.rep_bodies.flush_all(comm);
        // Report against the cumulative counters, not a before/after delta
        // around the flush calls: batches that auto-flushed when a post
        // filled them would otherwise never reach the Safra counter and
        // termination could never be detected (total stuck below zero).
        let total = self.req_children.sent
            + self.rep_children.sent
            + self.req_bodies.sent
            + self.rep_bodies.sent;
        term.on_send(total - self.reported_sent);
        self.reported_sent = total;
    }
}

/// Distributed accelerations: decomposes `bodies` across the world, runs
/// the deferred-walk traversal, and returns this rank's shard + forces.
///
/// Body `id`s must be globally unique (they identify self-interactions in
/// exchanged leaves).
pub fn parallel_accelerations(
    comm: &mut Comm,
    bodies: Vec<Body>,
    cfg: &ParallelConfig,
) -> ParallelResult {
    comm.span_enter("hot.decompose");
    let (shard, decomp) = decompose(comm, bodies);
    comm.span_exit("hot.decompose");
    accelerations_on(comm, shard, &decomp, cfg)
}

/// The deferred-walk traversal on a decomposition the caller already
/// chose: `shard` is this rank's part of `decomp`, as
/// [`crate::domain::decompose_by`] returned it. The returned bodies are
/// `shard` in key order; a shard that is already key-sorted comes back in
/// the order it went in, because the tree's key sort is stable.
pub fn accelerations_on(
    comm: &mut Comm,
    shard: Vec<Body>,
    decomp: &Decomposition,
    cfg: &ParallelConfig,
) -> ParallelResult {
    comm.span_enter("hot.tree_build");
    let global_n = comm.allreduce(shard.len() as u64, |a, b| a + b);
    let tree =
        (!shard.is_empty()).then(|| Tree::build_in(shard, decomp.bbox, cfg.gravity.leaf_max));
    comm.span_exit("hot.tree_build");

    let mut engine = Engine::new(comm, decomp, tree.as_ref(), *cfg);
    comm.span_enter("hot.walk");
    engine.run(comm, global_n);
    comm.span_exit("hot.walk");

    let stats = engine.stats;
    let requests = engine.req_children.sent + engine.req_bodies.sent;
    comm.obs_count("walk.p2p", stats.p2p);
    comm.obs_count("walk.m2p", stats.m2p);
    // Combined interaction counter: the unit the bench harness divides
    // by virtual time to get interactions/s (same name as the charge the
    // replicated chaos driver records).
    comm.obs_count("walk.interactions", stats.p2p + stats.m2p);
    comm.obs_count("walk.requests", requests);
    // Latency-hiding telemetry: how often walks context-switched on a
    // remote fetch, how often a reply woke one, and how much the adaptive
    // aggregation reshaped wire traffic.
    comm.obs_count("walk.deferred", engine.deferred);
    comm.obs_count("walk.resumed", engine.resumed);
    // Sharing telemetry: interactions per shared-list entry is how many
    // bodies of a group each gathered cell or leaf body served.
    comm.obs_count("walk.groups", engine.groups);
    comm.obs_count("walk.list_entries", engine.list_entries);
    comm.obs_count(
        "abm.coalesced",
        engine.coalesced
            + engine.req_children.coalesced
            + engine.rep_children.coalesced
            + engine.req_bodies.coalesced
            + engine.rep_bodies.coalesced,
    );
    comm.obs_count(
        "abm.flush_deadline",
        engine.req_children.deadline_flushes
            + engine.rep_children.deadline_flushes
            + engine.req_bodies.deadline_flushes
            + engine.rep_bodies.deadline_flushes,
    );
    let vtime = comm.time();
    ParallelResult {
        accel: engine.accel,
        bodies: tree.map_or(Vec::new(), |t| t.bodies),
        stats,
        requests,
        vtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::decompose_with_health;
    use crate::models::plummer;
    use crate::traverse::tree_accelerations;

    fn split(bodies: &[Body], nranks: usize, rank: usize) -> Vec<Body> {
        bodies
            .iter()
            .enumerate()
            .filter(|(i, _)| i % nranks == rank)
            .map(|(_, b)| *b)
            .collect()
    }

    /// One rank's `(id, accel)` pairs.
    fn forces_of(r: &ParallelResult) -> Vec<(u64, Accel)> {
        let ids = r.bodies.iter().map(|b| b.id);
        ids.zip(r.accel.iter().copied()).collect()
    }

    /// All ranks' `(id, accel)` pairs in id order.
    fn by_id(shards: Vec<Vec<(u64, Accel)>>) -> Vec<(u64, Accel)> {
        let mut out: Vec<(u64, Accel)> = shards.into_iter().flatten().collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Collect (id → accel) from all ranks.
    fn run_parallel(all: &[Body], nranks: usize, cfg: &ParallelConfig) -> Vec<(u64, Accel)> {
        by_id(msg::run(nranks, |c| {
            let mine = split(all, nranks, c.rank());
            forces_of(&parallel_accelerations(c, mine, cfg))
        }))
    }

    fn serial_reference(all: &[Body], cfg: &GravityConfig) -> Vec<(u64, Accel)> {
        let tree = Tree::build(all.to_vec(), cfg.leaf_max);
        let (acc, _) = tree_accelerations(&tree, cfg);
        let mut out: Vec<(u64, Accel)> = tree
            .bodies
            .iter()
            .map(|b| b.id)
            .zip(acc.iter().copied())
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    fn assert_close(par: &[(u64, Accel)], ser: &[(u64, Accel)], tol: f64) {
        assert_eq!(par.len(), ser.len());
        let mut num = 0.0;
        let mut den = 0.0;
        for ((id_p, a), (id_s, b)) in par.iter().zip(ser) {
            assert_eq!(id_p, id_s);
            for d in 0..3 {
                num += (a.acc[d] - b.acc[d]).powi(2);
            }
            den += b.acc[0].powi(2) + b.acc[1].powi(2) + b.acc[2].powi(2);
        }
        let rel = (num / den).sqrt();
        assert!(rel < tol, "parallel vs serial rms {rel}");
    }

    #[test]
    fn matches_serial_on_two_ranks() {
        let all = plummer(240, 101);
        let cfg = ParallelConfig::default();
        let par = run_parallel(&all, 2, &cfg);
        let ser = serial_reference(&all, &cfg.gravity);
        assert_close(&par, &ser, 1e-3);
    }

    #[test]
    fn matches_serial_on_four_ranks() {
        let all = plummer(300, 55);
        let cfg = ParallelConfig::default();
        let par = run_parallel(&all, 4, &cfg);
        let ser = serial_reference(&all, &cfg.gravity);
        assert_close(&par, &ser, 1e-3);
    }

    #[test]
    fn walk_on_a_callers_decomposition_matches_serial() {
        // Health-skewed shards, not the ones `parallel_accelerations`
        // would pick: the walk takes the caller's split as it is.
        let all = plummer(300, 55);
        let cfg = ParallelConfig::default();
        let health = [1.0, 0.25, 1.0, 0.5];
        let shards = msg::run(4, |c| {
            let mine = split(&all, 4, c.rank());
            let (shard, decomp) = decompose_with_health(c, mine.clone(), &health);
            assert_ne!(decomp, decompose(c, mine).1);
            forces_of(&accelerations_on(c, shard, &decomp, &cfg))
        });
        let ser = serial_reference(&all, &cfg.gravity);
        assert_close(&by_id(shards), &ser, 1e-3);
        // On one rank it is `parallel_accelerations`, bit for bit.
        let [on, whole] = msg::run(1, |c| {
            let (shard, decomp) = decompose(c, all.clone());
            let on = forces_of(&accelerations_on(c, shard, &decomp, &cfg));
            [on, forces_of(&parallel_accelerations(c, all.clone(), &cfg))]
        })
        .pop()
        .unwrap();
        assert_bit_identical(&on, &whole, "1 rank");
    }

    #[test]
    fn no_latency_hiding_gets_same_answer() {
        let all = plummer(160, 13);
        let cfg = ParallelConfig {
            latency_hiding: false,
            ..Default::default()
        };
        let par = run_parallel(&all, 2, &cfg);
        let ser = serial_reference(&all, &cfg.gravity);
        assert_close(&par, &ser, 1e-3);
    }

    fn assert_bit_identical(a: &[(u64, Accel)], b: &[(u64, Accel)], what: &str) {
        assert_eq!(a.len(), b.len());
        for ((id_a, a), (id_b, b)) in a.iter().zip(b) {
            assert_eq!(id_a, id_b);
            let bits = |f: &Accel| (f.acc.map(f64::to_bits), f.pot.to_bits());
            assert_eq!(bits(a), bits(b), "{what}, body {id_a}");
        }
    }

    /// The deferred and the blocking walk of `all` on `nranks` ranks.
    fn deferred_and_blocking(all: &[Body], nranks: usize) -> [Vec<(u64, Accel)>; 2] {
        [true, false].map(|latency_hiding| {
            let cfg = ParallelConfig {
                latency_hiding,
                ..Default::default()
            };
            run_parallel(all, nranks, &cfg)
        })
    }

    #[test]
    fn deferred_walk_forces_bit_identical_to_blocking() {
        // The latency-hiding engine gathers each walk's interaction list
        // across suspensions and evaluates it once, merges partial
        // moments in rank order, and keeps leaf imports in id order — so
        // the deferred traversal must reproduce the blocking traversal's
        // forces bit for bit, at any rank count, regardless of how the
        // message schedule interleaved the fetches.
        let all = plummer(192, 77);
        for nranks in [1usize, 2, 4, 16] {
            let [deferred, blocking] = deferred_and_blocking(&all, nranks);
            assert_bit_identical(&deferred, &blocking, &format!("{nranks} ranks"));
        }
    }

    /// One rank's engine over its shard of `all`, run to completion, with
    /// its forces by id: what `parallel_accelerations` does, engine kept.
    fn with_engine<T: Send>(
        all: &[Body],
        nranks: usize,
        look: impl Fn(&Engine, Vec<(u64, Accel)>) -> T + Sync,
    ) -> Vec<T> {
        msg::run(nranks, |c| {
            let cfg = ParallelConfig::default();
            let (shard, decomp) = decompose(c, split(all, nranks, c.rank()));
            let global_n = c.allreduce(shard.len() as u64, |a, b| a + b);
            let tree = (!shard.is_empty())
                .then(|| Tree::build_in(shard, decomp.bbox, cfg.gravity.leaf_max));
            let mut engine = Engine::new(c, &decomp, tree.as_ref(), cfg);
            engine.run(c, global_n);
            let ids = tree.iter().flat_map(|t| t.bodies.iter().map(|b| b.id));
            let forces = ids.zip(engine.accel.iter().copied()).collect();
            look(&engine, forces)
        })
    }

    #[test]
    fn single_rank_equals_serial_exactly() {
        // Nobody else can own any of the root, so it resolves to local
        // cell 0 and the walk never names a ghost: none is ever made.
        let all = plummer(150, 7);
        let mut runs = with_engine(&all, 1, |e, forces| {
            assert_eq!(e.ghosts.len() + e.ghost_bodies.len() + e.ghost_at.len(), 0);
            forces
        });
        let mut par = runs.pop().unwrap();
        par.sort_by_key(|&(id, _)| id);
        assert_close(
            &par,
            &serial_reference(&all, &GravityConfig::default()),
            1e-12,
        );
        let [deferred, blocking] = deferred_and_blocking(&all, 1);
        assert_bit_identical(&par, &deferred, "engine vs parallel_accelerations");
        assert_bit_identical(&deferred, &blocking, "1 rank");
    }

    #[test]
    fn raw_ranges_below_a_local_leaf_are_walked() {
        // A cell straddling two ranks holds more than `leaf_max` bodies, so
        // the world subdivides it; a rank's own part is under `leaf_max`,
        // so its tree stopped at a leaf above: a child that is all this
        // rank's has no local cell and is walked as a raw body range.
        let all = plummer(240, 101);
        let ranges = with_engine(&all, 2, |e, _| {
            let kids = e.ghosts.iter().flat_map(|g| g.kids.iter().flatten());
            let ranges = kids.filter_map(|kid| match *kid {
                Node::Range(a, b) => Some((a, b)),
                _ => None,
            });
            ranges
                .inspect(|&(a, b)| {
                    let holds = |c: &crate::tree::Cell| {
                        c.is_leaf && c.first_body <= a && b <= c.first_body + c.nbody
                    };
                    assert!(a < b && e.tree.unwrap().cells.iter().any(holds));
                })
                .count()
        });
        assert!(ranges.iter().sum::<usize>() > 0, "no raw range: {ranges:?}");
        let [deferred, blocking] = deferred_and_blocking(&all, 2);
        assert_close(
            &deferred,
            &serial_reference(&all, &GravityConfig::default()),
            1e-3,
        );
        assert_bit_identical(&deferred, &blocking, "2 ranks");
    }

    #[test]
    fn parked_lists_weigh_two_words_an_entry_at_most() {
        // Every walk of a rank is parked at once, so the lists are the
        // rank's footprint: 8 B an entry, at most doubled by `Vec` growth
        // (they were 96 B a cell and 40 B a body when they held copies).
        // ≈ 1 500 bodies a rank: 16-wide walks.
        let per_rank = with_engine(&plummer(6144, 5), 4, |e, _| {
            assert_eq!(e.width, GROUP);
            (e.list_bytes, e.list_entries)
        });
        for (bytes, entries) in per_rank {
            assert!(entries > 30_000, "{entries} entries");
            assert!(
                bytes as u64 <= 16 * entries,
                "{bytes} B for {entries} entries"
            );
        }
    }

    /// FNV-1a over the bits of `(id, acc, pot)` in id order, with the summed
    /// `(p2p, m2p)` counts and `(walk.groups, walk.list_entries)` counters,
    /// of a run of `width`-body walks on the Space Simulator fabric.
    fn force_digest(all: &[Body], nranks: usize, width: usize) -> (u64, u64, u64, [u64; 2]) {
        let machine = msg::Machine::space_simulator_lam();
        let (outs, trace) = msg::run_observed(machine, nranks, |c| {
            FORCE_WIDTH.set(Some(width));
            let mine = split(all, nranks, c.rank());
            let r = parallel_accelerations(c, mine, &ParallelConfig::default());
            let forces: Vec<(u64, Accel)> = r.bodies.iter().map(|b| b.id).zip(r.accel).collect();
            (forces, r.stats.p2p, r.stats.m2p)
        });
        let p2p = outs.iter().map(|o| o.1).sum();
        let m2p = outs.iter().map(|o| o.2).sum();
        let walks = ["walk.groups", "walk.list_entries"]
            .map(|name| trace.ranks.iter().map(|r| r.metrics.counter(name)).sum());
        let mut forces: Vec<(u64, Accel)> = outs.into_iter().flat_map(|o| o.0).collect();
        forces.sort_by_key(|f| f.0);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, a) in &forces {
            let [x, y, z] = a.acc.map(f64::to_bits);
            for word in [*id, x, y, z, a.pot.to_bits()] {
                for byte in word.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        (h, p2p, m2p, walks)
    }

    #[test]
    fn shared_walk_reproduces_per_body_walk_bit_for_bit() {
        // Recorded at the last commit whose engine walked one body at a
        // time (e6d39fe): the shared traversal must hand every body the
        // interaction sequence its own walk produced, at either width.
        // The walk and list counts are those of 8- and 16-body walks (the
        // former recorded at cb89fb9): the width moves them, never the
        // forces or the interaction counts.
        let small = plummer(192, 77);
        let pins = [
            (
                &small,
                1,
                (
                    0xcf0c_f2bc_b538_6626,
                    17_019,
                    6_234,
                    [[24, 4_572], [12, 2_616]],
                ),
            ),
            (
                &small,
                2,
                (
                    0x8d6a_53dd_18c7_1045,
                    17_019,
                    6_234,
                    [[25, 4_614], [13, 2_690]],
                ),
            ),
            (
                &small,
                4,
                (
                    0x772a_f51a_a85d_dba5,
                    17_208,
                    6_078,
                    [[26, 4_797], [14, 2_847]],
                ),
            ),
            (
                &small,
                16,
                (
                    0xb289_68f4_f830_c04b,
                    17_149,
                    6_145,
                    [[32, 5_662], [16, 3_298]],
                ),
            ),
            (
                &plummer(2048, 5),
                4,
                (
                    0x8b8a_7dd7_3059_f4a2,
                    356_201,
                    553_213,
                    [[257, 172_666], [130, 102_231]],
                ),
            ),
        ];
        for (all, nranks, (digest, p2p, m2p, walks)) in pins {
            for (width, walks) in [GROUP / 2, GROUP].into_iter().zip(walks) {
                let got = force_digest(all, nranks, width);
                let n = all.len();
                let want = (digest, p2p, m2p, walks);
                assert_eq!(got, want, "{n} bodies on {nranks} ranks, width {width}");
            }
        }
    }

    #[test]
    fn group_edges_match_serial_per_body_walk() {
        group_edges_match_with(false);
    }

    /// Teeth: a body left on its own list (zero distance, no softening)
    /// must trip the comparison with the serial walk.
    #[test]
    #[should_panic(expected = "parallel vs serial rms NaN")]
    fn parallel_oracle_catches_a_body_left_on_its_own_list() {
        group_edges_match_with(true);
    }

    fn group_edges_match_with(keep_self: bool) {
        // At both widths: fewer bodies than one group, up to three full
        // groups of 16, counts that are no multiple of the width, ranks
        // left with no bodies, and a clump tight enough that a whole
        // group shares one imported leaf, so self-exclusion by id is what
        // keeps a body off its own list.
        let cfg = ParallelConfig::default();
        for n in 1..=48usize {
            let mut all = plummer(n, 900 + n as u64);
            for (i, b) in all.iter_mut().enumerate().take(12) {
                b.pos = [0.3 + 1e-7 * i as f64, 0.3, 0.3 - 1e-7 * i as f64];
            }
            let tree = Tree::build(all.clone(), cfg.gravity.leaf_max);
            let (_, serial_stats) = tree_accelerations(&tree, &cfg.gravity);
            let ser = serial_reference(&all, &cfg.gravity);
            let runs = (1..=5usize).flat_map(|nranks| [(nranks, GROUP / 2), (nranks, GROUP)]);
            for (nranks, width) in runs {
                let outs = msg::run(nranks, |c| {
                    KEEP_SELF.set(keep_self);
                    FORCE_WIDTH.set(Some(width));
                    let r = parallel_accelerations(c, split(&all, nranks, c.rank()), &cfg);
                    let ids: Vec<u64> = r.bodies.iter().map(|b| b.id).collect();
                    (ids, r.accel, r.stats.interactions())
                });
                let interactions: u64 = outs.iter().map(|o| o.2).sum();
                let mut par: Vec<(u64, Accel)> = outs
                    .into_iter()
                    .flat_map(|o| o.0.into_iter().zip(o.1))
                    .collect();
                par.sort_by_key(|&(id, _)| id);
                // `assert_close` also checks every id came back once.
                if n > 1 {
                    assert_close(&par, &ser, 1e-3);
                } else {
                    assert_eq!((par.len(), par[0].1.acc), (1, [0.0; 3]));
                }
                if nranks == 1 {
                    let what = format!("{n} bodies, width {width}");
                    assert_eq!(interactions, serial_stats.interactions(), "{what}");
                }
            }
        }
    }

    #[test]
    fn remote_requests_actually_happen() {
        let all = plummer(200, 3);
        let requests = msg::run(2, |c| {
            let mine = split(&all, 2, c.rank());
            parallel_accelerations(c, mine, &ParallelConfig::default()).requests
        });
        assert!(
            requests.iter().sum::<u64>() > 0,
            "no remote traffic: {requests:?}"
        );
    }

    #[test]
    fn latency_hiding_reduces_virtual_wait() {
        let all = plummer(300, 29);
        let time_of = |hide: bool| -> f64 {
            let cfg = ParallelConfig {
                latency_hiding: hide,
                ..Default::default()
            };
            let times = msg::run(3, |c| {
                let mine = split(&all, 3, c.rank());
                parallel_accelerations(c, mine, &cfg).vtime
            });
            times.into_iter().fold(0.0, f64::max)
        };
        let hidden = time_of(true);
        let blocking = time_of(false);
        assert!(
            hidden <= blocking * 1.05,
            "latency hiding slower: {hidden} vs {blocking}"
        );
    }
}
