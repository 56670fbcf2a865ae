//! Out-of-core treecode (Salmon & Warren 1997; the paper's §4.3: "even
//! larger simulations are possible using the out-of-core version of our
//! code").
//!
//! Bodies live on disk in the tree's (Morton) order, so every cell of
//! the tree is a *contiguous* file range: rows `first_body..first_body +
//! nbody`. In memory we keep only:
//!
//! * the cells of [`Tree::build`] over the bodies — structure and exact
//!   multipole moments, no bodies and no per-body index; its leaves hold
//!   at most `chunk` bodies and are the unit of I/O ("chunks");
//! * an LRU cache of recently loaded chunks, shared with the walk by
//!   reference count, so a cache hit copies no body.
//!
//! The build holds the body set once, as the caller's `Vec` already did;
//! the force pass holds one target chunk and the cache.
//!
//! The force pass is the in-memory per-body walk ([`crate::traverse`]),
//! target chunk by target chunk: accepted cells interact through their
//! moments; chunks that must be opened are fetched by ranged file read
//! (and usually hit the cache, because Morton order makes the open set
//! spatially local).

use crate::gravity::{Accel, GravityConfig};
use crate::traverse::{self, TraverseStats};
use crate::tree::{Body, Cell, Tree};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::rc::Rc;

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch (test builds only): a ranged read that does
    /// not start at the first row seeks one row early, so every chunk past
    /// the first comes back holding its predecessor's last body.
    static ROW_ONE_EARLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A body file of fixed-width rows ([`Body::ROW_BYTES`]), held open.
struct OocStore {
    file: File,
    len: usize,
}

impl OocStore {
    /// Write `bodies` to `path`, in the order given.
    fn create(path: &Path, bodies: &[Body]) -> std::io::Result<OocStore> {
        let mut buf = Vec::with_capacity(bodies.len() * Body::ROW_BYTES);
        for b in bodies {
            b.write_row(&mut buf);
        }
        let mut file = File::create(path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        Ok(OocStore {
            file: File::open(path)?,
            len: bodies.len(),
        })
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Read bodies `[a, b)` from disk.
    fn read_range(&self, a: usize, b: usize) -> std::io::Result<Vec<Body>> {
        let mut buf = vec![0u8; (b - a) * Body::ROW_BYTES];
        #[cfg(test)]
        let a = a - usize::from(ROW_ONE_EARLY.get() && a > 0);
        self.file
            .read_exact_at(&mut buf, (a * Body::ROW_BYTES) as u64)?;
        Ok(buf
            .chunks_exact(Body::ROW_BYTES)
            .map(|row| Body::read_row(row.try_into().expect("chunks_exact")))
            .collect())
    }
}

/// I/O statistics of an out-of-core force pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OocStats {
    pub bytes_read: u64,
    pub chunk_loads: u64,
    pub cache_hits: u64,
    pub traversal: TraverseStats,
}

/// The out-of-core gravity engine.
pub struct OocGravity {
    store: OocStore,
    cells: Vec<Cell>,
    cache_cap: usize,
}

impl OocGravity {
    /// Build the tree over `bodies`, with leaves ("chunks") of at most
    /// `chunk` bodies, and write the bodies to `path` in the tree's order,
    /// so that every cell is one file range. Only the cells stay in
    /// memory.
    pub fn create(
        path: &Path,
        bodies: Vec<Body>,
        chunk: usize,
        cache_chunks: usize,
    ) -> std::io::Result<OocGravity> {
        assert!(cache_chunks >= 1);
        let tree = Tree::build(bodies, chunk);
        Ok(OocGravity {
            store: OocStore::create(path, &tree.bodies)?,
            cells: tree.cells,
            cache_cap: cache_chunks,
        })
    }

    /// Out-of-core force pass: returns `(id, accel)` pairs in file order
    /// and the I/O statistics. Peak memory is one target chunk + the
    /// cache + the cells — never the whole body set.
    pub fn accelerations(
        &self,
        cfg: &GravityConfig,
    ) -> std::io::Result<(Vec<(u64, Accel)>, OocStats)> {
        assert!(cfg.periodic.is_none(), "out-of-core is vacuum-boundary");
        let mut stats = OocStats::default();
        let mut out = Vec::with_capacity(self.store.len());
        // Tiny LRU: a chunk's first body -> (tick, bodies).
        let mut cache: HashMap<u32, (u64, Rc<[Body]>)> = HashMap::new();
        let mut tick = 0u64;
        let mut fetch = |cell: &Cell| -> std::io::Result<Rc<[Body]>> {
            tick += 1;
            if let Some((t, bodies)) = cache.get_mut(&cell.first_body) {
                *t = tick;
                stats.cache_hits += 1;
                return Ok(Rc::clone(bodies));
            }
            let first = cell.first_body as usize;
            let bodies: Rc<[Body]> = self
                .store
                .read_range(first, first + cell.nbody as usize)?
                .into();
            stats.bytes_read += (bodies.len() * Body::ROW_BYTES) as u64;
            stats.chunk_loads += 1;
            if cache.len() >= self.cache_cap {
                // Evict least-recently-used.
                if let Some((&old, _)) = cache.iter().min_by_key(|(_, (t, _))| *t) {
                    cache.remove(&old);
                }
            }
            cache.insert(cell.first_body, (tick, Rc::clone(&bodies)));
            Ok(bodies)
        };

        // The tree's leaves come out of its depth-first build in file order.
        let mut stack = Vec::new();
        for target in self.cells.iter().filter(|c| c.is_leaf) {
            let first = target.first_body as usize;
            for (j, tb) in fetch(target)?.iter().enumerate() {
                let (acc, s) = traverse::scalar_walk(
                    &self.cells,
                    first + j,
                    tb.pos,
                    cfg,
                    &mut stack,
                    &mut fetch,
                )?;
                stats.traversal.add(&s);
                out.push((tb.id, acc));
            }
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_accelerations;
    use crate::gravity::MacKind;
    use crate::models::plummer;
    use crate::traverse::accel_on;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hot_ooc_{tag}_{}.bin", std::process::id()));
        p
    }

    /// `(n, seed, chunk, cache, theta, mac, quadrupole)`: `plummer(n, seed)`
    /// in leaves of at most `chunk` bodies with `cache` leaves cached, and
    /// the pass's `(bytes_read, chunk_loads, cache_hits)` there. The I/O
    /// was recorded at 7c09061, when the engine built its own metadata tree.
    type OracleCase = (
        (usize, u64, usize, usize, f64, MacKind, bool),
        (u64, u64, u64),
    );
    const ORACLE_CASES: [OracleCase; 5] = [
        (
            (300, 5, 32, 4, 0.6, MacKind::BarnesHut, true),
            (4_458_240, 7_166, 24),
        ),
        (
            (600, 2, 64, 8, 0.5, MacKind::BmaxMac, false),
            (22_855_608, 17_756, 70),
        ),
        (
            (600, 4, 40, 2, 0.6, MacKind::BarnesHut, false),
            (15_091_560, 17_389, 3),
        ),
        (
            (800, 3, 50, 512, 0.7, MacKind::BmaxMac, true),
            (57_600, 83, 23_963),
        ),
        // Ablation [7]'s pass.
        (
            (5_000, 31, 256, 512, 0.6, MacKind::BarnesHut, true),
            (360_000, 176, 292_009),
        ),
    ];

    /// The out-of-core pass is the in-memory per-body walk over
    /// `Tree::build(bodies, chunk)`: body for body in tree order, the same
    /// id, acceleration and potential to the bit and the same interaction
    /// counts, over as many cells, with the recorded I/O.
    fn assert_matches_tree_walk(tag: &str) {
        for ((n, seed, chunk, cache, theta, mac, quadrupole), io) in ORACLE_CASES {
            let case = format!("plummer({n}, {seed}) chunk {chunk} cache {cache}");
            let cfg = GravityConfig {
                theta,
                eps: 0.01,
                mac,
                quadrupole,
                ..Default::default()
            };
            let path = temp_path(&format!("{tag}_{n}_{chunk}"));
            let ooc = OocGravity::create(&path, plummer(n, seed), chunk, cache).unwrap();
            let got = ooc.accelerations(&cfg);
            std::fs::remove_file(&path).ok();
            let (pairs, stats) = got.unwrap();
            let tree = Tree::build(plummer(n, seed), chunk);
            assert_eq!(ooc.cells.len(), tree.cells.len(), "{case}");
            assert_eq!(pairs.len(), n, "{case}");
            let mut want = TraverseStats::default();
            let mut stack = Vec::new();
            for (i, (id, a)) in pairs.iter().enumerate() {
                let (b, s) = accel_on(&tree, i, &cfg, &mut stack);
                want.add(&s);
                let bits = |a: &Accel| (a.acc.map(f64::to_bits), a.pot.to_bits());
                assert_eq!(
                    (*id, bits(a)),
                    (tree.bodies[i].id, bits(&b)),
                    "out-of-core body {i} of {case}"
                );
            }
            assert_eq!(stats.traversal, want, "{case}");
            let got_io = (stats.bytes_read, stats.chunk_loads, stats.cache_hits);
            assert_eq!(got_io, io, "{case}");
        }
    }

    #[test]
    fn out_of_core_pass_is_the_tree_walk_bit_for_bit() {
        assert_matches_tree_walk("oracle");
    }

    /// Teeth: leaves read one row early carry a neighbour's body, so the
    /// forces stop matching the in-memory walk.
    #[test]
    #[should_panic(expected = "out-of-core body")]
    fn leaf_oracle_catches_a_range_read_one_row_early() {
        ROW_ONE_EARLY.set(true);
        assert_matches_tree_walk("teeth");
    }

    #[test]
    fn store_round_trips_bodies() {
        let path = temp_path("roundtrip");
        let mut bodies = plummer(200, 1);
        // Distinct ids and work weights, so a codec that dropped or
        // swapped either field cannot pass.
        for (i, b) in bodies.iter_mut().enumerate() {
            b.id = 1000 + 7 * i as u64;
            b.work = 1.0 + i as f64 / 16.0;
        }
        let store = OocStore::create(&path, &bodies).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 72 * 200);
        // Rows come back in the order written, every field intact.
        assert_eq!(store.read_range(0, store.len()).unwrap(), bodies);
        assert_eq!(store.read_range(150, 153).unwrap(), bodies[150..153]);
        // The engine writes them in tree order: a cell is a file range.
        let ooc = OocGravity::create(&path, bodies.clone(), 8, 1).unwrap();
        let tree = Tree::build(bodies, 8);
        assert_eq!(ooc.store.read_range(0, 200).unwrap(), tree.bodies);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_core_forces_match_direct() {
        let path = temp_path("forces");
        let bodies = plummer(600, 2);
        let ooc = OocGravity::create(&path, bodies, 64, 8).unwrap();
        let cfg = GravityConfig {
            theta: 0.5,
            eps: 0.01,
            ..Default::default()
        };
        let (pairs, stats) = ooc.accelerations(&cfg).unwrap();
        // Reference: direct over the same bodies, matched by id.
        let all = ooc.store.read_range(0, ooc.store.len()).unwrap();
        let exact = direct_accelerations(&all, cfg.eps);
        let exact_by_id: HashMap<u64, Accel> = all.iter().map(|b| b.id).zip(exact).collect();
        let mut num = 0.0;
        let mut den = 0.0;
        for (id, a) in &pairs {
            let e = exact_by_id[id];
            for d in 0..3 {
                num += (a.acc[d] - e.acc[d]).powi(2);
            }
            den += e.acc[0].powi(2) + e.acc[1].powi(2) + e.acc[2].powi(2);
        }
        let err = (num / den).sqrt();
        assert!(err < 5e-3, "rms {err}");
        assert!(stats.traversal.p2p > 0 && stats.traversal.m2p > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_keeps_io_bounded() {
        let path = temp_path("cache");
        let n = 800;
        let bodies = plummer(n, 3);
        let file_bytes = (n * Body::ROW_BYTES) as u64;
        // Note: octant splitting makes far more (smaller) leaves than
        // n/chunk; size the cache for the leaf count.
        let ooc = OocGravity::create(&path, bodies, 50, 512).unwrap();
        let cfg = GravityConfig {
            theta: 0.7,
            eps: 0.01,
            ..Default::default()
        };
        let (_, stats) = ooc.accelerations(&cfg).unwrap();
        // Morton locality + cache: most opens hit the cache.
        assert!(
            stats.cache_hits > stats.chunk_loads,
            "hits {} vs loads {}",
            stats.cache_hits,
            stats.chunk_loads
        );
        // And total I/O stays within a small multiple of the file size.
        assert!(
            stats.bytes_read < 3 * file_bytes,
            "read {} vs file {}",
            stats.bytes_read,
            file_bytes
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn smaller_cache_reads_more() {
        let path = temp_path("lru");
        let bodies = plummer(600, 4);
        let ooc = OocGravity::create(&path, bodies, 40, 2).unwrap();
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.01,
            ..Default::default()
        };
        let (_, small_cache) = ooc.accelerations(&cfg).unwrap();

        let path2 = temp_path("lru2");
        let bodies = plummer(600, 4);
        let ooc2 = OocGravity::create(&path2, bodies, 40, 64).unwrap();
        let (_, big_cache) = ooc2.accelerations(&cfg).unwrap();
        assert!(
            small_cache.bytes_read > big_cache.bytes_read,
            "{} vs {}",
            small_cache.bytes_read,
            big_cache.bytes_read
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn metadata_moments_are_exact() {
        let path = temp_path("moments");
        let bodies = plummer(300, 5);
        let total_mass: f64 = bodies.iter().map(|b| b.mass).sum();
        let ooc = OocGravity::create(&path, bodies, 32, 4).unwrap();
        assert!((ooc.cells[0].mom.mass - total_mass).abs() < 1e-12);
        assert!(ooc.cells.len() > 8);
        std::fs::remove_file(&path).ok();
    }
}
