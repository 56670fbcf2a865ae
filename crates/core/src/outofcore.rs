//! Out-of-core treecode (Salmon & Warren 1997; the paper's §4.3: "even
//! larger simulations are possible using the out-of-core version of our
//! code").
//!
//! Bodies live on disk, Morton-sorted, so any tree cell maps to a
//! *contiguous* file range. In memory we keep only:
//!
//! * the sorted keys (8 bytes per body) — the tree *structure*;
//! * a metadata tree whose cells carry exact multipole moments (built
//!   with one streaming pass over the file) but no bodies; its leaves
//!   are "chunks" of at most `chunk` bodies;
//! * an LRU cache of recently loaded chunks.
//!
//! The force pass walks the metadata tree per target chunk: accepted
//! cells interact through their moments; chunks that must be opened are
//! fetched by ranged file read (and usually hit the cache, because
//! Morton order makes the open set spatially local).

use crate::gravity::{self, Accel, GravityConfig};
use crate::morton::{BBox, Key, MAX_LEVEL};
use crate::multipole::Multipole;
use crate::traverse::TraverseStats;
use crate::tree::Body;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A Morton-sorted body file plus its in-memory key index.
pub struct OocStore {
    path: PathBuf,
    pub bbox: BBox,
    /// Full-depth key per body, sorted (the in-memory index).
    pub keys: Vec<Key>,
}

impl OocStore {
    /// Sort `bodies` by key and write them to `path`.
    pub fn create(path: &Path, bodies: Vec<Body>) -> std::io::Result<OocStore> {
        assert!(!bodies.is_empty());
        let bbox = BBox::enclosing(bodies.iter().map(|b| b.pos));
        let mut keyed: Vec<(Key, Body)> = bodies
            .into_iter()
            .map(|b| (bbox.key_of(b.pos), b))
            .collect();
        keyed.sort_by_key(|&(k, _)| k);
        let keys: Vec<Key> = keyed.iter().map(|&(k, _)| k).collect();
        let mut buf = Vec::with_capacity(keyed.len() * Body::ROW_BYTES);
        for (_, b) in &keyed {
            b.write_row(&mut buf);
        }
        let mut file = File::create(path)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        Ok(OocStore {
            path: path.to_path_buf(),
            bbox,
            keys,
        })
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Read bodies `[a, b)` from disk.
    pub fn read_range(&self, a: usize, b: usize) -> std::io::Result<Vec<Body>> {
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start((a * Body::ROW_BYTES) as u64))?;
        let mut buf = vec![0u8; (b - a) * Body::ROW_BYTES];
        file.read_exact(&mut buf)?;
        Ok(buf
            .chunks_exact(Body::ROW_BYTES)
            .map(|row| Body::read_row(row.try_into().expect("chunks_exact")))
            .collect())
    }
}

/// Metadata cell: structure + exact moments, no body storage.
struct MetaCell {
    first: usize,
    n: usize,
    children: Vec<u32>,
    mom: Multipole,
    side: f64,
    is_chunk: bool,
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
    cells: Vec<MetaCell>,
    chunk: usize,
    cache_cap: usize,
}

impl OocGravity {
    /// Build the metadata tree with one streaming pass: leaves of at
    /// most `chunk` bodies get exact P2M moments; internal cells M2M.
    pub fn build(
        store: OocStore,
        chunk: usize,
        cache_chunks: usize,
    ) -> std::io::Result<OocGravity> {
        assert!(chunk >= 1 && cache_chunks >= 1);
        let mut g = OocGravity {
            store,
            cells: Vec::new(),
            chunk,
            cache_cap: cache_chunks,
        };
        let n = g.store.len();
        g.build_cell(Key::ROOT, 0, n)?;
        Ok(g)
    }

    fn build_cell(&mut self, key: Key, first: usize, n: usize) -> std::io::Result<u32> {
        let idx = self.cells.len() as u32;
        let (_, half) = self.store.bbox.cell_geometry(key);
        self.cells.push(MetaCell {
            first,
            n,
            children: Vec::new(),
            mom: Multipole::ZERO,
            side: 2.0 * half,
            is_chunk: true,
        });
        if n <= self.chunk || key.level() == MAX_LEVEL {
            // Streaming P2M over the chunk's file range.
            let bodies = self.store.read_range(first, first + n)?;
            self.cells[idx as usize].mom =
                Multipole::from_bodies(bodies.iter().map(|b| (&b.pos, b.mass)));
            return Ok(idx);
        }
        let level = key.level();
        let shift = 3 * (MAX_LEVEL - level - 1);
        let mut children = Vec::new();
        let mut start = first;
        let end = first + n;
        for oct in 0..8u8 {
            let run_end = start
                + self.store.keys[start..end]
                    .partition_point(|k| ((k.0 >> shift) & 7) as u8 <= oct);
            if run_end > start {
                let c = self.build_cell(key.child(oct), start, run_end - start)?;
                children.push(c);
            }
            start = run_end;
        }
        let moms: Vec<Multipole> = children
            .iter()
            .map(|&c| self.cells[c as usize].mom)
            .collect();
        let cell = &mut self.cells[idx as usize];
        cell.children = children;
        cell.is_chunk = false;
        cell.mom = Multipole::combine(&moms);
        Ok(idx)
    }

    /// Chunks (metadata leaves) in file order.
    fn chunks(&self) -> Vec<u32> {
        let mut v: Vec<u32> = (0..self.cells.len() as u32)
            .filter(|&i| self.cells[i as usize].is_chunk && self.cells[i as usize].n > 0)
            .collect();
        v.sort_by_key(|&i| self.cells[i as usize].first);
        v
    }

    /// Out-of-core force pass: returns `(id, accel)` pairs in file order
    /// and the I/O statistics. Peak memory is one target chunk + the
    /// cache + the key index — never the whole body set.
    pub fn accelerations(
        &self,
        cfg: &GravityConfig,
    ) -> std::io::Result<(Vec<(u64, Accel)>, OocStats)> {
        assert!(cfg.periodic.is_none(), "out-of-core is vacuum-boundary");
        let eps2 = cfg.eps * cfg.eps;
        let mac = crate::mac::Mac::new(cfg.mac, cfg.theta);
        let mut stats = OocStats::default();
        let mut out = Vec::with_capacity(self.store.len());
        // Tiny LRU: map chunk-cell -> (tick, bodies).
        let mut cache: HashMap<u32, (u64, Vec<Body>)> = HashMap::new();
        let mut tick = 0u64;
        let mut fetch = |gidx: u32,
                         cache: &mut HashMap<u32, (u64, Vec<Body>)>,
                         stats: &mut OocStats|
         -> std::io::Result<Vec<Body>> {
            tick += 1;
            if let Some((t, bodies)) = cache.get_mut(&gidx) {
                *t = tick;
                stats.cache_hits += 1;
                return Ok(bodies.clone());
            }
            let cell = &self.cells[gidx as usize];
            let bodies = self.store.read_range(cell.first, cell.first + cell.n)?;
            stats.bytes_read += (cell.n * Body::ROW_BYTES) as u64;
            stats.chunk_loads += 1;
            if cache.len() >= self.cache_cap {
                // Evict least-recently-used.
                if let Some((&old, _)) = cache.iter().min_by_key(|(_, (t, _))| *t) {
                    cache.remove(&old);
                }
            }
            cache.insert(gidx, (tick, bodies.clone()));
            Ok(bodies)
        };

        for target_chunk in self.chunks() {
            let targets = fetch(target_chunk, &mut cache, &mut stats)?;
            for (ti, tb) in targets.iter().enumerate() {
                let pos = tb.pos;
                let mut acc = Accel::default();
                let mut stack = vec![0u32];
                while let Some(ci) = stack.pop() {
                    let cell = &self.cells[ci as usize];
                    if cell.n == 0 {
                        continue;
                    }
                    if mac.accept_raw(cell.side, &cell.mom, pos) {
                        gravity::m2p(pos, &cell.mom, eps2, cfg.quadrupole, &mut acc);
                        stats.traversal.m2p += 1;
                    } else if cell.is_chunk {
                        let bodies = fetch(ci, &mut cache, &mut stats)?;
                        let own = ci == target_chunk;
                        for (j, b) in bodies.iter().enumerate() {
                            if own && j == ti {
                                continue;
                            }
                            gravity::p2p(pos, b.pos, b.mass, eps2, &mut acc);
                            stats.traversal.p2p += 1;
                        }
                    } else {
                        stats.traversal.opened += 1;
                        stack.extend_from_slice(&cell.children);
                    }
                }
                out.push((tb.id, acc));
            }
        }
        Ok((out, stats))
    }

    /// Number of metadata cells (for tests).
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_accelerations;
    use crate::models::plummer;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hot_ooc_{tag}_{}.bin", std::process::id()));
        p
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
        let by_pos: HashMap<[u64; 3], Body> = bodies
            .iter()
            .map(|b| (b.pos.map(f64::to_bits), *b))
            .collect();
        assert_eq!(by_pos.len(), 200, "positions are distinct");
        let store = OocStore::create(&path, bodies).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 72 * 200);
        let all = store.read_range(0, store.len()).unwrap();
        assert_eq!(all.len(), 200);
        for b in &all {
            let orig = by_pos[&b.pos.map(f64::to_bits)];
            assert_eq!(b.vel, orig.vel);
            assert_eq!(b.mass, orig.mass);
            assert_eq!(b.id, orig.id);
            assert_eq!(b.work, orig.work);
        }
        // Keys are sorted and match positions.
        assert!(store.keys.windows(2).all(|w| w[0] <= w[1]));
        for (k, b) in store.keys.iter().zip(&all) {
            assert_eq!(*k, store.bbox.key_of(b.pos));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_core_forces_match_direct() {
        let path = temp_path("forces");
        let bodies = plummer(600, 2);
        let store = OocStore::create(&path, bodies).unwrap();
        let ooc = OocGravity::build(store, 64, 8).unwrap();
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
        let store = OocStore::create(&path, bodies).unwrap();
        let file_bytes = (n * Body::ROW_BYTES) as u64;
        // Note: octant splitting makes far more (smaller) leaves than
        // n/chunk; size the cache for the leaf count.
        let ooc = OocGravity::build(store, 50, 512).unwrap();
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
        let store = OocStore::create(&path, bodies).unwrap();
        let ooc = OocGravity::build(store, 40, 2).unwrap();
        let cfg = GravityConfig {
            theta: 0.6,
            eps: 0.01,
            ..Default::default()
        };
        let (_, small_cache) = ooc.accelerations(&cfg).unwrap();

        let path2 = temp_path("lru2");
        let bodies = plummer(600, 4);
        let store = OocStore::create(&path2, bodies).unwrap();
        let ooc2 = OocGravity::build(store, 40, 64).unwrap();
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
        let store = OocStore::create(&path, bodies).unwrap();
        let ooc = OocGravity::build(store, 32, 4).unwrap();
        assert!((ooc.cells[0].mom.mass - total_mass).abs() < 1e-12);
        assert!(ooc.n_cells() > 8);
        std::fs::remove_file(&path).ok();
    }
}
