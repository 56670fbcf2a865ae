//! Generation management: a [`GenerationLog`] is the "stable storage"
//! view of a sequence of committed snapshots — the first commit (and
//! every bbox change or chain refresh) is a full frame, everything
//! else an incremental dirty-cell delta against the previous commit.
//! [`materialize`](GenerationLog::materialize) resolves a step back to
//! a full [`Snapshot`] by replaying the delta chain from the nearest
//! full frame; [`SnapshotCache`] bounds how many materialized
//! generations live decoded in RAM at once.

use crate::delta::Delta;
use crate::snapshot::Snapshot;
use crate::{RecordKind, StoreError};
use hot::{BBox, Body};

/// Morton level of the cell partition (cells = octree nodes at this
/// depth; 4 → up to 4096 cells).
const CELL_LEVEL: u32 = 4;
/// How much to inflate a fresh bounding box so subsequent generations
/// keep fitting (and can be committed as deltas).
const PAD_FACTOR: f64 = 2.0;
/// Force a full frame every this many commits, bounding delta chain
/// length and hence materialization cost.
const FULL_EVERY: u32 = 8;

/// What a [`GenerationLog`] is constructed from. It has no knobs — the
/// partition level, bbox padding and chain length above had one value
/// in every caller — and stays a type because the frozen `hostbench`
/// crate passes `StoreConfig::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreConfig {}

/// One committed generation's bytes: a full snapshot frame or a delta
/// frame chained to the previous commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenRecord {
    Full(Vec<u8>),
    Delta { base_step: u64, bytes: Vec<u8> },
}

impl GenRecord {
    pub fn bytes(&self) -> &[u8] {
        match self {
            GenRecord::Full(b) => b,
            GenRecord::Delta { bytes, .. } => bytes,
        }
    }
}

/// Append-only log of committed generations with full/delta chaining.
#[derive(Debug, Clone)]
pub struct GenerationLog {
    n_aux: u32,
    gens: Vec<(u64, GenRecord)>,
    /// Most recent generation kept encoded for diffing the next commit.
    last: Option<(u64, Snapshot)>,
    chain_len: u32,
    /// What the same commits would have cost as full frames.
    pub full_bytes: u64,
    /// What they actually cost.
    pub commit_bytes: u64,
    /// Dirty cells shipped in delta commits.
    pub cells_dirty: u64,
    /// Total cells across all committed generations.
    pub cells_total: u64,
}

impl GenerationLog {
    pub fn new(_cfg: StoreConfig, n_aux: u32) -> GenerationLog {
        GenerationLog {
            n_aux,
            gens: Vec::new(),
            last: None,
            chain_len: 0,
            full_bytes: 0,
            commit_bytes: 0,
            cells_dirty: 0,
            cells_total: 0,
        }
    }

    pub fn generations(&self) -> usize {
        self.gens.len()
    }

    pub fn contains(&self, step: u64) -> bool {
        self.gens.binary_search_by_key(&step, |(s, _)| *s).is_ok()
    }

    pub fn steps(&self) -> impl Iterator<Item = u64> + '_ {
        self.gens.iter().map(|(s, _)| *s)
    }

    pub fn record(&self, step: u64) -> Option<&GenRecord> {
        self.gens
            .binary_search_by_key(&step, |(s, _)| *s)
            .ok()
            .map(|i| &self.gens[i].1)
    }

    /// Commit a generation. Steps must be strictly increasing. Returns
    /// the committed record bytes (full or delta frame).
    pub fn commit(&mut self, step: u64, bodies: &[Body], aux: &[f64]) -> &[u8] {
        assert!(
            self.gens.last().is_none_or(|(s, _)| *s < step),
            "commits must advance the step"
        );
        let reuse = match &self.last {
            Some((_, prev)) if self.chain_len + 1 < FULL_EVERY => {
                bodies.iter().all(|b| fits(&prev.bbox, b.pos))
            }
            _ => false,
        };
        let bbox = if reuse {
            self.last.as_ref().unwrap().1.bbox
        } else {
            padded_bbox(bodies, PAD_FACTOR)
        };
        let cur = Snapshot::build(bodies, aux, self.n_aux, bbox, CELL_LEVEL);
        // A delta commit needs the full frame's length, not its bytes.
        let full_len = cur.frame_len();
        self.full_bytes += full_len as u64;
        self.cells_total += cur.cells.len() as u64;
        let record = if reuse {
            let (prev_step, prev) = self.last.as_ref().unwrap();
            let delta = Delta::build(prev, &cur, *prev_step);
            let bytes = delta.to_bytes();
            // A delta that lost to the full frame (heavy churn) is
            // committed as a full frame instead, resetting the chain.
            if bytes.len() < full_len {
                self.cells_dirty += delta.dirty.len() as u64;
                Some(GenRecord::Delta {
                    base_step: *prev_step,
                    bytes,
                })
            } else {
                None
            }
        } else {
            None
        };
        let record = record.unwrap_or_else(|| GenRecord::Full(cur.to_bytes()));
        self.chain_len = match record {
            GenRecord::Full(_) => 0,
            GenRecord::Delta { .. } => self.chain_len + 1,
        };
        self.commit_bytes += record.bytes().len() as u64;
        self.last = Some((step, cur));
        self.gens.push((step, record));
        self.gens.last().unwrap().1.bytes()
    }

    /// Materialize the snapshot committed at `step` by decoding the
    /// nearest full frame at or before it and replaying deltas.
    pub fn materialize(&self, step: u64) -> Result<Snapshot, StoreError> {
        let idx = self
            .gens
            .binary_search_by_key(&step, |(s, _)| *s)
            .map_err(|_| StoreError::BaseMismatch("step was never committed"))?;
        let mut start = idx;
        while let GenRecord::Delta { .. } = self.gens[start].1 {
            if start == 0 {
                return Err(StoreError::BaseMismatch("delta chain has no full base"));
            }
            start -= 1;
        }
        let mut snap = match &self.gens[start].1 {
            GenRecord::Full(bytes) => Snapshot::from_bytes(bytes)?,
            GenRecord::Delta { .. } => unreachable!(),
        };
        let mut at = self.gens[start].0;
        for i in start + 1..=idx {
            match &self.gens[i].1 {
                GenRecord::Delta { base_step, bytes } => {
                    if *base_step != at {
                        return Err(StoreError::BaseMismatch("broken delta chain"));
                    }
                    let delta = Delta::from_bytes(bytes)?;
                    if delta.base_step != at {
                        return Err(StoreError::BaseMismatch("delta frame base differs"));
                    }
                    snap = delta.apply(&snap)?;
                }
                GenRecord::Full(_) => {
                    return Err(StoreError::BaseMismatch("full frame inside a chain"))
                }
            }
            at = self.gens[i].0;
        }
        Ok(snap)
    }
}

/// Materialize `step` from raw committed records `(step, bytes)` in
/// ascending step order — the record kinds are sniffed from the bytes.
/// This is the restore-side twin of [`GenerationLog::materialize`] for
/// consumers that only hold the committed byte strings.
pub fn materialize_records(records: &[(u64, Vec<u8>)], step: u64) -> Result<Snapshot, StoreError> {
    let idx = records
        .iter()
        .position(|(s, _)| *s == step)
        .ok_or(StoreError::BaseMismatch("step was never committed"))?;
    let mut start = idx;
    while !matches!(crate::record_kind(&records[start].1)?, RecordKind::Full) {
        if start == 0 {
            return Err(StoreError::BaseMismatch("delta chain has no full base"));
        }
        start -= 1;
    }
    let mut snap = Snapshot::from_bytes(&records[start].1)?;
    let mut at = records[start].0;
    for (s, bytes) in &records[start + 1..=idx] {
        let delta = Delta::from_bytes(bytes)?;
        if delta.base_step != at {
            return Err(StoreError::BaseMismatch("broken delta chain"));
        }
        snap = delta.apply(&snap)?;
        at = *s;
    }
    Ok(snap)
}

fn fits(bbox: &BBox, p: [f64; 3]) -> bool {
    (0..3).all(|d| (p[d] - bbox.center[d]).abs() < bbox.half && p[d].is_finite())
}

fn padded_bbox(bodies: &[Body], pad: f64) -> BBox {
    if bodies.is_empty() {
        return BBox {
            center: [0.0; 3],
            half: 1.0,
        };
    }
    let b = BBox::enclosing(bodies.iter().map(|b| b.pos));
    BBox {
        center: b.center,
        half: b.half * pad,
    }
}

#[cfg(test)]
thread_local! {
    /// Mutation-teeth switch: the newest entry answers every lookup, so
    /// the time-travel oracle can be shown to catch a stale generation.
    static SERVE_NEWEST: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Bounded LRU of materialized generations: the RAM ceiling for
/// time-travel reads (an entry is a generation's encoded cells plus
/// those [`Snapshot::cell`] has decoded). `peak` pins it in tests.
#[derive(Debug)]
pub struct SnapshotCache {
    cap: usize,
    /// Least-recently-used first.
    entries: Vec<(u64, Snapshot)>,
    pub peak: usize,
    pub hits: u64,
    pub misses: u64,
}

impl SnapshotCache {
    pub fn new(cap: usize) -> SnapshotCache {
        SnapshotCache {
            cap: cap.max(1),
            entries: Vec::new(),
            peak: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up `step`, materializing (and caching) it on a miss.
    pub fn get_or_try_insert<E>(
        &mut self,
        step: u64,
        materialize: impl FnOnce() -> Result<Snapshot, E>,
    ) -> Result<&Snapshot, E> {
        let found = self.entries.iter().position(|(s, _)| *s == step);
        #[cfg(test)]
        let found = (self.entries.len().checked_sub(1))
            .filter(|_| SERVE_NEWEST.get())
            .or(found);
        if let Some(i) = found {
            self.hits += 1;
            let e = self.entries.remove(i);
            self.entries.push(e);
        } else {
            self.misses += 1;
            let snap = materialize()?;
            if self.entries.len() == self.cap {
                self.entries.remove(0);
            }
            self.entries.push((step, snap));
            self.peak = self.peak.max(self.entries.len());
        }
        Ok(&self.entries.last().unwrap().1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot::models::plummer;

    /// The time-travel oracle in miniature: read committed generations
    /// back through a two-entry cache in an order that hits, misses and
    /// evicts, and demand each time the bodies committed at that step.
    fn cache_serves_the_generation_asked_for() -> bool {
        let mut bodies = plummer(120, 31);
        let mut log = GenerationLog::new(StoreConfig::default(), 0);
        let mut committed = Vec::new();
        for step in 0..4u64 {
            for b in &mut bodies {
                b.pos[2] += 1e-4 * (1 + b.id % 5) as f64;
            }
            log.commit(step, &bodies, &[]);
            let mut want = bodies.clone();
            want.sort_by_key(|b| b.id);
            committed.push(want);
        }
        let mut cache = SnapshotCache::new(2);
        [0u64, 1, 1, 0, 3, 2, 3, 0].iter().all(|&step| {
            let snap = cache
                .get_or_try_insert(step, || log.materialize(step))
                .expect("committed step materializes");
            let mut got: Vec<Body> = (0..snap.cells.len())
                .flat_map(|i| snap.cell(i).expect("decodes").0.clone())
                .collect();
            got.sort_by_key(|b| b.id);
            got == committed[step as usize]
        })
    }

    #[test]
    fn time_travel_reads_the_generation_asked_for() {
        assert!(cache_serves_the_generation_asked_for());
    }

    /// Teeth: a cache that serves whatever it holds must fail the oracle.
    #[test]
    fn cache_oracle_catches_a_stale_generation() {
        SERVE_NEWEST.set(true);
        assert!(!cache_serves_the_generation_asked_for());
    }
}
